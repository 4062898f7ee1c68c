// Pooled immutable payloads behind an 8-byte refcounted handle.
//
// Message payloads travel the simulator inside std::any. libstdc++'s any
// stores a type inline only up to sizeof(void*) = 8 bytes; anything larger
// — a 16-byte shared_ptr included — goes through _Manager_external and
// heap-allocates on every any construction and copy, once per hop on the
// dissemination fan-out. RcPtr is an 8-byte intrusive-refcount handle that
// stays inside the any's inline buffer, so a fan-out copy is one pointer
// store plus one refcount increment: no heap traffic at all. Holders off
// the wire keep the handle typed, with no any around it: a QoS 2 retained
// buffer's entry is the wave's RcPtr alone (groups::RetainedBuffer), 8
// bytes per retained wave.
//
// RcPool owns the backing storage: make() constructs the payload into a
// {refcount, pool, T} block drawn from a free list, and the last RcPtr to
// drop returns the block there — steady-state payload churn costs no
// allocation. Pool and handles are single-threaded: the refcount is a
// plain integer.
//
// Lifetime contract: the pool must outlive every handle it produced —
// declare it before (i.e. destroy it after) the subsystems that can hold
// payloads: envelopes in flight, pending hops and retained buffers. release() between bench cells frees only the cached blocks;
// live handles are unaffected and recycle into the emptied list as they
// drop.
//
// RcPool is this header's only allocator: the per-hop pending state that
// also recycles per transfer is a flat slab in the hop layer itself
// (multicast/reliable_hop.hpp).
#pragma once

#include <cstddef>
#include <new>
#include <utility>
#include <vector>

namespace geomcast::util {

template <typename T>
class RcPtr;

template <typename T>
class RcPool {
 public:
  RcPool() = default;
  RcPool(const RcPool&) = delete;
  RcPool& operator=(const RcPool&) = delete;
  ~RcPool() { release(); }

  /// Constructs a T from `args` in a pooled block and hands back the first
  /// reference to it. The payload is immutable through the handle.
  template <typename... Args>
  [[nodiscard]] RcPtr<T> make(Args&&... args);

  /// Frees the cached blocks (pool reset between bench cells). Handles
  /// still alive are unaffected; their blocks rejoin the free list when
  /// the last reference drops.
  void release() {
    for (void* block : free_) ::operator delete(block);
    free_.clear();
  }

  /// Blocks sitting in the free list.
  [[nodiscard]] std::size_t cached() const noexcept { return free_.size(); }
  /// Blocks ever drawn from operator new — the pool's high-water mark.
  [[nodiscard]] std::size_t allocated() const noexcept { return allocated_; }

 private:
  friend class RcPtr<T>;

  struct Box {
    std::size_t count;
    RcPool* pool;
    T value;
  };

  void recycle(Box* box) noexcept {
    box->~Box();
    free_.push_back(box);
  }

  std::vector<void*> free_;
  std::size_t allocated_ = 0;
};

/// Shared read-only handle to a pooled T. Exactly one pointer wide, so it
/// rides std::any's inline storage and costs 8 bytes where it is stored
/// typed; copying bumps the count.
template <typename T>
class RcPtr {
 public:
  RcPtr() = default;
  RcPtr(const RcPtr& other) noexcept : box_(other.box_) {
    if (box_ != nullptr) ++box_->count;
  }
  RcPtr(RcPtr&& other) noexcept : box_(std::exchange(other.box_, nullptr)) {}
  RcPtr& operator=(RcPtr other) noexcept {
    std::swap(box_, other.box_);
    return *this;
  }
  ~RcPtr() {
    if (box_ != nullptr && --box_->count == 0) box_->pool->recycle(box_);
  }

  [[nodiscard]] const T& operator*() const noexcept { return box_->value; }
  [[nodiscard]] const T* operator->() const noexcept { return &box_->value; }
  [[nodiscard]] explicit operator bool() const noexcept { return box_ != nullptr; }

 private:
  friend class RcPool<T>;
  explicit RcPtr(typename RcPool<T>::Box* box) noexcept : box_(box) {}

  typename RcPool<T>::Box* box_ = nullptr;
};

template <typename T>
template <typename... Args>
RcPtr<T> RcPool<T>::make(Args&&... args) {
  void* raw;
  if (!free_.empty()) {
    raw = free_.back();
    free_.pop_back();
  } else {
    ++allocated_;
    raw = ::operator new(sizeof(Box));
  }
  return RcPtr<T>{new (raw) Box{1, this, T{std::forward<Args>(args)...}}};
}

}  // namespace geomcast::util
