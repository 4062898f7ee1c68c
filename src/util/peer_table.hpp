// Flat per-peer protocol state, keyed by what an arrival touches.
//
// In the paper's construction only the peers a request reaches hold state,
// and on the receive path an arrival names exactly one (peer, group[, slot])
// cell. PeerTable stores those cells in one open-addressing table instead
// of an n-sized vector of node-based maps, so a lookup is one hash plus a
// short linear probe through contiguous entries — no pointer chase per
// tree level, and memory is O(touched cells), not O(n).
//
// It is the one hash table of the per-envelope path, shared by the pub/sub
// layer (groups/: windows, dedup sets, retention, accept times, the route
// memo and the group index) and the hop layer (multicast/: pending hops by
// (from, to, seq)).
//
// Layout (the MulticastTree index idiom, values stored inline):
//  * power-of-two entry array, load kept <= 1/2 (doubles before crossing
//    it, never shrinks);
//  * the 16-byte key is mixed and the high bits pick the home entry
//    (Fibonacci hashing); collisions probe linearly;
//  * erase is backward-shift deletion, so there are no tombstones and a
//    probe for an absent key stops at the first empty entry;
//  * `peer == kNoPeer` marks an empty entry.
// MulticastTree keeps its own index rather than a PeerTable<uint32_t>: its
// key is a bare PeerId, so its 8-byte slots keep every copy-on-write clone
// a third the size.
//
// Any insertion may rehash and erase may shift entries: a Value* returned
// by find/try_emplace is valid only until the next try_emplace/insert/
// erase on the same table. Iteration order is a function of the hash, so
// no protocol decision may depend on it (for_each is for order-free
// aggregates such as sums).
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace geomcast::util {

/// The peer id no peer carries (sim::kInvalidNode): marks an empty entry.
inline constexpr std::uint32_t kNoPeer = std::numeric_limits<std::uint32_t>::max();

/// One cell of per-peer state: `peer` is a node id; `id` is a group id for
/// group-scoped state (with `slot` the replica slot where that matters,
/// else 0), a globally unique token (graft id, sync id) for per-peer dedup
/// sets, or a hop's seq (with `slot` its receiver) in the hop layer.
struct PeerKey {
  std::uint32_t peer = kNoPeer;
  std::uint32_t slot = 0;
  std::uint64_t id = 0;

  friend bool operator==(const PeerKey&, const PeerKey&) = default;
};

/// Value for a PeerTable used as a plain key set.
struct NoValue {};

template <class Value>
class PeerTable {
 public:
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// Entries allocated (a power of two, 0 before the first insertion).
  [[nodiscard]] std::size_t bucket_count() const noexcept { return entries_.size(); }

  [[nodiscard]] const Value* find(const PeerKey& key) const noexcept {
    if (entries_.empty()) return nullptr;
    const Entry& e = entries_[probe(key)];
    return e.key.peer == kNoPeer ? nullptr : &e.value;
  }
  [[nodiscard]] Value* find(const PeerKey& key) noexcept {
    return const_cast<Value*>(std::as_const(*this).find(key));
  }

  /// The value under `key`, constructed from `args` when absent; the bool
  /// says whether it was inserted. May rehash (see the header comment).
  template <class... Args>
  std::pair<Value*, bool> try_emplace(const PeerKey& key, Args&&... args) {
    if (!entries_.empty()) {
      Entry& e = entries_[probe(key)];
      if (e.key.peer != kNoPeer) return {&e.value, false};
    }
    if (2 * (size_ + 1) > entries_.size()) rehash(std::max(kMinSize, 2 * entries_.size()));
    Entry& e = entries_[probe(key)];
    e.key = key;
    e.value = Value(std::forward<Args>(args)...);
    ++size_;
    return {&e.value, true};
  }
  /// Set-style insert: true iff `key` was absent.
  bool insert(const PeerKey& key) { return try_emplace(key).second; }

  /// Removes `key` (no-op when absent); returns whether it was present.
  bool erase(const PeerKey& key) {
    if (entries_.empty()) return false;
    const std::size_t mask = entries_.size() - 1;
    std::size_t hole = probe(key);
    if (entries_[hole].key.peer == kNoPeer) return false;
    // Backward-shift: pull each later entry of the probe run into the hole
    // unless its home lies cyclically inside (hole, j] — it would then sit
    // before its home and become unfindable.
    for (std::size_t j = (hole + 1) & mask; entries_[j].key.peer != kNoPeer;
         j = (j + 1) & mask) {
      if (((j - home(entries_[j].key)) & mask) >= ((j - hole) & mask)) {
        entries_[hole] = std::move(entries_[j]);
        hole = j;
      }
    }
    entries_[hole] = Entry{};
    --size_;
    return true;
  }

  /// Calls f(key, value) for every entry, in hash order.
  template <class F>
  void for_each(F&& f) const {
    for (const Entry& e : entries_)
      if (e.key.peer != kNoPeer) f(e.key, e.value);
  }

 private:
  struct Entry {
    PeerKey key;
    [[no_unique_address]] Value value{};
  };
  static constexpr std::size_t kMinSize = 16;

  [[nodiscard]] std::size_t home(const PeerKey& key) const noexcept {
    const std::uint64_t where = (std::uint64_t{key.peer} << 32) | key.slot;
    std::uint64_t x = key.id ^ (where * 0xBF58476D1CE4E5B9ULL);
    x ^= x >> 31;
    return static_cast<std::size_t>((x * 0x9E3779B97F4A7C15ULL) >> shift_);
  }
  /// Entry holding `key`, or the empty entry where its probe ends.
  [[nodiscard]] std::size_t probe(const PeerKey& key) const noexcept {
    const std::size_t mask = entries_.size() - 1;
    std::size_t i = home(key);
    while (entries_[i].key.peer != kNoPeer && !(entries_[i].key == key)) i = (i + 1) & mask;
    return i;
  }
  void rehash(std::size_t capacity) {
    std::vector<Entry> old(capacity);
    old.swap(entries_);
    shift_ = 64U - static_cast<unsigned>(std::countr_zero(capacity));
    for (Entry& e : old)
      if (e.key.peer != kNoPeer) entries_[probe(e.key)] = std::move(e);
  }

  std::vector<Entry> entries_;
  std::size_t size_ = 0;
  unsigned shift_ = 64;
};

}  // namespace geomcast::util
