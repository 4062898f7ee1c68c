// Deterministic event queue: events fire in (time, order) order, so
// simultaneous events run in a well-defined sequence and every run of a
// seeded simulation is bit-for-bit identical. The order is the queue's
// own insertion sequence (a counter that advances once per issued id).
//
// Storage follows the live events, not the history: actions sit in a slab
// whose retired cells are reused under a bumped generation (so a stale id
// never matches the cell's new occupant), and a wheel bucket that drains
// gives back storage above a small fixed size.
//
// Two interchangeable backends produce that exact same order:
//
//  - kHeap: the original compacted binary heap. O(log n) per operation,
//    no assumptions about time distribution. This is the oracle.
//  - kWheel: a hierarchical timer wheel for the short-horizon timers that
//    dominate simulation workloads (per-hop latency, retransmit, gap and
//    batch timers). Rung 0 is a ring of fine buckets (kWheelTick wide),
//    rung 1 a ring of coarse buckets (one rung-0 span wide each), and the
//    compacted binary heap stays on as the long-horizon overflow rung.
//    An insert is O(1) bucket append; pops sort one small bucket at a time
//    by (time, order), which reproduces the heap's global pop order exactly
//    (buckets partition the time axis monotonically). Coarse buckets
//    cascade into rung 0 when the fine cursor crosses their boundary, and
//    overflow entries drain into the wheel the moment the cascade cursor
//    reaches their coarse bucket. Each ring keeps an occupancy bitmap (one
//    bit per bucket, set iff the bucket stores entries), so sparse
//    workloads — a few thousand events spread over a long horizon — skip
//    runs of empty buckets with a word scan instead of visiting each
//    bucket (the 100k-peer sweep shape where the wheel used to trail the
//    heap).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/time.hpp"

namespace geomcast::sim {

using EventId = std::uint64_t;

/// Raw scheduled-callback signature: the fast path for high-frequency
/// event producers. The (fn, ctx, arg) triple is stored as-is — no type
/// erasure, no allocation — so `ctx` must outlive the event (or the event
/// must be cancelled first).
using RawFn = void (*)(void* ctx, std::uint64_t arg);

enum class QueueBackend { kHeap, kWheel };

class EventQueue {
 public:
  explicit EventQueue(QueueBackend backend = QueueBackend::kHeap);

  /// Schedules `action` at absolute time `when`; returns a handle usable
  /// with cancel(). `when` must be >= the last popped time (no scheduling
  /// into the past). The tie-break order is the insertion sequence.
  EventId schedule(SimTime when, std::function<void()> action);

  /// Raw-callback overload: identical semantics and pop order, but the
  /// callback is stored as a POD (fn, ctx, arg) triple — the allocation-
  /// and type-erasure-free path for the two producers that dominate event
  /// traffic (envelope delivery, per-hop ack timers).
  EventId schedule(SimTime when, RawFn fn, void* ctx, std::uint64_t arg);

  /// Cancels a pending event; returns false if it already ran, was already
  /// cancelled, or never existed — also once its slot has been reused by a
  /// later event, which is left alone. Lazy removal: the stored entry stays
  /// until its bucket (or the heap front) is consumed — but once stale
  /// entries outnumber live ones (every acked hop cancels its retransmit
  /// timer, so under reliable traffic most of the queue is corpses), the
  /// storage is compacted in one O(n) pass instead of surfacing each
  /// corpse individually.
  bool cancel(EventId id);

  [[nodiscard]] bool empty() const noexcept { return ids_.empty(); }
  [[nodiscard]] std::size_t pending() const noexcept { return ids_.size(); }
  /// Storage slots currently held, cancelled corpses included — pending()
  /// plus the stale entries compaction has not yet reclaimed (observability
  /// for the compaction tests/bench; always < 2 * pending() + a small floor
  /// after any cancel, by the compaction invariant). Under kWheel this sums
  /// all three rungs.
  [[nodiscard]] std::size_t heap_size() const noexcept {
    return fine_count_ + coarse_count_ + heap_.size();
  }
  /// Storage held, in cells: action-slot capacity plus the entry capacity
  /// of every rung. Bounded by the peak number of live events (plus at
  /// most kFineBuckets * kBucketKeep entries that drained rung-0 buckets
  /// keep for reuse), not by the number of ids ever issued. O(ring size);
  /// for tests and diagnostics.
  [[nodiscard]] std::size_t footprint() const noexcept;
  /// Time of the earliest pending event; queue must not be empty.
  [[nodiscard]] SimTime next_time() const;
  [[nodiscard]] SimTime last_popped_time() const noexcept { return last_popped_; }
  [[nodiscard]] QueueBackend backend() const noexcept { return backend_; }

  /// Pops and runs the earliest pending event. Returns false if nothing ran
  /// (queue empty). Cancelled entries are skipped transparently. When
  /// `now_out` is non-null the event's time is written there before its
  /// action runs — the driver's clock advances in the same call, saving a
  /// separate next_time() peek per event on the hot loop.
  bool run_next(SimTime* now_out = nullptr);

  // Wheel geometry, exposed for the unit tests that pin rung-boundary and
  // overflow-drain behaviour.
  static constexpr double kWheelTick = 0.0005;     // rung-0 bucket width (s)
  static constexpr std::size_t kFineBuckets = 2048;    // rung-0 ring size
  static constexpr std::size_t kCoarseBuckets = 4096;  // rung-1 ring size
  /// A drained rung-0 bucket keeps its storage up to this many entries —
  /// the ring comes round every kFineBuckets ticks, so the next fill reuses
  /// it without regrowing — and gives back anything larger, so one burst
  /// does not pin its high-water mark. A drained rung-1 bucket gives back
  /// everything: its slot comes round only once per coarse horizon. The
  /// storage drained buckets hold is thus capped at kFineBuckets *
  /// kBucketKeep entries, whatever the history.
  static constexpr std::size_t kBucketKeep = 64;

  /// An EventId is (generation << 32) | slot index. Generations stay below
  /// 2^kGenerationBits, so ids fit in 32 + kGenerationBits bits.
  static constexpr unsigned kGenerationBits = 24;

 private:
  /// What the rungs store and sort: 24 trivially-copyable bytes. The
  /// action lives in the slot table instead, so bucket sorts, heap
  /// sift-ups and cascades shuffle PODs — no std::function move (an
  /// indirect _M_manager call) per element hop. `order` is the pop
  /// tie-break at equal times: the queue's insertion sequence.
  /// Entries of cancelled events linger until swept; their stale id fails
  /// the table's generation check even after the slot is reused.
  struct Entry {
    SimTime when;
    std::uint64_t order;
    EventId id;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.order > b.order;
    }
  };
  struct Bucket {
    std::vector<Entry> entries;
    std::size_t pos = 0;   // consumed prefix
    bool sorted = true;    // [pos, end) in (when, order) order
  };

  /// A slab of generation-stamped cells: no per-event node allocation on
  /// the schedule/cancel hot path, and storage that tracks the live events.
  /// A retired cell (fired or cancelled) goes on a LIFO free list with its
  /// generation bumped, so its old id — still held by a caller, or by a
  /// lingering rung entry — no longer matches; a cell whose generation
  /// saturates is retired for good. A slot is a raw (fn, ctx, arg) triple,
  /// so growth reallocation is a memmove, a pop is a POD copy, and
  /// invocation is one direct call through the stored pointer.
  /// std::function closures still work: they are boxed on the heap and run
  /// through a self-freeing thunk (cancel frees the box too). A live event
  /// is exactly one whose cell holds a non-null fn under the id's
  /// generation.
  class ActionTable {
   public:
    struct Slot {
      RawFn fn = nullptr;
      void* ctx = nullptr;
      std::uint64_t arg = 0;
    };

    ActionTable() = default;
    ActionTable(const ActionTable&) = delete;
    ActionTable& operator=(const ActionTable&) = delete;
    ~ActionTable() {
      for (const Cell& cell : cells_) release_box(cell.slot);
    }

    EventId add(RawFn fn, void* ctx, std::uint64_t arg) {
      std::uint32_t index = free_head_;
      if (index != kNoCell) {
        free_head_ = cells_[index].next_free;
      } else {
        index = grow();
      }
      Cell& cell = cells_[index];
      cell.slot = Slot{fn, ctx, arg};
      ++live_;
      ++issued_;
      return (EventId{cell.generation} << 32) | index;
    }
    EventId add(std::function<void()> action) {
      return add(&closure_thunk, new std::function<void()>(std::move(action)), 0);
    }
    /// Cancel: frees a boxed closure immediately (captures release).
    bool erase(EventId id) noexcept {
      if (!contains(id)) return false;
      const auto index = static_cast<std::uint32_t>(id);
      release_box(cells_[index].slot);
      retire(index);
      return true;
    }
    /// Pop: copies the slot out for invocation (the callback may reuse the
    /// cell or grow the slab; a boxed closure frees itself after running).
    /// Caller guarantees the id is live.
    [[nodiscard]] Slot take(EventId id) noexcept {
      const auto index = static_cast<std::uint32_t>(id);
      const Slot slot = cells_[index].slot;
      retire(index);
      return slot;
    }
    [[nodiscard]] bool contains(EventId id) const noexcept {
      const auto index = static_cast<std::uint32_t>(id);
      return index < cells_.size() && cells_[index].slot.fn != nullptr &&
             cells_[index].generation == (id >> 32);
    }
    [[nodiscard]] std::size_t size() const noexcept { return live_; }
    [[nodiscard]] bool empty() const noexcept { return live_ == 0; }
    /// Ids handed out so far: the insertion sequence.
    [[nodiscard]] std::uint64_t issued() const noexcept { return issued_; }
    [[nodiscard]] std::size_t capacity() const noexcept { return cells_.capacity(); }

   private:
    struct Cell {
      Slot slot;
      std::uint32_t generation = 1;  // ids never carry generation 0
      std::uint32_t next_free = 0;   // free-list link while retired
    };
    static constexpr std::uint32_t kNoCell = 0xFFFFFFFFu;
    static constexpr std::uint32_t kGenerationLimit = 1u << kGenerationBits;

    /// Marks a live cell dead and recycles it under the next generation.
    void retire(std::uint32_t index) noexcept {
      Cell& cell = cells_[index];
      cell.slot.fn = nullptr;
      --live_;
      if (++cell.generation == kGenerationLimit) return;  // saturated
      cell.next_free = free_head_;
      free_head_ = index;
    }
    /// Appends a fresh cell; throws once the index space is exhausted.
    std::uint32_t grow();
    static void closure_thunk(void* ctx, std::uint64_t arg);
    static void release_box(const Slot& slot) noexcept {
      if (slot.fn == &closure_thunk)
        delete static_cast<std::function<void()>*>(slot.ctx);
    }

    std::vector<Cell> cells_;
    std::uint32_t free_head_ = kNoCell;
    std::size_t live_ = 0;
    std::uint64_t issued_ = 0;
  };

  [[nodiscard]] static std::uint64_t fine_index(SimTime when) noexcept {
    return static_cast<std::uint64_t>(when / kWheelTick);
  }

  /// Shared tail of the schedule() overloads: files the entry with the
  /// active backend.
  void place(SimTime when, std::uint64_t order, EventId id);
  /// Pops the earliest pending entry; false when empty (stale entries
  /// skipped). Does not run it.
  bool pop_front(Entry* out);

  // --- heap backend ---
  void heap_drop_stale_head() const;
  void heap_compact() const;

  // --- wheel backend ---
  void wheel_insert(Entry entry);
  void wheel_place_fine(Entry entry) const;
  /// Locates the earliest live entry, advancing cursors / cascading /
  /// draining overflow as needed; nullptr when nothing is live. The entry
  /// stays stored; wheel_consume_front() removes it.
  [[nodiscard]] Entry* wheel_peek() const;
  Entry wheel_consume_front();
  /// Tears the whole wheel down and re-inserts every live entry — the cold
  /// path for a schedule that lands behind an already-cascaded boundary
  /// (only reachable by peeking far ahead with next_time() and then
  /// scheduling near the old clock).
  void wheel_rebuild(Entry extra);
  void wheel_compact();
  /// Empties a bucket, giving back its storage above `keep` entries.
  static void reset_bucket(Bucket& bucket, std::size_t keep) noexcept;

  // Ring-occupancy bitmaps: bit set iff the bucket stores entries (dead
  // ones included — they still need visiting to be reclaimed). Lets peek
  // jump over empty-bucket runs with a word scan; maintained at the three
  // places a bucket can empty (drain, consume, compact) plus rebuild.
  void fine_bit(std::uint64_t slot, bool set) const noexcept {
    if (set)
      fine_bits_[slot >> 6] |= 1ULL << (slot & 63);
    else
      fine_bits_[slot >> 6] &= ~(1ULL << (slot & 63));
  }
  void coarse_bit(std::uint64_t slot, bool set) const noexcept {
    if (set)
      coarse_bits_[slot >> 6] |= 1ULL << (slot & 63);
    else
      coarse_bits_[slot >> 6] &= ~(1ULL << (slot & 63));
  }

  QueueBackend backend_;
  ActionTable ids_;
  SimTime last_popped_ = kTimeZero;

  // Heap backend storage (also the wheel's overflow rung); min-heap per
  // Later via std::*_heap.
  mutable std::vector<Entry> heap_;

  // Wheel state. Buckets are addressed by absolute index (floor(when /
  // width)) modulo ring size; `fine_cursor_` scans rung 0, and every
  // absolute fine index below `cascaded_` lives in rung 0. `coarse_cursor_`
  // is the next coarse bucket to cascade (cascaded_ == coarse_cursor_ *
  // kFineBuckets). peek() must advance this state from const accessors
  // (next_time()), hence mutable — identical in spirit to the heap's lazy
  // stale-head dropping.
  mutable std::vector<Bucket> fine_;
  mutable std::vector<Bucket> coarse_;
  mutable std::vector<std::uint64_t> fine_bits_;
  mutable std::vector<std::uint64_t> coarse_bits_;
  mutable std::uint64_t fine_cursor_ = 0;
  mutable std::uint64_t coarse_cursor_ = 0;
  mutable std::size_t fine_count_ = 0;    // entries stored in rung 0
  mutable std::size_t coarse_count_ = 0;  // entries stored in rung 1
};

}  // namespace geomcast::sim
