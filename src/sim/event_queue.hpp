// Deterministic event queue: events fire in (time, order) order, so
// simultaneous events run in a well-defined sequence and every run of a
// seeded simulation is bit-for-bit identical. The order is the queue's
// own insertion sequence (a counter that advances once per issued id).
//
// Storage follows the live events, not the history: actions sit in a slab
// whose retired cells are reused under a bumped generation (so a stale id
// never matches the cell's new occupant), and a lane that drains gives back
// storage above a small fixed size.
//
// Entries live in one compacted binary heap plus a small table of FIFO
// lanes. Almost every event a simulation schedules is `now + d` for one of
// a few constant delays d (link latency, hop-ack timeout), and such events
// arrive already in (time, order) order: schedule_after() appends them to
// the lane keyed by d in O(1). A lane takes an entry only if it is not
// earlier than the lane's tail (order always grows, so `when >= tail.when`
// keeps the lane sorted); anything else, and every absolute schedule(),
// goes to the heap. A pop takes the (time, order) minimum over the heap
// front and the lane heads, which is exactly the order a single heap would
// produce, whatever the caller passes (Varghese & Lauck's observation that
// timers of one fixed interval need only a FIFO list).
//
// Cancellation is lazy: a cancelled entry stays stored until a lane pop
// steps over it, it surfaces at the heap front, or a compaction sweeps it.
// Most cancels are acked hops' retransmit timers, which sit behind live
// entries on the ack-timeout lane, so they cost one liveness check each
// when their lane advances — never a front() pass of their own.
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

class EventQueue {
 public:
  /// Schedules `action` at absolute time `when`; returns a handle usable
  /// with cancel(). `when` must be >= the last popped time (no scheduling
  /// into the past). The tie-break order is the insertion sequence.
  EventId schedule(SimTime when, std::function<void()> action);

  /// Raw-callback overload: identical semantics and pop order, but the
  /// callback is stored as a POD (fn, ctx, arg) triple — the allocation-
  /// and type-erasure-free path for the two producers that dominate event
  /// traffic (envelope delivery, per-hop ack timers).
  EventId schedule(SimTime when, RawFn fn, void* ctx, std::uint64_t arg);

  /// Schedules at `now + delay` on the FIFO lane keyed by `delay` (the
  /// O(1) path for constant-delay producers). Same pop order and checks as
  /// schedule(now + delay, ...): an entry the lane cannot take in order, or
  /// a delay no free lane can be keyed to, goes to the heap instead.
  EventId schedule_after(SimTime now, SimTime delay, std::function<void()> action);
  EventId schedule_after(SimTime now, SimTime delay, RawFn fn, void* ctx,
                         std::uint64_t arg);

  /// Cancels a pending event; returns false if it already ran, was already
  /// cancelled, or never existed — also once its slot has been reused by a
  /// later event, which is left alone. Lazy removal: the stored entry stays
  /// until a lane pop steps over it (a lane never exposes a cancelled entry
  /// as its new head) or it reaches the heap front — and once stale
  /// entries outnumber live ones (every acked hop cancels its retransmit
  /// timer, so under reliable traffic most of the queue is corpses), the
  /// storage is compacted in one O(n) pass.
  bool cancel(EventId id);

  [[nodiscard]] bool empty() const noexcept { return ids_.empty(); }
  [[nodiscard]] std::size_t pending() const noexcept { return ids_.size(); }
  /// Storage slots currently held, cancelled corpses included — pending()
  /// plus the stale entries compaction has not yet reclaimed (observability
  /// for the compaction tests/bench; always < 2 * pending() + a small floor
  /// after any cancel, by the compaction invariant). Sums the heap and the
  /// lanes.
  [[nodiscard]] std::size_t heap_size() const noexcept {
    return heap_.size() + lane_count_;
  }
  /// Storage held, in cells: action-slot capacity plus the entry capacity
  /// of the heap and every lane. Bounded by the peak number of live events
  /// (plus at most kLanes * kLaneKeep entries that drained lanes keep for
  /// reuse), not by the number of ids ever issued. For tests and
  /// diagnostics.
  [[nodiscard]] std::size_t footprint() const noexcept;
  /// Time of the earliest pending event; queue must not be empty.
  [[nodiscard]] SimTime next_time() const;
  [[nodiscard]] SimTime last_popped_time() const noexcept { return last_popped_; }

  /// Pops and runs the earliest pending event. Returns false if nothing ran
  /// (queue empty). Cancelled entries are skipped transparently. When
  /// `now_out` is non-null the event's time is written there before its
  /// action runs — the driver's clock advances in the same call, saving a
  /// separate next_time() peek per event on the hot loop.
  bool run_next(SimTime* now_out = nullptr);

  /// Lane table size: distinct constant delays served in O(1) at once. An
  /// empty lane is re-keyed to the next unserved delay.
  static constexpr std::size_t kLanes = 8;
  /// A drained lane keeps its storage up to this many entries, so the next
  /// fill reuses it without regrowing, and gives back anything larger, so
  /// one burst does not pin its high-water mark.
  static constexpr std::size_t kLaneKeep = 1024;

  /// An EventId is (generation << 32) | slot index. Generations stay below
  /// 2^kGenerationBits, so ids fit in 32 + kGenerationBits bits.
  static constexpr unsigned kGenerationBits = 24;

 private:
  /// What the heap and the lanes store: 24 trivially-copyable bytes. The
  /// action lives in the slot table instead, so heap sift-ups and lane
  /// shifts move PODs — no std::function move (an
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
  /// A FIFO of entries scheduled `delay` after their caller's clock, sorted
  /// by (when, order) by construction. [pos, end) is pending; the consumed
  /// prefix is shifted out once it outgrows the pending part.
  struct Lane {
    SimTime delay = 0;
    std::vector<Entry> entries;
    std::size_t pos = 0;
    [[nodiscard]] bool drained() const noexcept { return pos == entries.size(); }
  };

  /// A slab of generation-stamped cells: no per-event node allocation on
  /// the schedule/cancel hot path, and storage that tracks the live events.
  /// A retired cell (fired or cancelled) goes on a LIFO free list with its
  /// generation bumped, so its old id — still held by a caller, or by a
  /// lingering heap or lane entry — no longer matches; a cell whose generation
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

  /// Validates a schedule and issues its id: the entry to file.
  Entry issue(SimTime when, std::function<void()> action);
  Entry issue(SimTime when, RawFn fn, void* ctx, std::uint64_t arg);
  /// Files an entry on the heap.
  void push_heap(Entry entry) const;
  /// Files an entry scheduled `delay` ahead: on its lane when the lane can
  /// take it in order, else on the heap.
  void place_after(SimTime delay, Entry entry);
  /// The earliest live entry, its lane (nullptr: the heap front) written to
  /// `lane_out`; nullptr when nothing is live. Drops dead fronts on the way:
  /// heap corpses, and lane heads cancelled after they were exposed.
  [[nodiscard]] const Entry* front(Lane** lane_out) const;
  /// Pops the earliest pending entry; false when empty. Does not run it.
  bool pop_front(Entry* out);
  void pop_heap_front() const;
  /// Removes a lane's head and the run of cancelled entries behind it, so
  /// the lane's next head is live when exposed (lane_count_ stays exact).
  void consume(Lane& lane) const noexcept;
  /// Empties a lane, giving back its storage above kLaneKeep entries.
  void reset_lane(Lane& lane) const noexcept;
  void compact();

  ActionTable ids_;
  SimTime last_popped_ = kTimeZero;
  // Min-heap per Later via std::*_heap, and the lane table: lanes_[0,
  // lanes_used_) have been keyed. front() drops dead heads from const
  // accessors (next_time()), hence mutable.
  mutable std::vector<Entry> heap_;
  mutable Lane lanes_[kLanes];
  std::size_t lanes_used_ = 0;
  mutable std::size_t lane_count_ = 0;  // entries pending in all lanes
};

}  // namespace geomcast::sim
