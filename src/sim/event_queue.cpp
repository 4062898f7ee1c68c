#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>

namespace geomcast::sim {

namespace {
/// Compaction floor: below this, lazy corpse-skipping is already cheap and
/// a rebuild would churn tiny queues for nothing.
constexpr std::size_t kMinCompactSize = 64;

constexpr std::uint64_t kNoBucket = std::numeric_limits<std::uint64_t>::max();

/// Smallest k in [0, span) such that ring slot (start_slot + k) % ring_size
/// has its occupancy bit set; kNoBucket when the window is all-empty. The
/// word scan is what lets sparse workloads skip thousands of empty buckets
/// per pop: 64 buckets per load instead of one bucket per loop iteration.
std::uint64_t next_occupied(const std::vector<std::uint64_t>& bits,
                            std::uint64_t start_slot, std::uint64_t span,
                            std::uint64_t ring_size) {
  std::uint64_t pos = start_slot;
  std::uint64_t scanned = 0;
  while (scanned < span) {
    const std::uint64_t bit_off = pos & 63;
    const std::uint64_t in_word =
        std::min<std::uint64_t>(64 - bit_off, span - scanned);
    const std::uint64_t word = bits[pos >> 6] >> bit_off;
    if (word != 0) {
      const auto tz = static_cast<std::uint64_t>(std::countr_zero(word));
      if (tz < in_word) return scanned + tz;
    }
    scanned += in_word;
    pos += in_word;
    if (pos == ring_size) pos = 0;
  }
  return kNoBucket;
}
}  // namespace

void EventQueue::ActionTable::closure_thunk(void* ctx, std::uint64_t /*arg*/) {
  const std::unique_ptr<std::function<void()>> boxed(
      static_cast<std::function<void()>*>(ctx));
  (*boxed)();
}

std::uint32_t EventQueue::ActionTable::grow() {
  if (cells_.size() >= kNoCell)
    throw std::length_error("EventQueue: more than 2^32 - 1 live event slots");
  cells_.emplace_back();
  return static_cast<std::uint32_t>(cells_.size() - 1);
}

EventQueue::EventQueue(QueueBackend backend) : backend_(backend) {
  if (backend_ == QueueBackend::kWheel) {
    fine_.resize(kFineBuckets);
    coarse_.resize(kCoarseBuckets);
    fine_bits_.assign(kFineBuckets / 64, 0);
    coarse_bits_.assign(kCoarseBuckets / 64, 0);
  }
}

EventId EventQueue::schedule(SimTime when, std::function<void()> action) {
  if (when < last_popped_)
    throw std::invalid_argument("EventQueue::schedule: time is in the past");
  if (!action) throw std::invalid_argument("EventQueue::schedule: empty action");
  const EventId id = ids_.add(std::move(action));
  place(when, /*order=*/ids_.issued(), id);
  return id;
}

EventId EventQueue::schedule(SimTime when, RawFn fn, void* ctx, std::uint64_t arg) {
  if (when < last_popped_)
    throw std::invalid_argument("EventQueue::schedule: time is in the past");
  if (fn == nullptr)
    throw std::invalid_argument("EventQueue::schedule: null callback");
  const EventId id = ids_.add(fn, ctx, arg);
  place(when, /*order=*/ids_.issued(), id);
  return id;
}

void EventQueue::place(SimTime when, std::uint64_t order, EventId id) {
  if (backend_ == QueueBackend::kHeap) {
    heap_.push_back(Entry{when, order, id});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  } else {
    wheel_insert(Entry{when, order, id});
  }
}

bool EventQueue::cancel(EventId id) {
  if (!ids_.erase(id)) return false;
  // Cancelled entries linger in their rung until they surface; under
  // ack-heavy traffic (every acked hop cancels its retransmit timer) they
  // would dominate storage and every operation would pay their cost.
  // Compact once they exceed half the stored entries: O(n) now, amortised
  // O(1) per cancel.
  const std::size_t stored = heap_size();
  if (stored >= kMinCompactSize && stored > 2 * ids_.size()) {
    if (backend_ == QueueBackend::kHeap)
      heap_compact();
    else
      wheel_compact();
  }
  return true;
}

void EventQueue::heap_compact() const {
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                             [this](const Entry& entry) {
                               return !ids_.contains(entry.id);
                             }),
              heap_.end());
  std::make_heap(heap_.begin(), heap_.end(), Later{});
}

void EventQueue::heap_drop_stale_head() const {
  while (!heap_.empty() && !ids_.contains(heap_.front().id)) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
}

SimTime EventQueue::next_time() const {
  if (backend_ == QueueBackend::kHeap) {
    heap_drop_stale_head();
    if (heap_.empty()) throw std::logic_error("EventQueue::next_time: queue is empty");
    return heap_.front().when;
  }
  const Entry* front = wheel_peek();
  if (front == nullptr) throw std::logic_error("EventQueue::next_time: queue is empty");
  return front->when;
}

bool EventQueue::pop_front(Entry* out) {
  if (backend_ == QueueBackend::kHeap) {
    heap_drop_stale_head();
    if (heap_.empty()) return false;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    *out = heap_.back();
    heap_.pop_back();
    return true;
  }
  if (wheel_peek() == nullptr) return false;
  *out = wheel_consume_front();
  return true;
}

bool EventQueue::run_next(SimTime* now_out) {
  Entry entry;
  if (!pop_front(&entry)) return false;
  // Copy the slot out before running: the callback may schedule new
  // events, which can reuse the cell or reallocate the slot table.
  const ActionTable::Slot slot = ids_.take(entry.id);
  last_popped_ = entry.when;
  if (now_out != nullptr) *now_out = entry.when;
  slot.fn(slot.ctx, slot.arg);
  return true;
}

// ---------------------------------------------------------------- wheel ----

void EventQueue::wheel_insert(Entry entry) {
  const std::uint64_t f = fine_index(entry.when);
  const std::uint64_t cascaded = coarse_cursor_ * kFineBuckets;
  if (f < cascaded) {
    // Behind an already-cascaded boundary: rung 0 territory. If it would
    // alias the ring (only reachable by peeking far ahead via next_time()
    // and then scheduling near the old clock), rebuild — cold path.
    if (f + kFineBuckets < cascaded) {
      wheel_rebuild(std::move(entry));
      return;
    }
    wheel_place_fine(std::move(entry));
    return;
  }
  const std::uint64_t c = f / kFineBuckets;
  if (c < coarse_cursor_ + kCoarseBuckets) {
    Bucket& bucket = coarse_[c % kCoarseBuckets];
    bucket.entries.push_back(std::move(entry));
    coarse_bit(c % kCoarseBuckets, true);
    ++coarse_count_;
  } else {
    heap_.push_back(std::move(entry));
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }
}

void EventQueue::wheel_place_fine(Entry entry) const {
  const std::uint64_t f = fine_index(entry.when);
  Bucket& bucket = fine_[f % kFineBuckets];
  bucket.entries.push_back(std::move(entry));
  fine_bit(f % kFineBuckets, true);
  if (bucket.entries.size() - bucket.pos > 1) bucket.sorted = false;
  ++fine_count_;
  if (f < fine_cursor_) fine_cursor_ = f;
}

EventQueue::Entry* EventQueue::wheel_peek() const {
  for (;;) {
    const std::uint64_t cascaded = coarse_cursor_ * kFineBuckets;
    // Rung 0: the earliest live entry sits in the first non-empty fine
    // bucket at or after the cursor, because buckets partition the time
    // axis monotonically and each bucket is sorted by (when, order) before
    // consumption — exactly the heap's pop order. The occupancy bitmap
    // jumps the cursor straight to that bucket; a skipped bucket stores
    // nothing at all, so skipping it cannot change the pop order.
    while (fine_count_ > 0 && fine_cursor_ < cascaded) {
      const std::uint64_t hop = next_occupied(
          fine_bits_, fine_cursor_ % kFineBuckets,
          std::min<std::uint64_t>(cascaded - fine_cursor_, kFineBuckets),
          kFineBuckets);
      if (hop == kNoBucket) {
        fine_cursor_ = cascaded;
        break;
      }
      fine_cursor_ += hop;
      Bucket& bucket = fine_[fine_cursor_ % kFineBuckets];
      if (!bucket.sorted) {
        std::sort(bucket.entries.begin() + static_cast<std::ptrdiff_t>(bucket.pos),
                  bucket.entries.end(), [](const Entry& a, const Entry& b) {
                    if (a.when != b.when) return a.when < b.when;
                    return a.order < b.order;
                  });
        bucket.sorted = true;
      }
      while (bucket.pos < bucket.entries.size() &&
             !ids_.contains(bucket.entries[bucket.pos].id)) {
        ++bucket.pos;
        --fine_count_;
      }
      if (bucket.pos == bucket.entries.size()) {
        reset_bucket(bucket, kBucketKeep);
        fine_bit(fine_cursor_ % kFineBuckets, false);
        ++fine_cursor_;
        continue;
      }
      return &bucket.entries[bucket.pos];
    }

    // Rung 0 is drained: cascade the earliest coarse range — from rung 1
    // or the overflow heap, whichever comes first — into rung 0.
    while (!heap_.empty() && !ids_.contains(heap_.front().id)) {
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      heap_.pop_back();
    }
    if (coarse_count_ == 0 && heap_.empty()) return nullptr;

    std::uint64_t coarse_next = kNoBucket;
    if (coarse_count_ > 0) {
      const std::uint64_t hop =
          next_occupied(coarse_bits_, coarse_cursor_ % kCoarseBuckets,
                        kCoarseBuckets, kCoarseBuckets);
      coarse_next = coarse_cursor_ + hop;  // hop valid: coarse_count_ > 0
    }
    const std::uint64_t heap_next =
        heap_.empty() ? kNoBucket : fine_index(heap_.front().when) / kFineBuckets;
    const std::uint64_t target = std::min(coarse_next, heap_next);

    if (coarse_next == target) {
      Bucket& bucket = coarse_[target % kCoarseBuckets];
      coarse_count_ -= bucket.entries.size();
      for (Entry& entry : bucket.entries) wheel_place_fine(std::move(entry));
      reset_bucket(bucket, 0);
      coarse_bit(target % kCoarseBuckets, false);
    }
    // Overflow entries in the same coarse range form the heap's top prefix
    // (everything earlier was drained by previous cascades).
    while (!heap_.empty() && fine_index(heap_.front().when) / kFineBuckets == target) {
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      wheel_place_fine(std::move(heap_.back()));
      heap_.pop_back();
    }
    coarse_cursor_ = target + 1;
    fine_cursor_ = target * kFineBuckets;
  }
}

EventQueue::Entry EventQueue::wheel_consume_front() {
  Bucket& bucket = fine_[fine_cursor_ % kFineBuckets];
  Entry entry = std::move(bucket.entries[bucket.pos]);
  ++bucket.pos;
  --fine_count_;
  if (bucket.pos == bucket.entries.size()) {
    reset_bucket(bucket, kBucketKeep);
    fine_bit(fine_cursor_ % kFineBuckets, false);
  }
  return entry;
}

void EventQueue::reset_bucket(Bucket& bucket, std::size_t keep) noexcept {
  if (bucket.entries.capacity() > keep)
    std::vector<Entry>().swap(bucket.entries);
  else
    bucket.entries.clear();
  bucket.pos = 0;
  bucket.sorted = true;
}

std::size_t EventQueue::footprint() const noexcept {
  std::size_t cells = ids_.capacity() + heap_.capacity();
  for (const Bucket& bucket : fine_) cells += bucket.entries.capacity();
  for (const Bucket& bucket : coarse_) cells += bucket.entries.capacity();
  return cells;
}

void EventQueue::wheel_rebuild(Entry extra) {
  std::vector<Entry> live;
  live.reserve(ids_.size());
  const auto take = [&](Entry& entry) {
    if (ids_.contains(entry.id)) live.push_back(std::move(entry));
  };
  const auto drain_ring = [&](std::vector<Bucket>& ring, std::size_t keep) {
    for (Bucket& bucket : ring) {
      for (std::size_t i = bucket.pos; i < bucket.entries.size(); ++i)
        take(bucket.entries[i]);
      reset_bucket(bucket, keep);
    }
  };
  drain_ring(fine_, kBucketKeep);
  drain_ring(coarse_, 0);
  std::fill(fine_bits_.begin(), fine_bits_.end(), 0);
  std::fill(coarse_bits_.begin(), coarse_bits_.end(), 0);
  for (Entry& entry : heap_) take(entry);
  heap_.clear();
  fine_count_ = coarse_count_ = 0;

  // Anchor the wheel at the new earliest entry; everything re-enters
  // through the normal insert path (all at or past the new boundary).
  SimTime lo = extra.when;
  for (const Entry& entry : live) lo = std::min(lo, entry.when);
  coarse_cursor_ = fine_index(lo) / kFineBuckets;
  fine_cursor_ = coarse_cursor_ * kFineBuckets;
  live.push_back(std::move(extra));
  for (Entry& entry : live) wheel_insert(std::move(entry));
}

void EventQueue::wheel_compact() {
  const auto dead = [this](const Entry& entry) { return !ids_.contains(entry.id); };
  const auto sweep_ring = [&](std::vector<Bucket>& ring, std::size_t& count,
                              std::size_t keep, auto&& clear_bit) {
    for (std::size_t slot = 0; slot < ring.size(); ++slot) {
      Bucket& bucket = ring[slot];
      if (bucket.entries.empty()) continue;
      const std::size_t before = bucket.entries.size() - bucket.pos;
      bucket.entries.erase(
          std::remove_if(bucket.entries.begin() + static_cast<std::ptrdiff_t>(bucket.pos),
                         bucket.entries.end(), dead),
          bucket.entries.end());
      count -= before - (bucket.entries.size() - bucket.pos);
      if (bucket.pos == bucket.entries.size()) {
        reset_bucket(bucket, keep);
        clear_bit(slot);
      }
    }
  };
  sweep_ring(fine_, fine_count_, kBucketKeep,
             [this](std::size_t slot) { fine_bit(slot, false); });
  sweep_ring(coarse_, coarse_count_, 0,
             [this](std::size_t slot) { coarse_bit(slot, false); });
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(), dead), heap_.end());
  std::make_heap(heap_.begin(), heap_.end(), Later{});
}

}  // namespace geomcast::sim
