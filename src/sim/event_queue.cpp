#include "sim/event_queue.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>

namespace geomcast::sim {

namespace {
/// Compaction floor: below this, lazy corpse-skipping is already cheap and
/// a rebuild would churn tiny queues for nothing. Also the consumed prefix
/// a lane may carry before it is shifted out.
constexpr std::size_t kMinCompactSize = 64;
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

EventQueue::Entry EventQueue::issue(SimTime when, std::function<void()> action) {
  if (when < last_popped_)
    throw std::invalid_argument("EventQueue::schedule: time is in the past");
  if (!action) throw std::invalid_argument("EventQueue::schedule: empty action");
  const EventId id = ids_.add(std::move(action));
  return Entry{when, /*order=*/ids_.issued(), id};
}

EventQueue::Entry EventQueue::issue(SimTime when, RawFn fn, void* ctx,
                                    std::uint64_t arg) {
  if (when < last_popped_)
    throw std::invalid_argument("EventQueue::schedule: time is in the past");
  if (fn == nullptr)
    throw std::invalid_argument("EventQueue::schedule: null callback");
  const EventId id = ids_.add(fn, ctx, arg);
  return Entry{when, /*order=*/ids_.issued(), id};
}

EventId EventQueue::schedule(SimTime when, std::function<void()> action) {
  const Entry entry = issue(when, std::move(action));
  push_heap(entry);
  return entry.id;
}

EventId EventQueue::schedule(SimTime when, RawFn fn, void* ctx, std::uint64_t arg) {
  const Entry entry = issue(when, fn, ctx, arg);
  push_heap(entry);
  return entry.id;
}

EventId EventQueue::schedule_after(SimTime now, SimTime delay,
                                   std::function<void()> action) {
  const Entry entry = issue(now + delay, std::move(action));
  place_after(delay, entry);
  return entry.id;
}

EventId EventQueue::schedule_after(SimTime now, SimTime delay, RawFn fn, void* ctx,
                                   std::uint64_t arg) {
  const Entry entry = issue(now + delay, fn, ctx, arg);
  place_after(delay, entry);
  return entry.id;
}

void EventQueue::push_heap(Entry entry) const {
  heap_.push_back(entry);
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void EventQueue::place_after(SimTime delay, Entry entry) {
  Lane* lane = nullptr;
  Lane* free_lane = nullptr;
  for (std::size_t i = 0; i < lanes_used_ && lane == nullptr; ++i) {
    if (lanes_[i].delay == delay)
      lane = &lanes_[i];
    else if (free_lane == nullptr && lanes_[i].drained())
      free_lane = &lanes_[i];
  }
  if (lane == nullptr) {
    if (free_lane == nullptr && lanes_used_ < kLanes) free_lane = &lanes_[lanes_used_++];
    if (free_lane == nullptr) {
      push_heap(entry);  // every lane serves another delay
      return;
    }
    lane = free_lane;
    lane->delay = delay;
  }
  // Only an entry not earlier than the tail keeps the lane sorted: order
  // grows with every issue, so `when` alone decides.
  if (!lane->drained() && entry.when < lane->entries.back().when) {
    push_heap(entry);
    return;
  }
  if (lane->pos >= kMinCompactSize && 2 * lane->pos >= lane->entries.size()) {
    lane->entries.erase(lane->entries.begin(),
                        lane->entries.begin() + static_cast<std::ptrdiff_t>(lane->pos));
    lane->pos = 0;
  }
  lane->entries.push_back(entry);
  ++lane_count_;
}

bool EventQueue::cancel(EventId id) {
  if (!ids_.erase(id)) return false;
  // Cancelled entries linger until they surface; under ack-heavy traffic
  // (every acked hop cancels its retransmit timer) they would dominate
  // storage and every operation would pay their cost. Compact once they
  // exceed half the stored entries: O(n) now, amortised O(1) per cancel.
  const std::size_t stored = heap_size();
  if (stored >= kMinCompactSize && stored > 2 * ids_.size()) compact();
  return true;
}

void EventQueue::compact() {
  // Consumed lane entries are dead too (their ids retired when they ran or
  // were skipped), so one sweep drops them with the corpses. The sweeps
  // are stable, so every lane stays sorted.
  const auto dead = [this](const Entry& entry) { return !ids_.contains(entry.id); };
  std::erase_if(heap_, dead);
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  lane_count_ = 0;
  for (std::size_t i = 0; i < lanes_used_; ++i) {
    Lane& lane = lanes_[i];
    std::erase_if(lane.entries, dead);
    lane.pos = 0;
    if (lane.drained()) reset_lane(lane);
    lane_count_ += lane.entries.size();
  }
}

void EventQueue::pop_heap_front() const {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
}

void EventQueue::consume(Lane& lane) const noexcept {
  // Step past the head and every cancelled entry behind it, so the new
  // head is live as it is exposed: an acked hop's timer costs this one
  // check instead of a front() pass when it would have surfaced.
  do {
    ++lane.pos;
    --lane_count_;
  } while (!lane.drained() && !ids_.contains(lane.entries[lane.pos].id));
  if (lane.drained()) reset_lane(lane);
}

void EventQueue::reset_lane(Lane& lane) const noexcept {
  if (lane.entries.capacity() > kLaneKeep)
    std::vector<Entry>().swap(lane.entries);
  else
    lane.entries.clear();
  lane.pos = 0;
}

const EventQueue::Entry* EventQueue::front(Lane** lane_out) const {
  // Each lane is sorted, so the global (when, order) minimum is the least
  // of the heap front and the lane heads. Only that minimum's liveness is
  // checked: a dead one is dropped and the search repeats. consume() keeps
  // lane heads live as it exposes them, so the repeat pass is paid by heap
  // corpses and by heads cancelled after they were exposed.
  for (;;) {
    const Entry* best = heap_.empty() ? nullptr : &heap_.front();
    Lane* best_lane = nullptr;
    for (std::size_t i = 0; i < lanes_used_; ++i) {
      Lane& lane = lanes_[i];
      if (lane.drained()) continue;
      const Entry& head = lane.entries[lane.pos];
      if (best == nullptr || Later{}(*best, head)) {
        best = &head;
        best_lane = &lane;
      }
    }
    if (best == nullptr || ids_.contains(best->id)) {
      *lane_out = best_lane;
      return best;
    }
    if (best_lane == nullptr)
      pop_heap_front();
    else
      consume(*best_lane);
  }
}

SimTime EventQueue::next_time() const {
  Lane* lane = nullptr;
  const Entry* best = front(&lane);
  if (best == nullptr) throw std::logic_error("EventQueue::next_time: queue is empty");
  return best->when;
}

bool EventQueue::pop_front(Entry* out) {
  Lane* lane = nullptr;
  const Entry* best = front(&lane);
  if (best == nullptr) return false;
  *out = *best;
  if (lane == nullptr)
    pop_heap_front();
  else
    consume(*lane);
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

std::size_t EventQueue::footprint() const noexcept {
  std::size_t cells = ids_.capacity() + heap_.capacity();
  for (const Lane& lane : lanes_) cells += lane.entries.capacity();
  return cells;
}

}  // namespace geomcast::sim
