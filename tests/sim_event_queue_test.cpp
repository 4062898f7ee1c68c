#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace geomcast::sim {
namespace {

TEST(EventQueueTest, EmptyInitially) {
  EventQueue queue;
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.pending(), 0u);
  EXPECT_FALSE(queue.run_next());
}

TEST(EventQueueTest, RunsInTimeOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.schedule(3.0, [&] { order.push_back(3); });
  queue.schedule(1.0, [&] { order.push_back(1); });
  queue.schedule(2.0, [&] { order.push_back(2); });
  while (queue.run_next()) {}
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, TiesBreakByInsertionOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.schedule(5.0, [&] { order.push_back(1); });
  queue.schedule(5.0, [&] { order.push_back(2); });
  queue.schedule(5.0, [&] { order.push_back(3); });
  while (queue.run_next()) {}
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, NextTimeReportsEarliest) {
  EventQueue queue;
  queue.schedule(9.0, [] {});
  queue.schedule(4.0, [] {});
  EXPECT_DOUBLE_EQ(queue.next_time(), 4.0);
}

TEST(EventQueueTest, NextTimeOnEmptyThrows) {
  EventQueue queue;
  EXPECT_THROW((void)queue.next_time(), std::logic_error);
}

TEST(EventQueueTest, CancelPreventsExecution) {
  EventQueue queue;
  bool ran = false;
  const auto id = queue.schedule(1.0, [&] { ran = true; });
  EXPECT_TRUE(queue.cancel(id));
  while (queue.run_next()) {}
  EXPECT_FALSE(ran);
}

TEST(EventQueueTest, CancelTwiceFails) {
  EventQueue queue;
  const auto id = queue.schedule(1.0, [] {});
  EXPECT_TRUE(queue.cancel(id));
  EXPECT_FALSE(queue.cancel(id));
}

TEST(EventQueueTest, CancelAfterRunFails) {
  EventQueue queue;
  const auto id = queue.schedule(1.0, [] {});
  EXPECT_TRUE(queue.run_next());
  EXPECT_FALSE(queue.cancel(id));
}

TEST(EventQueueTest, CancelUnknownIdFails) {
  EventQueue queue;
  EXPECT_FALSE(queue.cancel(999));
  EXPECT_FALSE(queue.cancel(0));
}

TEST(EventQueueTest, ActionsCanScheduleMoreEvents) {
  EventQueue queue;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 5) queue.schedule(queue.last_popped_time() + 1.0, chain);
  };
  queue.schedule(0.0, chain);
  while (queue.run_next()) {}
  EXPECT_EQ(fired, 5);
  EXPECT_DOUBLE_EQ(queue.last_popped_time(), 4.0);
}

TEST(EventQueueTest, SchedulingInThePastThrows) {
  EventQueue queue;
  queue.schedule(10.0, [] {});
  EXPECT_TRUE(queue.run_next());
  EXPECT_THROW(queue.schedule(5.0, [] {}), std::invalid_argument);
}

TEST(EventQueueTest, EmptyActionThrows) {
  EventQueue queue;
  EXPECT_THROW(queue.schedule(1.0, std::function<void()>{}), std::invalid_argument);
}

TEST(EventQueueTest, PendingCountsLiveEventsOnly) {
  EventQueue queue;
  const auto a = queue.schedule(1.0, [] {});
  queue.schedule(2.0, [] {});
  EXPECT_EQ(queue.pending(), 2u);
  queue.cancel(a);
  EXPECT_EQ(queue.pending(), 1u);
  queue.run_next();
  EXPECT_EQ(queue.pending(), 0u);
}

TEST(EventQueueTest, CancelHeavyHeapIsCompacted) {
  // Every acked hop cancels its retransmit timer, so reliable traffic
  // cancels most of what it schedules; the heap must shed those corpses
  // instead of carrying them until they surface.
  EventQueue queue;
  std::vector<EventId> ids;
  for (int i = 0; i < 1024; ++i)
    ids.push_back(queue.schedule(1.0 + 0.001 * i, [] {}));
  for (std::size_t i = 0; i < ids.size(); ++i)
    if (i % 8 != 0) queue.cancel(ids[i]);  // 7/8 cancelled
  EXPECT_EQ(queue.pending(), 128u);
  // Compaction invariant: stale entries never exceed live ones (plus the
  // small floor below which compaction does not bother).
  EXPECT_LE(queue.heap_size(), std::max<std::size_t>(2 * queue.pending(), 64));
  // The survivors still fire, in time order.
  std::size_t fired = 0;
  double last = 0.0;
  while (queue.run_next()) {
    ++fired;
    EXPECT_GE(queue.last_popped_time(), last);
    last = queue.last_popped_time();
  }
  EXPECT_EQ(fired, 128u);
}

TEST(EventQueueTest, CompactionPreservesTieBreakOrder) {
  // Simultaneous events must still run in scheduling order after the heap
  // was rebuilt around their cancelled neighbours.
  EventQueue queue;
  std::vector<int> order;
  std::vector<EventId> doomed;
  for (int i = 0; i < 200; ++i) {
    const int tag = i;
    queue.schedule(1.0, [&order, tag] { order.push_back(tag); });
    doomed.push_back(queue.schedule(1.0, [] {}));
  }
  for (const EventId id : doomed) queue.cancel(id);
  while (queue.run_next()) {}
  ASSERT_EQ(order.size(), 200u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

TEST(EventQueueTest, CancelledHeadSkippedTransparently) {
  EventQueue queue;
  std::vector<int> order;
  const auto first = queue.schedule(1.0, [&] { order.push_back(1); });
  queue.schedule(2.0, [&] { order.push_back(2); });
  queue.cancel(first);
  EXPECT_DOUBLE_EQ(queue.next_time(), 2.0);
  while (queue.run_next()) {}
  EXPECT_EQ(order, (std::vector<int>{2}));
}

// ---- slot reuse ------------------------------------------------------------
// Action slots are recycled under a bumped generation, so an id that
// already fired or was cancelled must never reach the slot's new occupant.

std::uint64_t slot_of(EventId id) { return id & 0xFFFFFFFFu; }

TEST(EventQueueSlotReuse, FiredIdDoesNotCancelTheSlotsNextEvent) {
  EventQueue queue;
  const EventId fired = queue.schedule(1.0, [] {});
  ASSERT_TRUE(queue.run_next());
  bool ran = false;
  const EventId next = queue.schedule(2.0, [&] { ran = true; });
  ASSERT_EQ(slot_of(next), slot_of(fired));  // the slot was recycled
  EXPECT_NE(next, fired);
  EXPECT_FALSE(queue.cancel(fired));
  EXPECT_EQ(queue.pending(), 1u);
  EXPECT_TRUE(queue.run_next());
  EXPECT_TRUE(ran);
  EXPECT_FALSE(queue.cancel(next));
}

TEST(EventQueueSlotReuse, CancelledIdDoesNotTouchTheSlotsNextEvent) {
  EventQueue queue;
  bool stale_ran = false;
  int fresh_runs = 0;
  const EventId cancelled = queue.schedule(1.0, [&] { stale_ran = true; });
  ASSERT_TRUE(queue.cancel(cancelled));
  // Same time: the reused slot's new entry sits right next to the
  // cancelled entry, which still lingers in the heap.
  const EventId next = queue.schedule(1.0, [&] { ++fresh_runs; });
  ASSERT_EQ(slot_of(next), slot_of(cancelled));
  EXPECT_FALSE(queue.cancel(cancelled));
  EXPECT_EQ(queue.pending(), 1u);
  while (queue.run_next()) {}
  EXPECT_FALSE(stale_ran);
  EXPECT_EQ(fresh_runs, 1);
  EXPECT_TRUE(queue.empty());
}

TEST(EventQueueSlotReuse, ZeroAndNeverIssuedIdsDoNotCancel) {
  EventQueue queue;
  EXPECT_FALSE(queue.cancel(0));
  const EventId live = queue.schedule(1.0, [] {});
  EXPECT_FALSE(queue.cancel(0));
  EXPECT_FALSE(queue.cancel(slot_of(live)));                   // generation 0
  EXPECT_FALSE(queue.cancel(live + (EventId{1} << 32)));       // future generation
  EXPECT_FALSE(queue.cancel((EventId{1} << 32) | 7));          // slot never made
  EXPECT_FALSE(queue.cancel(~EventId{0}));
  EXPECT_EQ(queue.pending(), 1u);
  EXPECT_TRUE(queue.cancel(live));
}

TEST(EventQueueSlotReuse, TiesBreakByInsertionOrderAcrossReusedSlots) {
  // A reused slot's id carries a newer generation, so ids no longer sort
  // in insertion order; the tie-break must still follow insertion.
  EventQueue queue;
  std::vector<int> order;
  const EventId a = queue.schedule(1.0, [] {});
  const EventId b = queue.schedule(1.0, [] {});
  ASSERT_TRUE(queue.cancel(b));
  ASSERT_TRUE(queue.run_next());
  // Slot of `a` is on top of the free list, then the slot of `b`.
  const EventId first = queue.schedule(5.0, [&] { order.push_back(1); });
  const EventId second = queue.schedule(5.0, [&] { order.push_back(2); });
  const EventId third = queue.schedule(5.0, [&] { order.push_back(3); });
  ASSERT_EQ(slot_of(first), slot_of(a));
  ASSERT_EQ(slot_of(second), slot_of(b));
  ASSERT_GT(first, third);  // id order and insertion order disagree
  while (queue.run_next()) {}
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

void noop(void* /*ctx*/, std::uint64_t /*arg*/) {}

TEST(EventQueueSlotReuse, SaturatedSlotIsRetiredNotReused) {
  // One event at a time reuses slot 0 under generations 1, 2, ...; once the
  // generation would leave its 24 bits the slot is retired for good.
  EventQueue queue;
  constexpr std::uint64_t kGenerations =
      (std::uint64_t{1} << EventQueue::kGenerationBits) - 1;
  EventId id = 0;
  for (std::uint64_t i = 0; i < kGenerations; ++i) {
    id = queue.schedule(1.0, &noop, nullptr, 0);
    ASSERT_EQ(slot_of(id), 0u);
    ASSERT_TRUE(queue.cancel(id));
  }
  EXPECT_EQ(id >> 32, kGenerations);
  const EventId after = queue.schedule(1.0, &noop, nullptr, 0);
  EXPECT_EQ(slot_of(after), 1u);
  EXPECT_FALSE(queue.cancel(id));
  EXPECT_TRUE(queue.cancel(after));
}

// ---- storage ---------------------------------------------------------------

/// `kChains` reliable hops in flight, each delivery cancelling its own
/// retransmit timer and sending the next hop with a fresh timer — the
/// ack-heavy shape that issues ids far faster than it keeps events live.
/// Hops take one of five constant delays and timers one more, so both ride
/// the FIFO lanes, as the simulator's deliveries and hop timers do.
struct HopChains {
  static constexpr std::size_t kChains = 32;
  EventQueue* queue = nullptr;
  util::Rng rng{1};
  std::size_t fired = 0;
  std::size_t peak_pending = 0;
  bool stopped = false;
  EventId timers[kChains] = {};

  void send(std::size_t chain) {
    const SimTime now = queue->last_popped_time();
    const SimTime hop = 0.001 + 0.01 * static_cast<double>(rng.next_below(5));
    queue->schedule_after(now, hop, &HopChains::deliver, this, chain);
    timers[chain] = queue->schedule_after(now, 0.25, &noop, nullptr, 0);
    peak_pending = std::max(peak_pending, queue->pending());
  }
  static void deliver(void* ctx, std::uint64_t chain) {
    auto* self = static_cast<HopChains*>(ctx);
    ++self->fired;
    EXPECT_TRUE(self->queue->cancel(self->timers[chain]));
    if (!self->stopped) self->send(chain);
  }
};

TEST(EventQueueStorage, FootprintFollowsLiveEventsNotIdsIssued) {
  EventQueue queue;
  // Booked first and pending throughout: the oldest id never retires.
  bool far_ran = false;
  queue.schedule(1e6, [&] { far_ran = true; });
  HopChains chains;
  chains.queue = &queue;
  for (std::size_t c = 0; c < HopChains::kChains; ++c) chains.send(c);
  std::size_t max_footprint = 0;
  while (chains.fired < 1'000'000) {
    ASSERT_TRUE(queue.run_next());
    if ((chains.fired & 0xFFF) == 0)
      max_footprint = std::max(max_footprint, queue.footprint());
  }
  max_footprint = std::max(max_footprint, queue.footprint());
  // ~2M ids issued and 1M cancelled, never more than 65 live at once.
  EXPECT_LE(chains.peak_pending, 2 * HopChains::kChains + 1);
  EXPECT_LE(max_footprint, 4096u);

  chains.stopped = true;
  while (queue.run_next()) {}
  EXPECT_TRUE(far_ran);
}

TEST(EventQueueStorage, DrainedLanesGiveTheirStorageBack) {
  // A one-off burst onto two lanes, each past kLaneKeep entries: once both
  // drain, only the slot table remembers the burst.
  EventQueue queue;
  constexpr int kBurst = 1500;
  static_assert(kBurst > EventQueue::kLaneKeep);
  for (int i = 0; i < kBurst; ++i) queue.schedule_after(0.001 * i, 0.25, &noop, nullptr, 0);
  for (int i = 0; i < kBurst; ++i) queue.schedule_after(0.001 * i, 0.5, &noop, nullptr, 0);
  EXPECT_EQ(queue.heap_size(), 2u * kBurst);
  EXPECT_GE(queue.footprint(), 4u * kBurst);
  while (queue.run_next()) {}
  EXPECT_LE(queue.footprint(), 4096u);
}

}  // namespace
}  // namespace geomcast::sim
