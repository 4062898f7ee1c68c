// The event queue's FIFO lanes must reproduce a plain (time, insertion
// order) sort exactly, whatever the caller passes: these tests drive
// schedule_after() (lanes), schedule() (heap) and cancel() against a
// test-local sorted reference, and pin the lane-specific edge paths —
// inserts behind a lane's tail, more delays than lanes, cross-path ties,
// cancelled lane heads, cancelled runs behind a head, and compaction under
// a cancel-heavy lane.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "util/rng.hpp"

namespace geomcast::sim {
namespace {

using PopLog = std::vector<std::pair<SimTime, int>>;

// Times and delays on a 1/64 grid add exactly, so lane entries, heap
// entries and peeks tie often and exactly.
constexpr double kGrid = 1.0 / 64.0;

/// The queue under test plus a std::map reference keyed by (when, test's
/// own schedule sequence): the reference's first key is, by definition,
/// the event that must pop next.
class Differential {
 public:
  using Key = std::pair<SimTime, std::uint64_t>;

  EventQueue queue;

  void after(SimTime now, SimTime delay) {
    track(now + delay, queue.schedule_after(now, delay, &Differential::record, this,
                                            static_cast<std::uint64_t>(next_tag_)));
  }
  void at(SimTime when) {
    track(when, queue.schedule(when, &Differential::record, this,
                               static_cast<std::uint64_t>(next_tag_)));
  }
  /// Cancels the event scheduled as `tag`, live or not.
  void cancel_tag(int tag) {
    const auto it = live_.find(tag);
    const bool live = it != live_.end();
    ASSERT_EQ(queue.cancel(ids_[static_cast<std::size_t>(tag)]), live) << "tag " << tag;
    if (!live) return;
    reference_.erase(it->second);
    live_.erase(it);
  }
  void cancel_earliest() {
    if (!reference_.empty()) cancel_tag(reference_.begin()->second);
  }
  void peek() {
    if (reference_.empty()) {
      EXPECT_THROW(static_cast<void>(queue.next_time()), std::logic_error);
      return;
    }
    ASSERT_EQ(queue.next_time(), reference_.begin()->first.first);
  }
  /// Pops one event from both and checks they agree.
  void pop() {
    if (reference_.empty()) {
      ASSERT_FALSE(queue.run_next());
      return;
    }
    const auto [key, tag] = *reference_.begin();
    reference_.erase(reference_.begin());
    live_.erase(tag);
    ASSERT_TRUE(queue.run_next());
    ASSERT_EQ(last_ran_, tag) << "at t=" << key.first;
    ASSERT_EQ(queue.last_popped_time(), key.first);
  }
  void drain() {
    while (!reference_.empty()) {
      pop();
      if (::testing::Test::HasFatalFailure()) return;
    }
    EXPECT_FALSE(queue.run_next());
    EXPECT_TRUE(queue.empty());
  }

  [[nodiscard]] int tags_issued() const { return next_tag_; }

 private:
  static void record(void* ctx, std::uint64_t tag) {
    static_cast<Differential*>(ctx)->last_ran_ = static_cast<int>(tag);
  }
  void track(SimTime when, EventId id) {
    const Key key{when, sequence_++};
    reference_.emplace(key, next_tag_);
    live_.emplace(next_tag_, key);
    ids_.push_back(id);
    ++next_tag_;
    ASSERT_EQ(queue.pending(), reference_.size());
  }

  std::map<Key, int> reference_;
  std::unordered_map<int, Key> live_;
  std::vector<EventId> ids_;
  std::uint64_t sequence_ = 0;
  int next_tag_ = 0;
  int last_ran_ = -1;
};

/// The smallest grid time not before `t`.
SimTime grid_ceil(SimTime t) { return std::ceil(t / kGrid) * kGrid; }

TEST(SimEventLanes, RandomizedScheduleMatchesSortedReference) {
  // Three hot delays (the latency / ack-timeout shape), twelve cold ones —
  // more distinct delays than there are lanes, as uniform latency makes —
  // and some off-grid random delays.
  const std::vector<double> hot = {kGrid, 3 * kGrid, 1.0};
  std::vector<double> cold;
  for (int k = 0; k < 12; ++k) cold.push_back((5 + 7 * k) * kGrid);
  static_assert(EventQueue::kLanes < 3 + 12);

  for (std::uint64_t seed : {1ULL, 7ULL, 42ULL}) {
    SCOPED_TRACE(seed);
    Differential diff;
    util::Rng rng(seed);
    for (int step = 0; step < 6000; ++step) {
      const SimTime now = diff.queue.last_popped_time();
      const double roll = rng.next_double();
      if (roll < 0.22) {
        diff.after(now, hot[rng.next_below(hot.size())]);
      } else if (roll < 0.28) {
        // A clock a little ahead of, then behind, earlier callers: the
        // entry may land behind its lane's tail and must go to the heap.
        diff.after(now + kGrid * static_cast<double>(rng.next_below(8)),
                   hot[rng.next_below(hot.size())]);
      } else if (roll < 0.34) {
        diff.after(now, cold[rng.next_below(cold.size())]);
      } else if (roll < 0.36) {
        diff.after(now, rng.uniform(0.0, 0.5));
      } else if (roll < 0.42) {
        diff.at(grid_ceil(now) + kGrid * static_cast<double>(rng.next_below(96)));
      } else if (roll < 0.44) {
        // One instant reached three ways: the insertion order decides.
        const SimTime base = grid_ceil(now);
        diff.after(base + 1.0, 0.5);
        diff.after(base + 0.5, 1.0);
        diff.at(base + 1.5);
      } else if (roll < 0.50) {
        // Any tag ever issued: live, fired or already cancelled.
        if (diff.tags_issued() > 0)
          diff.cancel_tag(static_cast<int>(
              rng.next_below(static_cast<std::uint64_t>(diff.tags_issued()))));
      } else if (roll < 0.52) {
        diff.cancel_earliest();  // most often a lane head
      } else if (roll < 0.55) {
        diff.peek();
      } else {
        diff.pop();
      }
      if (HasFatalFailure()) return;

      if (step % 1500 == 749) {
        // Cancel-heavy lane: a long run on one delay, 7/8 of it cancelled
        // (the acked-hop timer shape), then compaction must have run.
        const int first = diff.tags_issued();
        const SimTime base = diff.queue.last_popped_time();
        for (int i = 0; i < 1024; ++i) diff.after(base + i * kGrid / 32, hot[2]);
        for (int i = 0; i < 1024; ++i)
          if (i % 8 != 0) diff.cancel_tag(first + i);
        EXPECT_LE(diff.queue.heap_size(),
                  std::max<std::size_t>(2 * diff.queue.pending(), 64));
        if (HasFatalFailure()) return;
      }
    }
    diff.drain();
  }
}

TEST(SimEventLanes, LaneInsertBehindTheTailGoesToTheHeap) {
  Differential diff;
  diff.after(1.0, 0.5);   // lane 0.5, tail 1.5
  diff.after(0.75, 0.5);  // 1.25: behind the tail
  diff.after(1.25, 0.5);  // 1.75: in order again
  diff.after(0.5, 0.5);   // 1.0: behind again
  diff.peek();
  diff.drain();
}

TEST(SimEventLanes, TiesAcrossPathsPopInInsertionOrder) {
  EventQueue queue;
  PopLog log;
  // 1.5 reached by two lanes, the heap and a third lane; then a later
  // lane entry and heap entry at the same instant again.
  const auto push = [&log](int tag) { return [&log, tag] { log.emplace_back(1.5, tag); }; };
  queue.schedule_after(1.0, 0.5, push(0));
  queue.schedule_after(0.5, 1.0, push(1));
  queue.schedule(1.5, push(2));
  queue.schedule_after(0.0, 1.5, push(3));
  queue.schedule(1.5, push(4));
  queue.schedule_after(1.0, 0.5, push(5));
  queue.schedule_after(0.5, 1.0, push(6));
  while (queue.run_next()) {
  }
  const PopLog expected = {{1.5, 0}, {1.5, 1}, {1.5, 2}, {1.5, 3},
                           {1.5, 4}, {1.5, 5}, {1.5, 6}};
  EXPECT_EQ(log, expected);
}

TEST(SimEventLanes, TiesPopInInsertionOrder) {
  EventQueue queue;
  PopLog log;
  for (int i = 0; i < 8; ++i)
    queue.schedule_after(3.0, 0.125, [&log, i] { log.emplace_back(3.125, i); });
  while (queue.run_next()) {
  }
  const PopLog expected = {{3.125, 0}, {3.125, 1}, {3.125, 2}, {3.125, 3},
                           {3.125, 4}, {3.125, 5}, {3.125, 6}, {3.125, 7}};
  EXPECT_EQ(log, expected);
}

TEST(SimEventLanes, MidRunReschedulingMatchesTheHeapPath) {
  // Actions that schedule follow-ups (the retransmit-timer pattern) must
  // interleave identically whether the follow-ups ride lanes or the heap.
  PopLog logs[2];
  for (int path = 0; path < 2; ++path) {
    EventQueue queue;
    util::Rng rng(99);
    std::function<void(int, double)> chain = [&](int depth, double at) {
      logs[path].emplace_back(at, depth);
      if (depth < 6) {
        const double delay = 0.05 * static_cast<double>(1 + rng.next_below(12));
        const double next = at + delay;
        auto action = [&chain, depth, next] { chain(depth + 1, next); };
        if (path == 0)
          queue.schedule(next, action);
        else
          queue.schedule_after(at, delay, action);
      }
    };
    for (int i = 0; i < 64; ++i) {
      const double at = rng.uniform(0.0, 2.0);
      queue.schedule(at, [&chain, at] { chain(0, at); });
    }
    while (queue.run_next()) {
    }
  }
  EXPECT_EQ(logs[0], logs[1]);
}

TEST(SimEventLanes, ScheduleAfterAPeekStillPopsInOrder) {
  // next_time() drops dead lane heads; a later schedule before the peeked
  // front must still pop first.
  EventQueue queue;
  PopLog log;
  const EventId dead = queue.schedule_after(0.0, 0.25, [&log] { log.emplace_back(0.25, -1); });
  queue.schedule_after(0.0, 500.0, [&log] { log.emplace_back(500.0, 1); });
  ASSERT_TRUE(queue.cancel(dead));
  EXPECT_DOUBLE_EQ(queue.next_time(), 500.0);
  queue.schedule_after(0.0, 0.25, [&log] { log.emplace_back(0.25, 0); });
  queue.schedule(499.0, [&log] { log.emplace_back(499.0, 2); });
  EXPECT_DOUBLE_EQ(queue.next_time(), 0.25);
  while (queue.run_next()) {
  }
  const PopLog expected = {{0.25, 0}, {499.0, 2}, {500.0, 1}};
  EXPECT_EQ(log, expected);
}

TEST(SimEventLanes, CancelHeavyLaneIsCompacted) {
  EventQueue queue;
  std::vector<EventId> ids;
  std::vector<SimTime> fired;
  for (int i = 0; i < 4096; ++i)
    ids.push_back(queue.schedule_after(0.001 * i, 0.25, [&queue, &fired] {
      fired.push_back(queue.last_popped_time());
    }));
  for (std::size_t i = 0; i < ids.size(); ++i)
    if (i % 8 != 0) queue.cancel(ids[i]);  // 7/8 cancelled
  EXPECT_EQ(queue.pending(), 512u);
  // Same invariant as the heap: corpses never exceed half the stored
  // entries (plus the small floor).
  EXPECT_LE(queue.heap_size(), std::max<std::size_t>(2 * queue.pending(), 64));
  while (queue.run_next()) {
  }
  ASSERT_EQ(fired.size(), 512u);
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
  EXPECT_EQ(fired.front(), 0.001 * 0 + 0.25);
  EXPECT_EQ(fired.back(), 0.001 * 4088 + 0.25);
}

TEST(SimEventLanes, CancelledRunBehindTheHeadIsSkippedOnConsume) {
  // Ten entries on one lane, the five behind the head cancelled: too few
  // for compaction, so only the lane pop can drop them.
  EventQueue queue;
  std::vector<EventId> ids;
  std::vector<int> ran;
  for (int i = 0; i < 10; ++i)
    ids.push_back(queue.schedule_after(0.125 * i, 1.0, [&ran, i] { ran.push_back(i); }));
  for (std::size_t i = 1; i <= 5; ++i) ASSERT_TRUE(queue.cancel(ids[i]));
  EXPECT_EQ(queue.heap_size(), 10u);
  EXPECT_EQ(queue.pending(), 5u);
  ASSERT_TRUE(queue.run_next());
  EXPECT_EQ(ran, std::vector<int>{0});
  // The pop stepped over the cancelled run: no corpse stays stored.
  EXPECT_EQ(queue.heap_size(), queue.pending());
  EXPECT_EQ(queue.next_time(), 0.125 * 6 + 1.0);
  while (queue.run_next()) {
  }
  EXPECT_EQ(ran, (std::vector<int>{0, 6, 7, 8, 9}));
  EXPECT_EQ(queue.heap_size(), 0u);
}

TEST(SimEventLanes, ErrorsMatchTheHeapPath) {
  EventQueue queue;
  EXPECT_THROW(static_cast<void>(queue.next_time()), std::logic_error);
  EXPECT_FALSE(queue.run_next());
  EXPECT_THROW(queue.schedule_after(0.0, 1.0, std::function<void()>{}),
               std::invalid_argument);
  EXPECT_THROW(queue.schedule_after(0.0, 1.0, nullptr, nullptr, 0), std::invalid_argument);
  queue.schedule_after(0.0, 1.0, [] {});
  EXPECT_TRUE(queue.run_next());
  EXPECT_THROW(queue.schedule_after(0.25, 0.5, [] {}), std::invalid_argument);  // in the past
  EXPECT_FALSE(queue.cancel(12345));
  EXPECT_TRUE(queue.empty());
}

TEST(SimEventLanes, ReschedulingAtLastPoppedTimeIsAllowed) {
  EventQueue queue;
  PopLog log;
  queue.schedule_after(0.5, 0.5, [&] {
    log.emplace_back(1.0, 0);
    // Same instant, on a zero-delay lane behind nothing.
    queue.schedule_after(queue.last_popped_time(), 0.0,
                         [&log] { log.emplace_back(1.0, 1); });
  });
  while (queue.run_next()) {
  }
  const PopLog expected = {{1.0, 0}, {1.0, 1}};
  EXPECT_EQ(log, expected);
}

}  // namespace
}  // namespace geomcast::sim
