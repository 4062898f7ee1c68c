// QoS 2 battery: unit tests for the pure subscriber-side machinery
// (SubscriberWindow sequencing, RetainedBuffer eviction) plus end-to-end
// scenarios on the simulated network — NACK batching and its deferral to
// in-flight per-hop recovery, and the headline case: a forwarder killed
// mid-wave loses its whole subtree under QoS 1 while QoS 2 repairs it from
// retained copies up the ancestor chain. The seeded sweep runs several
// full simulations and is labelled `slow` in ctest.
#include "groups/pubsub.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <random>
#include <vector>

#include "groups/failure_injection.hpp"
#include "groups_test_util.hpp"

namespace geomcast::groups {
namespace {

using testutil::find_leaf_subscriber;
using testutil::make_overlay;
using testutil::subscribe_members;
using testutil::tag_of;
using testutil::WavePool;

// ---------------------------------------------------------------- window ----

TEST(SubscriberWindowTest, ContiguousArrivalsReleaseImmediately) {
  SubscriberWindow window;
  EXPECT_FALSE(window.initialized());
  for (std::uint64_t seq = 0; seq < 4; ++seq) {
    const auto arrival = window.observe(seq);
    EXPECT_TRUE(arrival.pre_window.empty());
    EXPECT_TRUE(arrival.new_gaps.empty());
    ASSERT_EQ(arrival.released.size(), 1u);
    EXPECT_EQ(arrival.released[0], seq);
  }
  EXPECT_TRUE(window.initialized());
  EXPECT_EQ(window.next_expected(), 4u);
  EXPECT_EQ(window.gap_count(), 0u);
  EXPECT_EQ(window.held_count(), 0u);
}

TEST(SubscriberWindowTest, OutOfOrderArrivalIsHeldAndReleasedInOrder) {
  SubscriberWindow window;
  (void)window.observe(0);
  auto arrival = window.observe(2);  // 1 goes missing
  EXPECT_EQ(arrival.new_gaps, (std::vector<std::uint64_t>{1}));
  EXPECT_TRUE(arrival.released.empty());
  EXPECT_TRUE(window.is_gap(1));
  EXPECT_EQ(window.held_count(), 1u);

  arrival = window.observe(3);  // still blocked, no new gaps
  EXPECT_TRUE(arrival.new_gaps.empty());
  EXPECT_TRUE(arrival.released.empty());

  arrival = window.observe(1);  // the gap fills: everything releases in order
  EXPECT_EQ(arrival.released, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(window.next_expected(), 4u);
  EXPECT_EQ(window.gap_count(), 0u);
  EXPECT_EQ(window.held_count(), 0u);
}

TEST(SubscriberWindowTest, InitializesAtFirstSeqAndFlagsPreWindowArrivals) {
  SubscriberWindow window;
  auto arrival = window.observe(10);  // late joiner: no NACKs for 0..9
  EXPECT_TRUE(arrival.pre_window.empty());
  EXPECT_TRUE(arrival.new_gaps.empty());
  EXPECT_EQ(arrival.released, (std::vector<std::uint64_t>{10}));
  EXPECT_EQ(window.next_expected(), 11u);

  arrival = window.observe(9);  // init race: released out of band
  EXPECT_EQ(arrival.pre_window, (std::vector<std::uint64_t>{9}));
  EXPECT_TRUE(arrival.released.empty());
  EXPECT_EQ(window.next_expected(), 11u);  // window untouched
}

TEST(SubscriberWindowTest, AbandonSkipsHeadGapAndReleasesRun) {
  SubscriberWindow window;
  (void)window.observe(0);
  (void)window.observe(2);
  (void)window.observe(3);
  (void)window.observe(5);  // gaps {1, 4}, held {2, 3, 5}
  EXPECT_EQ(window.gap_count(), 2u);

  EXPECT_EQ(window.abandon(1), (std::vector<std::uint64_t>{2, 3}));
  EXPECT_EQ(window.next_expected(), 4u);
  EXPECT_EQ(window.abandon(4), (std::vector<std::uint64_t>{5}));
  EXPECT_EQ(window.next_expected(), 6u);
  EXPECT_EQ(window.gap_count(), 0u);
  EXPECT_EQ(window.held_count(), 0u);
}

TEST(SubscriberWindowTest, AbandonedNonHeadGapIsSkippedWhenTheHeadPasses) {
  SubscriberWindow window;
  (void)window.observe(0);
  (void)window.observe(2);
  (void)window.observe(4);  // gaps {1, 3}
  EXPECT_TRUE(window.abandon(3).empty());  // non-head: nothing released yet
  // Filling the head gap releases 2, silently passes the abandoned 3, and
  // releases 4.
  const auto arrival = window.observe(1);
  EXPECT_EQ(arrival.released, (std::vector<std::uint64_t>{1, 2, 4}));
  EXPECT_EQ(window.next_expected(), 5u);
}

TEST(SubscriberWindowTest, ReorderBoundForceAbandonsOldestGaps) {
  SubscriberWindow window(/*reorder_limit=*/2);
  (void)window.observe(0);
  (void)window.observe(2);
  auto arrival = window.observe(3);  // held {2, 3}: at the limit
  EXPECT_TRUE(arrival.forced_abandoned.empty());
  arrival = window.observe(4);  // held would be 3: gap 1 is given up
  EXPECT_EQ(arrival.forced_abandoned, (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(arrival.released, (std::vector<std::uint64_t>{2, 3, 4}));
  EXPECT_EQ(window.next_expected(), 5u);
  EXPECT_EQ(window.gap_count(), 0u);
}

TEST(SubscriberWindowTest, ObservingAnAbandonedSeqLaterIsPreWindow) {
  SubscriberWindow window;
  (void)window.observe(0);
  (void)window.observe(2);
  (void)window.abandon(1);  // head skips to 3
  const auto arrival = window.observe(1);  // straggler after the skip
  EXPECT_EQ(arrival.pre_window, (std::vector<std::uint64_t>{1}));
  EXPECT_EQ(window.next_expected(), 3u);
}

// ------------------------------------------------------- retained buffer ----

TEST(RetainedBufferTest, EvictsLowestSeqBeyondCapacity) {
  WavePool waves;
  RetainedBuffer buffer(2);
  EXPECT_EQ(buffer.retain(waves(5, 5, 1)), 0u);
  EXPECT_EQ(buffer.retain(waves(6, 6, 2)), 0u);
  EXPECT_EQ(buffer.retain(waves(7, 7, 3)), 1u);  // 5 evicted
  EXPECT_EQ(buffer.size(), 2u);
  EXPECT_EQ(buffer.find(5), nullptr);
  ASSERT_NE(buffer.find(6), nullptr);
  ASSERT_NE(buffer.find(7), nullptr);
  EXPECT_EQ(tag_of(buffer.find(7)), 3);
}

TEST(RetainedBufferTest, ReRetainingAHeldSeqOverwritesWithoutEviction) {
  WavePool waves;
  RetainedBuffer buffer(2);
  EXPECT_EQ(buffer.retain(waves(1, 1, 1)), 0u);
  EXPECT_EQ(buffer.retain(waves(1, 1, 9)), 0u);
  EXPECT_EQ(buffer.size(), 1u);
  EXPECT_EQ(tag_of(buffer.find(1)), 9);
}

TEST(RetainedBufferTest, ZeroCapacityRetainsNothing) {
  WavePool waves;
  RetainedBuffer buffer(0);
  EXPECT_EQ(buffer.retain(waves(1, 1, 1)), 1u);  // evicts the new entry
  EXPECT_EQ(buffer.size(), 0u);
  EXPECT_EQ(buffer.find(1), nullptr);
}

TEST(RetainedBufferTest, RetainBelowTheNewestEntryKeepsSeqOrder) {
  // A repair's old wave lands below the newest entry: it is slotted in by
  // seq, not appended, so find and eviction still see ascending ranges.
  WavePool waves;
  RetainedBuffer buffer(10);
  EXPECT_EQ(buffer.retain(waves(9, 9, 9)), 0u);
  EXPECT_EQ(buffer.retain(waves(20, 21, 20)), 0u);
  EXPECT_EQ(buffer.retain(waves(4, 5, 4)), 0u);     // below everything
  EXPECT_EQ(buffer.retain(waves(12, 14, 12)), 0u);  // between two entries
  EXPECT_EQ(buffer.ranges(), (std::vector<std::pair<std::uint64_t, std::uint64_t>>{
                                 {4, 5}, {9, 9}, {12, 14}, {20, 21}}));
  EXPECT_EQ(tag_of(buffer.find(13)), 12);
  EXPECT_EQ(tag_of(buffer.find(5)), 4);
  EXPECT_EQ(buffer.find(10), nullptr);
  EXPECT_EQ(buffer.find(3), nullptr);
  EXPECT_EQ(buffer.find(22), nullptr);
  EXPECT_EQ(buffer.retain(waves(30, 32, 30)), 2u);  // lowest range [4, 5] goes
  EXPECT_EQ(buffer.find(4), nullptr);
  EXPECT_EQ(buffer.size(), 9u);
}

TEST(RetainedBufferTest, OldRangeArrivingAtCapacityEvictsItself) {
  WavePool waves;
  RetainedBuffer buffer(3);
  for (std::uint64_t seq = 10; seq < 13; ++seq) EXPECT_EQ(buffer.retain(waves(seq, seq, 0)), 0u);
  EXPECT_EQ(buffer.retain(waves(5, 5, 5)), 1u);  // oldest seq held: it goes first
  EXPECT_EQ(buffer.find(5), nullptr);
  EXPECT_EQ(buffer.size(), 3u);
  EXPECT_EQ(buffer.entry_count(), 3u);
  EXPECT_EQ(buffer.ranges(), (std::vector<std::pair<std::uint64_t, std::uint64_t>>{
                                 {10, 10}, {11, 11}, {12, 12}}));
}

TEST(RetainedBufferTest, ReRetainWithADifferentWidthKeepsSizeExact) {
  WavePool waves;
  RetainedBuffer buffer(16);
  EXPECT_EQ(buffer.retain(waves(0, 1, 0)), 0u);
  EXPECT_EQ(buffer.retain(waves(4, 7, 1)), 0u);
  EXPECT_EQ(buffer.size(), 6u);
  EXPECT_EQ(buffer.retain(waves(4, 5, 2)), 0u);  // narrower
  EXPECT_EQ(buffer.size(), 4u);
  EXPECT_EQ(buffer.find(6), nullptr);
  EXPECT_EQ(buffer.retain(waves(4, 18, 3)), 2u);  // wider: [0, 1] evicted
  EXPECT_EQ(buffer.size(), 15u);
  EXPECT_EQ(buffer.entry_count(), 1u);
  EXPECT_EQ(tag_of(buffer.find(18)), 3);
  EXPECT_EQ(buffer.find(0), nullptr);
}

TEST(RetainedBufferTest, RejectsANullOrInvertedWave) {
  WavePool waves;
  RetainedBuffer buffer(4);
  EXPECT_THROW(buffer.retain(DeliveryPtr{}), std::invalid_argument);
  EXPECT_THROW(buffer.retain(waves(5, 4, 0)), std::invalid_argument);
  EXPECT_EQ(buffer.size(), 0u);
  EXPECT_EQ(buffer.entry_count(), 0u);
}

/// Eviction and overwrite drop the buffer's reference, so the wave's pool
/// block recycles once no envelope holds it either.
TEST(RetainedBufferTest, EvictedAndOverwrittenWavesReturnToThePool) {
  WavePool waves;
  {
    RetainedBuffer buffer(2);
    DeliveryPtr in_flight = waves(0, 0, 0);  // an envelope still holds it
    (void)buffer.retain(in_flight);
    (void)buffer.retain(waves(1, 1, 1));
    (void)buffer.retain(waves(1, 1, 2));  // overwrite: tag 1 recycles
    EXPECT_EQ(waves.pool.cached(), 1u);
    (void)buffer.retain(waves(2, 2, 3));  // evicts seq 0; the envelope keeps it
    EXPECT_EQ(waves.pool.cached(), 0u);
    EXPECT_EQ(in_flight->wave, 0u);
  }
  EXPECT_EQ(waves.pool.cached(), waves.pool.allocated());
}

/// The buffer against a std::map model of the same contract over random
/// retains — appends, retains below the newest entry, re-retains with a
/// new width — through enough traffic to wrap and grow the ring: every
/// return value, size(), and ranges() (ascending) must agree after every
/// call, and find() on every seq in play.
TEST(RetainedBufferTest, MatchesAnOrderedMapModel) {
  std::mt19937_64 rng(11);
  auto pick = [&rng](std::uint64_t n) {
    return std::uniform_int_distribution<std::uint64_t>(0, n - 1)(rng);
  };
  WavePool waves;
  for (const std::size_t capacity : {1u, 7u, 64u}) {
    RetainedBuffer buffer(capacity);
    std::map<std::uint64_t, std::pair<std::uint64_t, int>> model;  // lo -> (hi, tag)
    std::size_t covered = 0;
    std::uint64_t next = 0;
    for (int call = 0; call < 4000; ++call) {
      std::uint64_t lo = next;
      std::uint64_t width = 1 + pick(4);
      const auto kind = pick(6);
      if (kind == 0 && !model.empty()) {  // re-retain a held lo
        auto it = model.begin();
        std::advance(it, static_cast<std::ptrdiff_t>(pick(model.size())));
        lo = it->first;
        const auto after = std::next(it);
        const std::uint64_t room = (after == model.end() ? next : after->first) - lo;
        width = 1 + pick(std::min<std::uint64_t>(room, 4));
      } else if (kind == 1 && next > 8) {  // an older seq never retained here
        lo = next - 1 - pick(8);
        if (model.count(lo) != 0) continue;
        const auto after = model.upper_bound(lo);
        const auto before = after == model.begin() ? model.end() : std::prev(after);
        if (before != model.end() && before->second.first >= lo) continue;  // covered
        const std::uint64_t room = (after == model.end() ? next : after->first) - lo;
        width = 1 + pick(std::min<std::uint64_t>(room, 4));
      } else {
        next += width;
      }
      const std::uint64_t hi = lo + width - 1;
      const int tag = call;
      // The model: insert or overwrite, then evict lowest ranges.
      if (const auto held = model.find(lo); held != model.end())
        covered -= held->second.first - lo + 1;
      model[lo] = {hi, tag};
      covered += width;
      std::size_t evicted = 0;
      while (covered > capacity) {
        const auto oldest = model.begin();
        const std::size_t w = oldest->second.first - oldest->first + 1;
        covered -= w;
        evicted += w;
        model.erase(oldest);
      }
      ASSERT_EQ(buffer.retain(waves(lo, hi, static_cast<std::uint64_t>(tag))), evicted)
          << "call " << call;
      ASSERT_EQ(buffer.size(), covered);
      ASSERT_EQ(buffer.entry_count(), model.size());
      std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges;
      for (const auto& [l, entry] : model) ranges.emplace_back(l, entry.first);
      ASSERT_EQ(buffer.ranges(), ranges) << "call " << call;
      for (std::uint64_t seq = next > 80 ? next - 80 : 0; seq <= next; ++seq) {
        const auto after = model.upper_bound(seq);
        const bool held = after != model.begin() && std::prev(after)->second.first >= seq;
        const DeliveryPtr* found = buffer.find(seq);
        ASSERT_EQ(found != nullptr, held) << "call " << call << " seq " << seq;
        if (held) {
          ASSERT_EQ(tag_of(found), std::prev(after)->second.second);
        }
      }
    }
  }
}

// ------------------------------------------------------------ end-to-end ----

TEST(GroupsQoS2Test, NacksAreBatchedAndDeferToInflightPerHopRecovery) {
  const auto graph = make_overlay(120, 2, 1201);
  const GroupId g = 0;
  const std::uint64_t seed = 37;
  const std::size_t publishes = 4;
  const PeerId victim = find_leaf_subscriber(graph, g, 10, seed, publishes);
  ASSERT_NE(victim, kInvalidPeer);

  // Sever seqs 1 and 2 toward the victim completely: per-hop recovery must
  // burn its budget and abandon, then the gap plane takes over.
  PubSubConfig config;
  config.seed = seed;
  config.reliability.qos = multicast::QoS::kEndToEnd;
  config.reliability.ack_timeout = 0.05;
  config.reliability.max_retries = 5;
  config.loss.drop_if = [victim](const sim::Envelope& e) {
    if (e.kind != kDeliverKind || e.to != victim) return false;
    const GroupDelivery& d = *std::any_cast<const DeliveryPtr&>(e.payload);
    return d.seq == 1 || d.seq == 2;
  };
  PubSubSystem system(graph, config);
  std::vector<std::pair<PeerId, std::uint64_t>> order;
  system.set_delivery_probe([&order](PeerId p, GroupId, std::uint64_t seq, double) {
    order.emplace_back(p, seq);
  });
  const auto members = subscribe_members(system, graph, g, 10, seed);
  for (std::size_t i = 0; i < publishes; ++i)
    system.publish_at(2.0 + 0.1 * static_cast<double>(i), members[0], g);
  system.run();

  const auto& stats = system.stats(g);
  // Both missing seqs were discovered from seq 3's arrival, repaired from
  // the victim's parent (which retained them when it forwarded), and
  // nothing was lost.
  EXPECT_EQ(stats.gap_seqs_detected, 2u);
  EXPECT_EQ(stats.gap_seqs_repaired, 2u);
  EXPECT_EQ(stats.gap_seqs_abandoned, 0u);
  EXPECT_EQ(stats.repairs_served, 2u);
  EXPECT_EQ(stats.repair_misses, 0u);
  EXPECT_DOUBLE_EQ(stats.delivery_ratio(), 1.0);
  EXPECT_GT(stats.gap_latency_total, 0.0);
  EXPECT_GT(stats.mean_gap_latency(), 0.0);
  // One batched NACK carried both seqs...
  EXPECT_EQ(stats.nacks_sent, 1u);
  EXPECT_EQ(stats.nacked_seqs, 2u);
  // ...and it waited for the abandoned per-hop retransmissions first.
  EXPECT_GE(stats.nack_deferrals, 1u);
  EXPECT_EQ(stats.abandoned_hops, 2u);
  // The transport counted exactly those envelopes.
  const auto& kinds = system.simulator().stats().sent_by_kind;
  EXPECT_EQ(kinds.at(kNackKind), stats.nacks_sent);
  EXPECT_EQ(kinds.at(kRepairKind), stats.repairs_served);
  // The victim's releases came out strictly in order despite the repair.
  std::vector<std::uint64_t> victim_order;
  for (const auto& [p, seq] : order)
    if (p == victim) victim_order.push_back(seq);
  EXPECT_EQ(victim_order, (std::vector<std::uint64_t>{0, 1, 2, 3}));
}

/// RetainedBuffer range service, pinned: one NACK whose gap run straddles
/// TWO retained wave ranges must be served from both entries. Batching
/// (two publishes per window) makes each wave a 2-seq range; severing the
/// middle two waves toward a leaf leaves the gap run [2..5] covering the
/// retained ranges [2,3] and [4,5]. on_nack's per-request dedup serves
/// each covering range exactly once — two repair envelopes, no misses.
TEST(GroupsQoS2Test, NackRunStraddlingTwoRetainedWavesIsServedFromBoth) {
  const auto graph = make_overlay(120, 2, 1203);
  const GroupId g = 0;
  const std::uint64_t seed = 41;
  const PeerId victim = find_leaf_subscriber(graph, g, 10, seed, 4);
  ASSERT_NE(victim, kInvalidPeer);

  PubSubConfig config;
  config.seed = seed;
  config.reliability.qos = multicast::QoS::kEndToEnd;
  config.reliability.ack_timeout = 0.05;
  config.reliability.max_retries = 5;
  config.batch_window = 0.1;
  // Sever the two middle waves toward the victim: a coalesced wave rides
  // one envelope keyed by its range low, so dropping seq-low 2 and 4
  // removes the ranges [2,3] and [4,5] entirely on that last hop.
  config.loss.drop_if = [victim](const sim::Envelope& e) {
    if (e.kind != kDeliverKind || e.to != victim) return false;
    const GroupDelivery& d = *std::any_cast<const DeliveryPtr&>(e.payload);
    return d.seq == 2 || d.seq == 4;
  };
  PubSubSystem system(graph, config);
  const auto members = subscribe_members(system, graph, g, 10, seed);
  const PeerId root = system.manager().root_of(g);
  // Four waves of two seqs each: [0,1] [2,3] [4,5] [6,7], flushed at
  // 2.1/3.1/4.1/5.1 (root-published, so the windows are exact).
  for (const double base : {2.0, 3.0, 4.0, 5.0}) {
    system.publish_at(base, root, g);
    system.publish_at(base + 0.01, root, g);
  }
  system.run();
  (void)members;

  const auto& stats = system.stats(g);
  // Wave [6,7] revealed the straddling run: four seqs, one batched NACK.
  EXPECT_EQ(stats.gap_seqs_detected, 4u);
  EXPECT_EQ(stats.nacks_sent, 1u);
  EXPECT_EQ(stats.nacked_seqs, 4u);
  // The pin: both covering retained ranges answered — one repair envelope
  // per retained wave, neither a miss, and the run healed in full.
  EXPECT_EQ(stats.repairs_served, 2u);
  EXPECT_EQ(stats.repair_misses, 0u);
  EXPECT_EQ(stats.gap_seqs_repaired, 4u);
  EXPECT_EQ(stats.gap_seqs_abandoned, 0u);
  EXPECT_EQ(stats.deliveries, stats.expected_deliveries);
}

struct KillSweepResult {
  GroupStats total;
  std::size_t subtree_subs = 0;
  std::size_t retained_peak = 0;
};

/// The sweep workload: 4 groups x 12 subscribers, one warm publish each,
/// then a wave at t=4 whose forwarder is killed mid-flight for every
/// group, then two flush publishes so the severed subtrees can detect and
/// repair their gaps.
KillSweepResult run_kill_scenario(const overlay::OverlayGraph& graph, multicast::QoS qos,
                                  double loss, std::uint64_t seed) {
  PubSubConfig config;
  config.seed = seed;
  config.loss.drop_probability = loss;
  config.reliability.qos = qos;
  config.reliability.ack_timeout = 0.05;
  config.reliability.max_retries = 5;
  PubSubSystem system(graph, config);

  const std::size_t group_count = 4;
  std::vector<bool> member_anywhere(graph.size(), false);
  std::vector<std::vector<PeerId>> members(group_count);
  for (GroupId g = 0; g < group_count; ++g) {
    members[g] = subscribe_members(system, graph, g, 12, seed + g);
    for (const PeerId p : members[g]) member_anywhere[p] = true;
  }
  std::vector<std::size_t> killed(group_count, 0);
  for (GroupId g = 0; g < group_count; ++g) {
    const PeerId root = system.manager().root_of(g);
    // All waves publish from the root itself: the kill wave's start time —
    // and therefore "mid-wave" — is exact, the flushes cannot strand in
    // greedy control routing around the fresh departure, and the warm wave
    // cannot be lost en route (a severed subscriber whose FIRST wave is
    // the killed one initializes its window there and cannot know about
    // the gap — the documented NACK-scheme blind spot, not under test).
    system.publish_at(2.0, root, g);  // warm build
    system.publish_at(4.0, root, g);
    schedule_midwave_kill(system, g, 4.0, member_anywhere,
                          [&killed, g](PeerId, std::size_t severed) {
                            killed[g] = severed;
                          });
    system.publish_at(5.0, root, g);  // flush: reveals the gaps
    system.publish_at(6.0, root, g);
  }
  system.run();

  KillSweepResult result;
  result.total = system.total_stats();
  for (const std::size_t subs : killed) result.subtree_subs += subs;
  result.retained_peak = system.manager().retained_peak();
  return result;
}

TEST(GroupsQoS2Test, MidWaveForwarderKillLosesSubtreeUnderQoS1ButNotQoS2) {
  const auto graph = make_overlay(220, 2, 1202);
  for (const double loss : {0.0, 0.05}) {
    SCOPED_TRACE("loss=" + std::to_string(loss));
    const auto q1 = run_kill_scenario(graph, multicast::QoS::kAcked, loss, 51);
    const auto q2 = run_kill_scenario(graph, multicast::QoS::kEndToEnd, loss, 51);

    // The kill found a relay with a real subtree in at least one group
    // (identical trees across runs: same seed, same workload).
    ASSERT_GT(q2.subtree_subs, 0u);
    ASSERT_EQ(q1.subtree_subs, q2.subtree_subs);

    // QoS 1 silently loses the severed subtrees' waves...
    EXPECT_LT(q1.total.delivery_ratio(), 0.9999);
    // ...QoS 2 detects the gaps downstream and repairs every one.
    EXPECT_GE(q2.total.delivery_ratio(), 0.9999);
    EXPECT_GT(q2.total.delivery_ratio(), q1.total.delivery_ratio());
    EXPECT_GT(q2.total.gap_seqs_detected, 0u);
    EXPECT_GT(q2.total.nacks_sent, 0u);
    EXPECT_GT(q2.total.repairs_served, 0u);
    EXPECT_EQ(q2.total.gap_seqs_repaired, q2.total.gap_seqs_detected);
    if (loss == 0.0) { EXPECT_DOUBLE_EQ(q2.total.delivery_ratio(), 1.0); }

    // QoS 1 never touches the repair plane.
    EXPECT_EQ(q1.total.nacks_sent, 0u);
    EXPECT_EQ(q1.total.repairs_served, 0u);
    EXPECT_EQ(q1.total.gap_seqs_detected, 0u);
    EXPECT_EQ(q1.total.retained_evictions, 0u);

    // Retention stayed within its configured bound.
    EXPECT_GE(q2.retained_peak, 1u);
    EXPECT_LE(q2.retained_peak, PubSubConfig{}.groups.retention_window);
  }
}

TEST(GroupsQoS2Test, RetentionMemoryIsBoundedByTheConfiguredWindow) {
  const auto graph = make_overlay(120, 2, 1203);
  const GroupId g = 0;
  PubSubConfig config;
  config.seed = 71;
  config.reliability.qos = multicast::QoS::kEndToEnd;
  config.groups.retention_window = 3;
  PubSubSystem system(graph, config);
  const auto members = subscribe_members(system, graph, g, 10, 71);
  for (std::size_t i = 0; i < 10; ++i)  // far more waves than the window
    system.publish_at(2.0 + 0.1 * static_cast<double>(i), members[0], g);
  system.run();

  EXPECT_EQ(system.stats(g).delivery_ratio(), 1.0);
  EXPECT_GT(system.stats(g).retained_evictions, 0u);
  EXPECT_GE(system.manager().retained_peak(), 1u);
  EXPECT_LE(system.manager().retained_peak(), 3u);
  // Every live buffer holds at most `window` entries right now too.
  const GroupTree* gt = system.manager().cached_tree(g);
  ASSERT_NE(gt, nullptr);
  std::size_t responders = 0;
  for (PeerId p = 0; p < graph.size(); ++p)
    if (gt->tree.reached(p) && !gt->tree.children(p).empty()) ++responders;
  EXPECT_LE(system.manager().retained_entry_total(), responders * 3);
}

}  // namespace
}  // namespace geomcast::groups
