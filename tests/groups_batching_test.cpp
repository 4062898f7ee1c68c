// Batching-equivalence battery for the coalesced publish pipeline
// (ISSUE 4): range admission through the SubscriberWindow, range
// retention, root-side coalescing behaviour, and the headline golden
// pins — batched runs must deliver the identical (peer, group, seq) set
// as unbatched at every QoS rung, on clean links, under 5% loss, and
// across a mid-wave forwarder kill, while paying a fraction of the
// envelopes.
#include "groups/pubsub.hpp"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "groups/failure_injection.hpp"
#include "groups/group_manager.hpp"
#include "groups_test_util.hpp"

namespace geomcast::groups {
namespace {

using testutil::make_overlay;
using testutil::subscribe_members;
using testutil::tag_of;
using testutil::WavePool;

// ---------------------------------------------------- window range tests ----

TEST(SubscriberWindowRangeTest, InOrderRangeReleasesWholesale) {
  SubscriberWindow window;
  auto arrival = window.observe_range(0, 7);
  EXPECT_TRUE(arrival.pre_window.empty());
  EXPECT_TRUE(arrival.new_gaps.empty());
  EXPECT_EQ(arrival.released, (std::vector<std::uint64_t>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(window.next_expected(), 8u);
  EXPECT_EQ(window.held_count(), 0u);
}

TEST(SubscriberWindowRangeTest, RangeInitializesAtItsLowSeq) {
  SubscriberWindow window;
  const auto arrival = window.observe_range(16, 19);
  EXPECT_EQ(arrival.released, (std::vector<std::uint64_t>{16, 17, 18, 19}));
  EXPECT_EQ(window.next_expected(), 20u);
}

TEST(SubscriberWindowRangeTest, AheadRangeOpensPerSeqGapsAndBackfills) {
  SubscriberWindow window;
  (void)window.observe_range(0, 3);
  auto arrival = window.observe_range(8, 11);  // a whole batch went missing
  EXPECT_EQ(arrival.new_gaps, (std::vector<std::uint64_t>{4, 5, 6, 7}));
  EXPECT_TRUE(arrival.released.empty());
  EXPECT_EQ(window.gap_count(), 4u);
  EXPECT_EQ(window.held_count(), 4u);

  arrival = window.observe_range(4, 7);  // the lost batch backfills
  EXPECT_TRUE(arrival.new_gaps.empty());
  EXPECT_EQ(arrival.released,
            (std::vector<std::uint64_t>{4, 5, 6, 7, 8, 9, 10, 11}));
  EXPECT_EQ(window.next_expected(), 12u);
  EXPECT_EQ(window.gap_count(), 0u);
  EXPECT_EQ(window.held_count(), 0u);
}

TEST(SubscriberWindowRangeTest, StraddlingRangeSplitsAtTheHead) {
  SubscriberWindow window;
  (void)window.observe_range(0, 2);
  (void)window.observe_range(5, 6);  // gaps {3, 4}
  (void)window.abandon(3);
  (void)window.abandon(4);  // head skips to 7
  EXPECT_EQ(window.next_expected(), 7u);
  // A straggler range covering the abandoned seqs and fresh ones: the
  // below-head part releases out of band, the rest goes through the
  // window.
  const auto arrival = window.observe_range(3, 8);
  EXPECT_EQ(arrival.pre_window, (std::vector<std::uint64_t>{3, 4, 5, 6}));
  EXPECT_EQ(arrival.released, (std::vector<std::uint64_t>{7, 8}));
  EXPECT_EQ(window.next_expected(), 9u);
}

TEST(SubscriberWindowRangeTest, ReorderBoundForceAbandonsAcrossARange) {
  SubscriberWindow window(/*reorder_limit=*/4);
  (void)window.observe_range(0, 0);
  // 1..2 go missing; the wide held range overflows the bound and forces
  // the oldest gaps out.
  const auto arrival = window.observe_range(3, 8);
  EXPECT_EQ(arrival.new_gaps, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(arrival.forced_abandoned, (std::vector<std::uint64_t>{1, 2}));
  EXPECT_EQ(arrival.released, (std::vector<std::uint64_t>{3, 4, 5, 6, 7, 8}));
  EXPECT_EQ(window.next_expected(), 9u);
  EXPECT_EQ(window.gap_count(), 0u);
}

TEST(SubscriberWindowRangeTest, SingleSeqObserveIsTheDegenerateRange) {
  SubscriberWindow a, b;
  for (const std::uint64_t seq : {0ull, 2ull, 1ull, 5ull, 3ull, 4ull}) {
    const auto left = a.observe(seq);
    const auto right = b.observe_range(seq, seq);
    EXPECT_EQ(left.released, right.released);
    EXPECT_EQ(left.new_gaps, right.new_gaps);
  }
  EXPECT_EQ(a.next_expected(), b.next_expected());
}

// -------------------------------------------------- retained-range tests ----

TEST(RetainedBufferRangeTest, FindCoversTheWholeRange) {
  WavePool waves;
  RetainedBuffer buffer(16);
  EXPECT_EQ(buffer.retain(waves(8, 15, 1)), 0u);
  EXPECT_EQ(buffer.find(7), nullptr);
  for (std::uint64_t s = 8; s <= 15; ++s) ASSERT_EQ(tag_of(buffer.find(s)), 1);
  EXPECT_EQ(buffer.find(16), nullptr);
  EXPECT_EQ(buffer.size(), 8u);
  EXPECT_EQ(buffer.entry_count(), 1u);
}

TEST(RetainedBufferRangeTest, CapacityIsCountedInSeqsNotEntries) {
  // A range wave costs its width, so batching cannot inflate the memory
  // bound the retention window promises.
  WavePool waves;
  RetainedBuffer buffer(8);
  EXPECT_EQ(buffer.retain(waves(0, 7, 1)), 0u);
  EXPECT_EQ(buffer.retain(waves(8, 15, 2)), 8u);  // whole first range out
  EXPECT_EQ(buffer.size(), 8u);
  EXPECT_EQ(buffer.find(0), nullptr);
  ASSERT_NE(buffer.find(12), nullptr);
  EXPECT_EQ(tag_of(buffer.find(12)), 2);
}

TEST(RetainedBufferRangeTest, OverWideRangeEvictsItself) {
  WavePool waves;
  RetainedBuffer buffer(4);
  EXPECT_EQ(buffer.retain(waves(0, 7, 1)), 8u);
  EXPECT_EQ(buffer.size(), 0u);
  EXPECT_EQ(buffer.find(3), nullptr);
}

/// Departures drop exactly the departed peers' retained buffers, in every
/// group, and leave every other (peer, group) buffer as it was. 120 peers
/// x 3 groups grow the (peer, group) table several times, and several
/// departures exercise its deletion path; the manager's aggregate
/// accessors must keep matching a recount through retained_ranges().
TEST(RetainedBufferRangeTest, DepartureDropsOnlyTheDepartedPeersBuffers) {
  const auto graph = make_overlay(120, 2, 4242);
  GroupConfig config;
  config.retention_window = 8;
  WavePool waves;
  GroupManager manager(graph, config);
  const std::vector<GroupId> groups = {3, 40, 1ULL << 33};
  using Ranges = std::vector<std::pair<std::uint64_t, std::uint64_t>>;
  std::map<std::pair<PeerId, GroupId>, Ranges> expected;
  for (PeerId p = 0; p < graph.size(); ++p)
    for (std::size_t i = 0; i < groups.size(); ++i) {
      if ((p + i) % 4 == 0) continue;  // not every peer retains in every group
      const std::uint64_t count = 1 + (p + i) % 5;
      for (std::uint64_t w = 0; w < count; ++w)
        manager.retain_payload(p, groups[i], waves(3 * w, 3 * w + 2, w, groups[i]));
      expected[{p, groups[i]}] = manager.retained_ranges(p, groups[i]);
    }
  auto recount = [&] {
    std::size_t buffers = 0;
    std::size_t seqs = 0;
    for (PeerId p = 0; p < graph.size(); ++p)
      for (const GroupId g : groups) {
        const Ranges ranges = manager.retained_ranges(p, g);
        if (ranges.empty()) continue;
        ++buffers;
        for (const auto& [lo, hi] : ranges) seqs += hi - lo + 1;
      }
    EXPECT_EQ(manager.retained_buffer_count(), buffers);
    EXPECT_EQ(manager.retained_entry_total(), seqs);
  };
  recount();
  const std::vector<PeerId> departed = {5, 6, 17, 64, 119, 0};
  for (const PeerId gone : departed) {
    (void)manager.handle_departure(gone);
    for (const GroupId g : groups) expected.erase({gone, g});
    recount();
  }
  for (PeerId p = 0; p < graph.size(); ++p)
    for (const GroupId g : groups) {
      const auto it = expected.find({p, g});
      EXPECT_EQ(manager.retained_ranges(p, g), it == expected.end() ? Ranges{} : it->second)
          << "peer " << p << " group " << g;
      const std::uint64_t newest = it == expected.end() ? 0 : it->second.back().first;
      EXPECT_EQ(manager.retained_payload(p, g, newest) != nullptr, it != expected.end());
    }
}

// ------------------------------------------------- coalescing behaviour ----

/// One delivered application-level message.
using DeliveryKey = std::tuple<PeerId, GroupId, std::uint64_t>;

struct WorkloadResult {
  std::set<DeliveryKey> delivered;
  std::uint64_t delivery_count = 0;  // probe firings; == set size iff no dupes
  GroupStats stats;
};

/// The shared seeded workload: 2 groups x 12 subscribers on a 96-peer
/// overlay, a warm publish per group, then three bursts of 8 back-to-back
/// publishes. `midwave` adds a dedicated root-published wave with a
/// forwarder kill plus flush waves (the severed-subtree scenario).
///
/// `loss` applies to the DATA plane only (payload/ack/NACK/repair kinds):
/// batched and unbatched runs send different envelope sequences, so any
/// loss on the control plane would drop different subscribe/publish
/// requests in the two runs and the published seq sets themselves would
/// diverge — that is workload divergence, not pipeline divergence. With
/// the memberships and publishes pinned equal, QoS 2 completeness makes
/// the delivered sets comparable envelope-by-envelope fates aside.
WorkloadResult run_workload(const overlay::OverlayGraph& graph, multicast::QoS qos,
                            double loss, double batch_window, std::size_t max_batch,
                            bool midwave = false) {
  PubSubConfig config;
  config.seed = 7;
  if (loss > 0.0) {
    auto rng = std::make_shared<util::Rng>(0x10555ULL);
    config.loss.drop_if = [rng, loss](const sim::Envelope& envelope) {
      if (envelope.kind == kSubscribeKind || envelope.kind == kUnsubscribeKind ||
          envelope.kind == kPublishKind)
        return false;
      return rng->chance(loss);
    };
  }
  config.reliability.qos = qos;
  config.reliability.ack_timeout = 0.05;
  config.batch_window = batch_window;
  config.max_batch = max_batch;
  PubSubSystem system(graph, config);
  WorkloadResult result;
  system.set_delivery_probe(
      [&result](PeerId peer, GroupId group, std::uint64_t seq, double) {
        result.delivered.emplace(peer, group, seq);
        ++result.delivery_count;
      });
  std::vector<bool> member_anywhere(graph.size(), false);
  for (GroupId g = 0; g < 2; ++g) {
    const auto members = subscribe_members(system, graph, g, 12, /*seed=*/31 + g);
    for (const PeerId p : members) member_anywhere[p] = true;
    system.publish_at(2.0, members[0], g);
    for (int burst = 0; burst < 3; ++burst) {
      const double when = 3.0 + 1.0 * burst + 0.1 * static_cast<double>(g);
      for (int i = 0; i < 8; ++i) system.publish_at(when, members[1], g);
    }
    if (midwave) {
      const PeerId root = system.manager().root_of(g);
      const double wave_time = 8.0 + static_cast<double>(g);
      system.publish_at(wave_time, root, g);
      // Batched runs flush the root's own publish one window later; time
      // the kill against the flushed wave so BOTH pipelines lose a live
      // subtree mid-flight (the scenario being pinned equal).
      schedule_midwave_kill(system, g, wave_time, member_anywhere, nullptr,
                            max_batch > 1 ? batch_window : 0.0);
      system.publish_at(wave_time + 0.4, root, g);  // flushes reveal the gaps
      system.publish_at(wave_time + 0.8, root, g);
    }
  }
  system.run();
  result.stats = system.total_stats();
  return result;
}

TEST(BatchCoalescingTest, BurstCoalescesIntoOneRangeWave) {
  const auto graph = make_overlay(96, 3, 11);
  const auto unbatched =
      run_workload(graph, multicast::QoS::kFireAndForget, 0.0, 0.0, 16);
  const auto batched =
      run_workload(graph, multicast::QoS::kFireAndForget, 0.0, 0.05, 16);
  // 2 groups x (1 warm + 3 bursts): every burst of 8 coalesces into one
  // wave, so the batched run pushes 8 waves where the unbatched run
  // pushed 50 — with the identical delivered set.
  EXPECT_EQ(batched.stats.batch_flushes_window + batched.stats.batch_flushes_full,
            8u);
  EXPECT_EQ(batched.stats.batched_publishes, 50u);
  EXPECT_EQ(batched.stats.batch_publishes_lost, 0u);
  EXPECT_NEAR(batched.stats.mean_batch_occupancy(), 50.0 / 8.0, 1e-9);
  EXPECT_GT(batched.stats.envelopes_saved, 0u);
  EXPECT_LT(batched.stats.payload_messages, unbatched.stats.payload_messages / 4);
  EXPECT_EQ(batched.delivered, unbatched.delivered);
}

TEST(BatchCoalescingTest, MaxBatchForcesEarlyFlush) {
  const auto graph = make_overlay(96, 3, 11);
  const auto batched =
      run_workload(graph, multicast::QoS::kFireAndForget, 0.0, 0.05, 3);
  // Each 8-burst splits 3+3+2: two size-capped flushes plus the window
  // flush for the remainder; warm publishes flush by window.
  EXPECT_EQ(batched.stats.batch_flushes_full, 2u * 6u);
  EXPECT_EQ(batched.stats.batch_flushes_window, 6u + 2u);
  EXPECT_EQ(batched.stats.batch_publishes_lost, 0u);
}

// ------------------------------------------------------- equivalence pins ----

TEST(BatchEquivalenceTest, CleanLinksDeliverIdenticalSetsAtEveryQoS) {
  const auto graph = make_overlay(96, 3, 11);
  for (const auto qos : {multicast::QoS::kFireAndForget, multicast::QoS::kAcked,
                         multicast::QoS::kEndToEnd}) {
    const auto unbatched = run_workload(graph, qos, 0.0, 0.0, 16);
    const auto batched = run_workload(graph, qos, 0.0, 0.05, 16);
    EXPECT_EQ(batched.delivered, unbatched.delivered)
        << "qos=" << static_cast<int>(qos);
    // No double deliveries on either pipeline: every (peer, group, seq)
    // released exactly once.
    EXPECT_EQ(batched.delivery_count, batched.delivered.size());
    EXPECT_EQ(unbatched.delivery_count, unbatched.delivered.size());
    EXPECT_EQ(batched.stats.deliveries, batched.stats.expected_deliveries);
  }
}

TEST(BatchEquivalenceTest, QoS2DeliversIdenticalSetsUnderLoss) {
  const auto graph = make_overlay(96, 3, 11);
  const auto unbatched = run_workload(graph, multicast::QoS::kEndToEnd, 0.05, 0.0, 16);
  const auto batched = run_workload(graph, multicast::QoS::kEndToEnd, 0.05, 0.05, 16);
  // The end-to-end repair plane recovers every lost wave on both
  // pipelines, so the sets are pinned equal — and complete.
  EXPECT_EQ(batched.delivered, unbatched.delivered);
  EXPECT_EQ(batched.stats.deliveries, batched.stats.expected_deliveries);
  EXPECT_EQ(unbatched.stats.deliveries, unbatched.stats.expected_deliveries);
}

TEST(BatchEquivalenceTest, QoS2DeliversIdenticalSetsAcrossAMidWaveKill) {
  const auto graph = make_overlay(96, 3, 11);
  const auto unbatched =
      run_workload(graph, multicast::QoS::kEndToEnd, 0.0, 0.0, 16, /*midwave=*/true);
  const auto batched =
      run_workload(graph, multicast::QoS::kEndToEnd, 0.0, 0.05, 16, /*midwave=*/true);
  EXPECT_EQ(batched.delivered, unbatched.delivered);
  // The kill severs a live subtree mid-wave; the flush waves trigger the
  // NACK/repair plane, which must restore completeness on both pipelines.
  EXPECT_EQ(batched.stats.deliveries, batched.stats.expected_deliveries);
  EXPECT_EQ(unbatched.stats.deliveries, unbatched.stats.expected_deliveries);
}

TEST(BatchEquivalenceTest, QoS1EnvelopeCountShrinksAtLeastThreefold) {
  const auto graph = make_overlay(96, 3, 11);
  const auto unbatched = run_workload(graph, multicast::QoS::kAcked, 0.0, 0.0, 16);
  const auto batched = run_workload(graph, multicast::QoS::kAcked, 0.0, 0.05, 16);
  const auto envelopes = [](const WorkloadResult& r) {
    return r.stats.payload_messages + r.stats.ack_messages;
  };
  EXPECT_GE(static_cast<double>(envelopes(unbatched)),
            3.0 * static_cast<double>(envelopes(batched)));
  EXPECT_EQ(batched.delivered, unbatched.delivered);
}

}  // namespace
}  // namespace geomcast::groups
