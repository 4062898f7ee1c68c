// Ancestor-repair battery for the QoS 2 gap plane: the escalation order
// (tree parent first, then strictly higher ancestors, ending at the root),
// retained-buffer eviction behaviour (a NACK for an evicted seq escalates
// and ultimately abandons instead of stalling the window), and seeded
// golden stats pins for QoS 0/1/2 so future refactors of the reliability
// stack have bit-exact baselines to diff against.
#include "groups/pubsub.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "scenario/scenario.hpp"

namespace geomcast::groups {
namespace {

using scenario::find_leaf_subscriber;
using scenario::make_overlay;
using scenario::subscribe_members;

TEST(GroupsAncestorRepairTest, EscalationWalksTheAncestorChainParentFirstToRoot) {
  const auto graph = make_overlay(150, 2, 1301).graph;
  const GroupId g = 0;
  const std::uint64_t seed = 43;
  const std::size_t publishes = 3;
  const PeerId victim = find_leaf_subscriber(graph, g, 12, seed, publishes);
  ASSERT_NE(victim, kInvalidPeer);

  // Retention disabled: every responder must miss, so one unfillable gap
  // walks the victim's whole ancestor chain and then gives up — the
  // purest view of the escalation order.
  PubSubConfig config;
  config.seed = seed;
  config.reliability.qos = multicast::QoS::kEndToEnd;
  config.reliability.ack_timeout = 0.05;
  config.reliability.max_retries = 5;
  config.groups.retention_window = 0;
  config.loss.drop_if = [victim](const sim::Envelope& e) {
    if (e.kind != kDeliverKind || e.to != victim) return false;
    return std::any_cast<const DeliveryPtr&>(e.payload)->seq == 1;
  };
  PubSubSystem system(graph, config);
  std::vector<PeerId> nack_targets;
  system.simulator().set_delivery_observer([&nack_targets](double, const sim::Envelope& e) {
    if (e.kind == kNackKind) nack_targets.push_back(e.to);
  });
  const auto members = subscribe_members(system, graph, g, 12, seed);
  for (std::size_t i = 0; i < publishes; ++i)
    system.publish_at(2.0 + 0.1 * static_cast<double>(i), members[0], g);
  system.run();

  // Reconstruct the victim's ancestor chain from the (stable) cached tree.
  const GroupTree* gt = system.manager().cached_tree(g);
  ASSERT_NE(gt, nullptr);
  std::vector<PeerId> chain;
  for (PeerId p = victim; p != gt->tree.root();) {
    p = gt->tree.parent(p);
    chain.push_back(p);
  }
  ASSERT_GE(chain.size(), 2u) << "seed picked a depth-1 victim; escalation is vacuous";

  // One NACK per ancestor, parent first, in exact chain order, and no
  // wrap-around past the root: the root's miss is definitive.
  ASSERT_EQ(nack_targets.size(), chain.size());
  EXPECT_EQ(nack_targets, chain);
  const auto& stats = system.stats(g);
  EXPECT_EQ(stats.nacks_sent, chain.size());
  EXPECT_EQ(stats.repair_misses, chain.size());
  EXPECT_EQ(stats.repair_escalations, chain.size() - 1);
  EXPECT_EQ(stats.repairs_served, 0u);
  EXPECT_EQ(stats.gap_seqs_detected, 1u);
  EXPECT_EQ(stats.gap_seqs_repaired, 0u);
  EXPECT_EQ(stats.gap_seqs_abandoned, 1u);
  // The window did not stall: everything after the abandoned seq released.
  EXPECT_EQ(stats.deliveries, stats.expected_deliveries - 1);
}

TEST(GroupsAncestorRepairTest, NackForAnEvictedSeqEscalatesInsteadOfStalling) {
  const auto graph = make_overlay(150, 2, 1302).graph;
  const GroupId g = 0;
  const std::uint64_t seed = 47;
  const std::size_t publishes = 6;
  const PeerId victim = find_leaf_subscriber(graph, g, 12, seed, publishes);
  ASSERT_NE(victim, kInvalidPeer);

  // A one-wave retention window: by the time the victim's per-hop budget
  // for seq 1 dies and the NACK goes out, every responder has long evicted
  // it — parent and ancestors all miss, the root's miss abandons the gap,
  // and the held-back later seqs release in order.
  PubSubConfig config;
  config.seed = seed;
  config.reliability.qos = multicast::QoS::kEndToEnd;
  config.reliability.ack_timeout = 0.05;
  config.reliability.max_retries = 5;
  config.groups.retention_window = 1;
  config.loss.drop_if = [victim](const sim::Envelope& e) {
    if (e.kind != kDeliverKind || e.to != victim) return false;
    return std::any_cast<const DeliveryPtr&>(e.payload)->seq == 1;
  };
  PubSubSystem system(graph, config);
  std::vector<std::uint64_t> victim_released;
  system.set_delivery_probe(
      [&victim_released, victim](PeerId p, GroupId, std::uint64_t seq, double) {
        if (p == victim) victim_released.push_back(seq);
      });
  const auto members = subscribe_members(system, graph, g, 12, seed);
  for (std::size_t i = 0; i < publishes; ++i)
    system.publish_at(2.0 + 0.1 * static_cast<double>(i), members[0], g);
  const std::size_t events = system.run();
  ASSERT_GT(events, 0u);  // drained to idle: nothing stalled or spun

  const auto& stats = system.stats(g);
  EXPECT_EQ(stats.gap_seqs_detected, 1u);
  EXPECT_EQ(stats.gap_seqs_repaired, 0u);
  EXPECT_EQ(stats.gap_seqs_abandoned, 1u);
  EXPECT_GT(stats.repair_misses, 0u);
  EXPECT_EQ(stats.repairs_served, 0u);
  EXPECT_GT(stats.retained_evictions, 0u);  // the window really did evict
  // The victim lost exactly the evicted seq and released the rest in
  // order — the gap degraded delivery, never liveness.
  EXPECT_EQ(stats.deliveries, stats.expected_deliveries - 1);
  const std::vector<std::uint64_t> expected{0, 2, 3, 4, 5};
  EXPECT_EQ(victim_released, expected);
  EXPECT_TRUE(std::is_sorted(victim_released.begin(), victim_released.end()));
}

/// The pinned workload: 12 subscribers, 5 publishes, 10% stochastic loss,
/// plus one member's incoming copies of seq 2 severed outright so the gap
/// plane has real work under QoS 2 — every counter below is a
/// deterministic function of (overlay seed, workload seed, QoS), so these
/// goldens must reproduce bit-for-bit.
GroupStats run_pinned(const overlay::OverlayGraph& graph, multicast::QoS qos) {
  PubSubConfig config;
  config.seed = 61;
  config.loss.drop_probability = 0.1;
  config.reliability.qos = qos;
  config.reliability.ack_timeout = 0.05;
  config.reliability.max_retries = 5;
  auto victim = std::make_shared<PeerId>(kInvalidPeer);
  config.loss.drop_if = [victim](const sim::Envelope& e) {
    if (e.kind != kDeliverKind || e.to != *victim) return false;
    return std::any_cast<const DeliveryPtr&>(e.payload)->seq == 2;
  };
  return scenario::run_cell(graph, config, [&](PubSubSystem& system) {
           *victim = subscribe_members(system, graph, 0, 12, 61)[6];
           // Publishing from the root keeps all five waves in the pin: a
           // publish envelope lost en route to the root would silently
           // shrink the workload (and with it the severed seq the QoS 2
           // cell is pinned around).
           const PeerId root = system.manager().root_of(0);
           for (std::size_t i = 0; i < 5; ++i)
             system.publish_at(2.0 + 0.3 * static_cast<double>(i), root, 0);
         })
      .total;
}

TEST(GroupsAncestorRepairTest, SeededStatsArePinnedAcrossTheQoSLadder) {
  const auto graph = make_overlay(150, 2, 1303).graph;

  // Rerunning the same cell must be bit-identical before pinning means
  // anything.
  {
    const GroupStats a = run_pinned(graph, multicast::QoS::kEndToEnd);
    const GroupStats b = run_pinned(graph, multicast::QoS::kEndToEnd);
    EXPECT_EQ(a.deliveries, b.deliveries);
    EXPECT_EQ(a.nacks_sent, b.nacks_sent);
    EXPECT_EQ(a.repairs_served, b.repairs_served);
    EXPECT_EQ(a.gap_latency_total, b.gap_latency_total);
  }

  // The ladder's story in three rows: fire-and-forget loses 25 of 45
  // deliveries at 10% loss; per-hop acking recovers all but the severed
  // seq (whose hop budget dies: abandoned_hops = 1); the gap plane
  // detects that one miss downstream, defers once to the dying per-hop
  // recovery, then repairs it with a single parent-served NACK.
  {
    SCOPED_TRACE("qos=0");
    const GroupStats s = run_pinned(graph, multicast::QoS::kFireAndForget);
    EXPECT_EQ(s.publishes, 5u);
    EXPECT_EQ(s.expected_deliveries, 45u);
    EXPECT_EQ(s.deliveries, 20u);
    EXPECT_EQ(s.payload_messages, 101u);
    EXPECT_EQ(s.ack_messages, 0u);
    EXPECT_EQ(s.retransmissions, 0u);
    EXPECT_EQ(s.abandoned_hops, 0u);
    EXPECT_EQ(s.duplicate_deliveries, 0u);
    EXPECT_EQ(s.gap_seqs_detected, 0u);
    EXPECT_EQ(s.nacks_sent, 0u);
  }
  {
    SCOPED_TRACE("qos=1");
    const GroupStats s = run_pinned(graph, multicast::QoS::kAcked);
    EXPECT_EQ(s.publishes, 5u);
    EXPECT_EQ(s.expected_deliveries, 45u);
    EXPECT_EQ(s.deliveries, 44u);
    EXPECT_EQ(s.payload_messages, 190u);
    EXPECT_EQ(s.ack_messages, 205u);
    EXPECT_EQ(s.retransmissions, 51u);
    EXPECT_EQ(s.abandoned_hops, 1u);
    EXPECT_EQ(s.duplicate_deliveries, 16u);
    EXPECT_EQ(s.gap_seqs_detected, 0u);
    EXPECT_EQ(s.nacks_sent, 0u);
  }
  {
    SCOPED_TRACE("qos=2");
    const GroupStats s = run_pinned(graph, multicast::QoS::kEndToEnd);
    EXPECT_EQ(s.publishes, 5u);
    EXPECT_EQ(s.expected_deliveries, 45u);
    EXPECT_EQ(s.deliveries, 45u);
    EXPECT_EQ(s.payload_messages, 190u);
    EXPECT_EQ(s.ack_messages, 207u);
    EXPECT_EQ(s.retransmissions, 51u);
    EXPECT_EQ(s.abandoned_hops, 1u);
    EXPECT_EQ(s.duplicate_deliveries, 18u);
    EXPECT_EQ(s.gap_seqs_detected, 1u);
    EXPECT_EQ(s.gap_seqs_repaired, 1u);
    EXPECT_EQ(s.gap_seqs_abandoned, 0u);
    EXPECT_EQ(s.nacks_sent, 1u);
    EXPECT_EQ(s.nacked_seqs, 1u);
    EXPECT_EQ(s.nack_deferrals, 1u);
    EXPECT_EQ(s.repairs_served, 1u);
    EXPECT_EQ(s.repair_misses, 0u);
    EXPECT_EQ(s.repair_escalations, 0u);
    EXPECT_EQ(s.pre_window_deliveries, 0u);
  }
}

}  // namespace
}  // namespace geomcast::groups
