// Loss-focused battery for the reliable pub/sub data plane: a per-link
// loss sweep comparing the QoS ladder, retry-budget exhaustion accounting,
// the duplicate-must-still-ack regression, bit-identical stats under a
// fixed seed, and the per-QoS ordering (non-)guarantees — QoS 1's
// retransmissions deliver out of order by design (the latent gap this
// battery pins), while QoS 2's window releases in order — plus the
// lossless full-span case that pins a group over every peer to the §2
// push. Labelled `slow` in ctest: the sweep runs six full simulations on
// one overlay.
#include "groups/pubsub.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "groups_test_util.hpp"
#include "multicast/space_partition.hpp"
#include "util/rng.hpp"

namespace geomcast::groups {
namespace {

using testutil::make_overlay;

struct ScenarioResult {
  GroupStats total;
  sim::NetworkStats net;
};

/// The battery's standard workload: `group_count` groups x `subscribers`
/// members each (staggered subscribes in (0, 1)), `publishes` publishes per
/// group over [2, 6), no churn — loss is the variable under test.
ScenarioResult run_scenario(const overlay::OverlayGraph& graph, multicast::QoS qos,
                            double loss_p, std::uint64_t seed,
                            std::function<bool(const sim::Envelope&)> drop_if = {},
                            std::size_t group_count = 4, std::size_t subscribers = 14,
                            std::size_t publishes = 5) {
  PubSubConfig config;
  config.seed = seed;
  config.loss.drop_probability = loss_p;
  config.loss.drop_if = std::move(drop_if);
  config.reliability.qos = qos;
  config.reliability.ack_timeout = 0.05;
  config.reliability.max_retries = 5;
  PubSubSystem system(graph, config);

  util::Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  for (GroupId g = 0; g < group_count; ++g) {
    const PeerId root = system.manager().root_of(g);
    std::vector<bool> chosen(graph.size(), false);
    std::vector<PeerId> members;
    while (members.size() < subscribers) {
      const auto p = static_cast<PeerId>(rng.next_below(graph.size()));
      if (chosen[p] || p == root) continue;
      chosen[p] = true;
      members.push_back(p);
      system.subscribe_at(0.001 * static_cast<double>(members.size()), p, g);
    }
    for (std::size_t i = 0; i < publishes; ++i)
      system.publish_at(2.0 + 0.8 * static_cast<double>(i), members[i % subscribers], g);
  }
  system.run();
  return {system.total_stats(), system.simulator().stats()};
}

TEST(GroupsReliabilityTest, LossSweepQoS1HoldsDeliveryWhereQoS0Degrades) {
  const auto graph = make_overlay(220, 2, 901);
  for (const double p : {0.0, 0.05, 0.15}) {
    SCOPED_TRACE("loss=" + std::to_string(p));
    const auto q0 = run_scenario(graph, multicast::QoS::kFireAndForget, p, 17);
    const auto q1 = run_scenario(graph, multicast::QoS::kAcked, p, 17);

    EXPECT_GE(q1.total.delivery_ratio(), 0.99);
    if (p == 0.0) {
      // Identical outcomes, and the acked plane pays exactly one ack per
      // payload hop for them.
      EXPECT_DOUBLE_EQ(q0.total.delivery_ratio(), 1.0);
      EXPECT_DOUBLE_EQ(q1.total.delivery_ratio(), 1.0);
      EXPECT_EQ(q1.total.retransmissions, 0u);
      EXPECT_EQ(q1.total.ack_messages, q1.total.payload_messages);
    } else {
      // Fire-and-forget measurably degrades; the acked plane holds.
      EXPECT_LT(q0.total.delivery_ratio(), 0.99);
      EXPECT_LT(q0.total.delivery_ratio(), q1.total.delivery_ratio() - 0.01);
      EXPECT_GT(q1.total.retransmissions, 0u);
    }
    // QoS 0 never touches the reliability machinery.
    EXPECT_EQ(q0.total.ack_messages, 0u);
    EXPECT_EQ(q0.total.retransmissions, 0u);
    EXPECT_EQ(q0.total.abandoned_hops, 0u);
    EXPECT_EQ(q0.total.duplicate_deliveries, 0u);
    EXPECT_EQ(q0.net.sent_by_kind.count(kDeliverAckKind), 0u);
    // Per-group counters and the transport's per-kind counts must agree.
    EXPECT_EQ(q1.net.sent_by_kind.at(kDeliverKind),
              q1.total.payload_messages + q1.total.retransmissions);
    EXPECT_EQ(q1.net.sent_by_kind.at(kDeliverAckKind), q1.total.ack_messages);
  }
}

TEST(GroupsReliabilityTest, RetryBudgetExhaustionSurfacesAsAbandonedHops) {
  const auto graph = make_overlay(120, 2, 902);
  // Sever one subscriber's incoming payload link entirely: every wave's hop
  // to it must burn the full budget and be reported abandoned.
  const GroupId g = 0;
  const std::size_t publishes = 3;
  auto victim = std::make_shared<PeerId>(kInvalidPeer);
  PubSubConfig config;
  config.seed = 23;
  config.loss.drop_if = [victim](const sim::Envelope& e) {
    return e.kind == kDeliverKind && e.to == *victim;
  };
  config.reliability.qos = multicast::QoS::kAcked;
  config.reliability.ack_timeout = 0.05;
  config.reliability.max_retries = 5;
  PubSubSystem system(graph, config);

  const PeerId root = system.manager().root_of(g);
  std::vector<PeerId> members;
  for (PeerId p = 0; members.size() < 10; ++p)
    if (p != root) members.push_back(p);
  for (std::size_t i = 0; i < members.size(); ++i)
    system.subscribe_at(0.001 * static_cast<double>(i + 1), members[i], g);
  *victim = members[3];
  for (std::size_t i = 0; i < publishes; ++i)
    system.publish_at(2.0 + 0.8 * static_cast<double>(i), members[i], g);
  system.run();

  const auto& stats = system.stats(g);
  ASSERT_EQ(stats.publishes, publishes);
  EXPECT_EQ(stats.abandoned_hops, publishes);          // one dead hop per wave
  EXPECT_EQ(stats.retransmissions, publishes * 5);     // the full budget each time
  EXPECT_LT(stats.delivery_ratio(), 1.0);
  EXPECT_EQ(system.hop_stats().abandoned_hops, stats.abandoned_hops);
  EXPECT_EQ(system.hop_stats().retransmissions, stats.retransmissions);
}

TEST(GroupsReliabilityTest, DuplicateDeliverIsStillAckedRegression) {
  // Regression for the dedup/ack interaction: when a link's first ack is
  // lost, the retransmission hits the per-(group, seq) dedup as a
  // duplicate. The duplicate MUST still be acked — otherwise the sender
  // keeps retransmitting until its budget dies on a link that already
  // delivered (abandoned_hops > 0, retransmissions = budget x links).
  const auto graph = make_overlay(120, 2, 903);
  auto acks_dropped = std::make_shared<std::set<std::pair<sim::NodeId, sim::NodeId>>>();
  auto drop_first_ack_per_link = [acks_dropped](const sim::Envelope& e) {
    if (e.kind != kDeliverAckKind) return false;
    return acks_dropped->emplace(e.from, e.to).second;  // first ack on this link
  };
  const auto lossy = run_scenario(graph, multicast::QoS::kAcked, 0.0, 29,
                                  drop_first_ack_per_link);
  const auto clean = run_scenario(graph, multicast::QoS::kAcked, 0.0, 29);

  ASSERT_GT(lossy.total.duplicate_deliveries, 0u);
  // The re-ack rescued every sender: nothing abandoned, one retransmission
  // per suppressed duplicate, and delivery untouched.
  EXPECT_EQ(lossy.total.abandoned_hops, 0u);
  EXPECT_EQ(lossy.total.retransmissions, lossy.total.duplicate_deliveries);
  EXPECT_DOUBLE_EQ(lossy.total.delivery_ratio(), 1.0);
  EXPECT_EQ(lossy.total.deliveries, clean.total.deliveries);
  // Duplicates were not re-forwarded: first-copy payload traffic matches
  // the undisturbed run exactly.
  EXPECT_EQ(lossy.total.payload_messages, clean.total.payload_messages);
}

TEST(GroupsReliabilityTest, StatsAreBitIdenticalAcrossRunsWithTheSameSeed) {
  const auto graph = make_overlay(150, 2, 904);
  const auto a = run_scenario(graph, multicast::QoS::kAcked, 0.15, 31);
  const auto b = run_scenario(graph, multicast::QoS::kAcked, 0.15, 31);

  EXPECT_EQ(a.total.subscribes, b.total.subscribes);
  EXPECT_EQ(a.total.publishes, b.total.publishes);
  EXPECT_EQ(a.total.expected_deliveries, b.total.expected_deliveries);
  EXPECT_EQ(a.total.deliveries, b.total.deliveries);
  EXPECT_EQ(a.total.duplicate_deliveries, b.total.duplicate_deliveries);
  EXPECT_EQ(a.total.payload_messages, b.total.payload_messages);
  EXPECT_EQ(a.total.ack_messages, b.total.ack_messages);
  EXPECT_EQ(a.total.retransmissions, b.total.retransmissions);
  EXPECT_EQ(a.total.abandoned_hops, b.total.abandoned_hops);
  EXPECT_EQ(a.total.control_messages, b.total.control_messages);
  EXPECT_EQ(a.total.stranded_messages, b.total.stranded_messages);
  EXPECT_EQ(a.net.sent, b.net.sent);
  EXPECT_EQ(a.net.delivered, b.net.delivered);
  EXPECT_EQ(a.net.dropped, b.net.dropped);
  EXPECT_EQ(a.net.sent_by_kind, b.net.sent_by_kind);
}

/// Ordering scenario: a clean warm wave (seq 0) initializes every QoS 2
/// window, then the victim's first copy of seq 1 is dropped while seq 2
/// publishes hot on its heels — so seq 1 can only reach the victim after
/// seq 2, via retransmission (QoS 1/2) or never (QoS 0). Returns the
/// victim's application-level delivery order.
struct OrderingOutcome {
  std::vector<std::uint64_t> victim_order;
  GroupStats stats;
};
OrderingOutcome run_ordering_scenario(const overlay::OverlayGraph& graph,
                                      multicast::QoS qos, PeerId victim,
                                      std::uint64_t seed) {
  PubSubConfig config;
  config.seed = seed;
  config.reliability.qos = qos;
  config.reliability.ack_timeout = 0.05;
  config.reliability.max_retries = 5;
  auto dropped = std::make_shared<bool>(false);
  config.loss.drop_if = [victim, dropped](const sim::Envelope& e) {
    if (*dropped || e.kind != kDeliverKind || e.to != victim) return false;
    if (std::any_cast<const DeliveryPtr&>(e.payload)->seq != 1) return false;
    *dropped = true;
    return true;
  };
  PubSubSystem system(graph, config);
  OrderingOutcome outcome;
  system.set_delivery_probe(
      [&outcome, victim](PeerId p, GroupId, std::uint64_t seq, double) {
        if (p == victim) outcome.victim_order.push_back(seq);
      });
  testutil::subscribe_members(system, graph, 0, 12, seed);
  // Root-published so wave timing is exact: seq 2 leaves 30ms after seq 1,
  // well inside the 50ms retransmission the dropped copy must wait for.
  const PeerId root = system.manager().root_of(0);
  system.publish_at(2.0, root, 0);
  system.publish_at(3.0, root, 0);
  system.publish_at(3.03, root, 0);
  system.run();
  outcome.stats = system.stats(0);
  return outcome;
}

TEST(GroupsReliabilityTest, OrderingGuaranteesDifferAcrossTheQoSLadder) {
  const auto graph = make_overlay(150, 2, 906);
  const std::uint64_t seed = 67;
  // The tree is a pure function of (graph, root, membership), so the dry
  // run's leaf pick holds for the lossy ordering scenarios too.
  const PeerId victim = testutil::find_leaf_subscriber(graph, 0, 12, seed, 1);
  ASSERT_NE(victim, kInvalidPeer);

  {
    // QoS 0: the dropped copy is simply gone — a gap, not a reorder (with
    // a static tree and constant latency QoS 0 happens to preserve order;
    // a graft or repair between publishes voids even that — see the
    // ordering contract in pubsub.hpp).
    SCOPED_TRACE("qos=0");
    const auto r = run_ordering_scenario(graph, multicast::QoS::kFireAndForget,
                                         victim, seed);
    EXPECT_EQ(r.victim_order, (std::vector<std::uint64_t>{0, 2}));
    EXPECT_EQ(r.stats.deliveries, r.stats.expected_deliveries - 1);
  }
  {
    // QoS 1: retransmission recovers the copy but delivers it AFTER the
    // younger seq — the latent out-of-order delivery this battery pins.
    SCOPED_TRACE("qos=1");
    const auto r = run_ordering_scenario(graph, multicast::QoS::kAcked, victim, seed);
    EXPECT_EQ(r.victim_order, (std::vector<std::uint64_t>{0, 2, 1}));
    EXPECT_FALSE(std::is_sorted(r.victim_order.begin(), r.victim_order.end()));
    EXPECT_EQ(r.stats.deliveries, r.stats.expected_deliveries);  // nothing lost
  }
  {
    // QoS 2: the window holds seq 2 back until the retransmitted seq 1
    // lands, then releases in order — and because per-hop recovery healed
    // the gap before the gap timeout, the repair plane never sent a NACK
    // (the piggyback contract: no double repair).
    SCOPED_TRACE("qos=2");
    const auto r = run_ordering_scenario(graph, multicast::QoS::kEndToEnd, victim, seed);
    EXPECT_EQ(r.victim_order, (std::vector<std::uint64_t>{0, 1, 2}));
    EXPECT_EQ(r.stats.deliveries, r.stats.expected_deliveries);
    EXPECT_EQ(r.stats.gap_seqs_detected, 1u);
    EXPECT_EQ(r.stats.gap_seqs_repaired, 1u);
    EXPECT_EQ(r.stats.nacks_sent, 0u);
    EXPECT_EQ(r.stats.repairs_served, 0u);
    EXPECT_EQ(r.stats.pre_window_deliveries, 0u);
  }
}

TEST(GroupsReliabilityTest, QoSZeroPathIsUnaffectedByReliabilitySettings) {
  // Under QoS 0 the ack_timeout/max_retries knobs must be inert: the layer
  // is a passthrough and the run is bit-identical whatever they say.
  const auto graph = make_overlay(100, 2, 905);
  auto run_with = [&](double timeout, std::size_t retries) {
    PubSubConfig config;
    config.seed = 11;
    config.loss.drop_probability = 0.1;
    config.reliability.qos = multicast::QoS::kFireAndForget;
    config.reliability.ack_timeout = timeout;
    config.reliability.max_retries = retries;
    PubSubSystem system(graph, config);
    const auto members_seed = 61;
    util::Rng rng(members_seed);
    const PeerId root = system.manager().root_of(1);
    std::vector<PeerId> members;
    std::vector<bool> chosen(graph.size(), false);
    while (members.size() < 12) {
      const auto p = static_cast<PeerId>(rng.next_below(graph.size()));
      if (chosen[p] || p == root) continue;
      chosen[p] = true;
      members.push_back(p);
      system.subscribe_at(0.001 * static_cast<double>(members.size()), p, 1);
    }
    for (std::size_t i = 0; i < 4; ++i)
      system.publish_at(2.0 + 0.5 * static_cast<double>(i), members[i], 1);
    system.run();
    return std::make_tuple(system.stats(1).deliveries, system.stats(1).payload_messages,
                           system.stats(1).control_messages,
                           system.simulator().stats().sent,
                           system.simulator().stats().dropped);
  };
  EXPECT_EQ(run_with(0.05, 5), run_with(9.0, 0));
}

TEST(GroupsReliabilityTest, FullSpanQoS1GroupIsTheSection2Push) {
  // A group over every peer is the §2 push: one root publish runs down the
  // tree build_multicast_tree builds from the group's root, one payload
  // envelope and one ack per tree edge, each peer reached at depth x
  // latency after the publish.
  const auto graph = make_overlay(120, 2, 71);
  const double latency = 0.01;
  const double publish_time = 2.0;
  for (const auto qos : {multicast::QoS::kFireAndForget, multicast::QoS::kAcked}) {
    SCOPED_TRACE("qos=" + std::to_string(static_cast<int>(qos)));
    PubSubConfig config;
    config.latency = sim::LatencyModel::constant(latency);
    config.reliability.qos = qos;
    PubSubSystem system(graph, config);
    const PeerId root = system.manager().root_of(0);
    for (PeerId p = 0; p < graph.size(); ++p)
      if (p != root) system.subscribe_at(0.001 * static_cast<double>(p + 1), p, 0);
    std::vector<double> delivered_at(graph.size(), -1.0);
    system.set_delivery_probe([&delivered_at](PeerId p, GroupId, std::uint64_t, double t) {
      delivered_at[p] = t;
    });
    system.publish_at(publish_time, root, 0);
    system.run();

    const auto reference = multicast::build_multicast_tree(graph, root).tree;
    const GroupTree* gt = system.manager().cached_tree(0);
    ASSERT_NE(gt, nullptr);
    const auto depths = reference.depths();
    for (PeerId p = 0; p < graph.size(); ++p) {
      EXPECT_EQ(gt->tree.parent(p), reference.parent(p)) << "peer " << p;
      if (p == root) continue;
      EXPECT_NEAR(delivered_at[p],
                  publish_time + static_cast<double>(depths[p]) * latency, 1e-12)
          << "peer " << p;
    }

    const auto& stats = system.stats(0);
    const std::uint64_t edges = graph.size() - 1;
    EXPECT_EQ(stats.deliveries, edges);
    EXPECT_EQ(stats.payload_messages, edges);
    EXPECT_EQ(stats.ack_messages, qos == multicast::QoS::kAcked ? edges : 0u);
    EXPECT_EQ(stats.retransmissions, 0u);
    EXPECT_EQ(stats.duplicate_deliveries, 0u);
    EXPECT_EQ(stats.abandoned_hops, 0u);
  }
}

}  // namespace
}  // namespace geomcast::groups
