// Routed-graft equivalence battery: the distributed zone descent
// (PubSubConfig::routed_graft, kinds 28–31) against the synchronous
// local-descent oracle it replaced on the hot subscribe path.
//
// The contract under test is strict: on pinned seeds with zero loss and no
// churn, driving every graft with routed kGraftRequestKind envelopes must
// land on BIT-IDENTICAL trees — same edge set, same delivery flags — and
// the identical delivered (peer, group, seq) set as GroupManager::
// subscribe's local recursion, while every descent hop shows up in
// NetworkStats as a real control envelope. Under loss, the QoS 1 graft
// plane must still converge: every registered subscriber ends up spanned.
// (The churn-mid-graft half of the story lives in
// tests/groups_graft_churn_test.cpp.)
#include <algorithm>
#include <set>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "groups/message_kinds.hpp"
#include "groups/pubsub.hpp"
#include "groups_test_util.hpp"

namespace geomcast::groups {
namespace {

using testutil::make_overlay;

/// One application-level delivery, the unit the equivalence gate compares.
using DeliveryKey = std::tuple<PeerId, GroupId, std::uint64_t>;

/// Canonical form of a group tree for bit-identical comparison: the sorted
/// (parent, child) edge set, the flagged peers and the stranded ones.
struct TreeShape {
  std::vector<std::pair<PeerId, PeerId>> edges;
  std::vector<PeerId> flagged;
  std::vector<PeerId> stranded;
  bool operator==(const TreeShape&) const = default;
};

TreeShape shape_of(const GroupTree& gt) {
  TreeShape shape;
  for (PeerId p = 0; p < gt.tree.peer_count(); ++p) {
    if (p != gt.tree.root() && gt.tree.reached(p))
      shape.edges.emplace_back(gt.tree.parent(p), p);
    if (gt.tree.delivers(p)) shape.flagged.push_back(p);
  }
  std::sort(shape.edges.begin(), shape.edges.end());
  shape.stranded = gt.stranded;
  return shape;
}

struct WorkloadResult {
  std::set<DeliveryKey> delivered;
  std::vector<TreeShape> trees;  // one per group, in group-id order
  GroupStats total;
  sim::NetworkStats net;
  std::size_t inflight = 0;
};

/// Deterministic member pick: `count` distinct non-root peers for `group`,
/// a pure function of (graph, group, seed).
std::vector<PeerId> pick_members(const overlay::OverlayGraph& graph, PeerId root,
                                 std::size_t count, std::uint64_t seed) {
  util::Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  std::vector<bool> chosen(graph.size(), false);
  std::vector<PeerId> members;
  while (members.size() < count) {
    const auto p = static_cast<PeerId>(rng.next_below(graph.size()));
    if (chosen[p] || p == root) continue;
    chosen[p] = true;
    members.push_back(p);
  }
  return members;
}

/// The graft-heavy workload: half the members subscribe before the warm
/// publish (the lazy build), the other half after it — every late member
/// is a graft against the clean cached tree. Settle gaps around the
/// publishes keep graft completion and wave delivery from racing, which
/// is what makes "identical delivered sets" well-defined across the two
/// control planes (the routed descent finishes a few hops of latency
/// later than the local one).
WorkloadResult run_graft_workload(const overlay::OverlayGraph& graph, bool routed,
                                  std::uint64_t seed, double loss,
                                  std::size_t group_count = 4,
                                  std::size_t members_per_group = 10) {
  PubSubConfig config;
  config.seed = seed;
  config.routed_graft = routed;
  config.loss.drop_probability = loss;
  PubSubSystem system(graph, config);
  WorkloadResult result;
  system.set_delivery_probe(
      [&result](PeerId peer, GroupId group, std::uint64_t seq, double) {
        result.delivered.emplace(peer, group, seq);
      });
  for (GroupId g = 0; g < group_count; ++g) {
    const PeerId root = system.manager().root_of(g);
    const auto members = pick_members(graph, root, members_per_group, seed * 131 + g);
    const std::size_t early = members_per_group / 2;
    for (std::size_t i = 0; i < members.size(); ++i) {
      const double when = i < early
                              ? 0.001 * static_cast<double>(i + 1)        // pre-build
                              : 3.0 + 0.05 * static_cast<double>(i + 1);  // grafts
      system.subscribe_at(when, members[i], g);
    }
    system.publish_at(2.0, members[0], g);  // warm: pays the lazy build
    system.publish_at(6.0, members[1], g);  // post-graft wave
    system.publish_at(7.0, members[2], g);
  }
  system.run();
  result.total = system.total_stats();
  result.net = system.simulator().stats();
  result.inflight = system.manager().inflight_graft_count();
  for (GroupId g = 0; g < group_count; ++g) {
    const GroupTree* gt = system.manager().cached_tree(g);
    result.trees.push_back(gt == nullptr ? TreeShape{} : shape_of(*gt));
  }
  return result;
}

TEST(RoutedGraftTest, MessageKindRegistryIsPinned) {
  // The registry is dispatch ABI: a renumbering silently breaks any
  // recorded trace or cross-version comparison, so the values are pinned
  // here in addition to the compile-time uniqueness check.
  EXPECT_EQ(kSubscribeKind, 20u);
  EXPECT_EQ(kUnsubscribeKind, 21u);
  EXPECT_EQ(kPublishKind, 22u);
  EXPECT_EQ(kDeliverKind, 23u);
  EXPECT_EQ(kDeliverAckKind, 24u);
  EXPECT_EQ(kNackKind, 25u);
  EXPECT_EQ(kRepairKind, 26u);
  EXPECT_EQ(kRepairMissKind, 27u);
  EXPECT_EQ(kGraftRequestKind, 28u);
  EXPECT_EQ(kGraftAcceptKind, 29u);
  EXPECT_EQ(kGraftRejectKind, 30u);
  EXPECT_EQ(kGraftAckKind, 31u);
}

TEST(RoutedGraftTest, BitIdenticalToLocalOracleOnPinnedSeeds) {
  for (const std::uint64_t seed : {401ULL, 402ULL, 403ULL}) {
    const auto graph = make_overlay(150, 3, seed);
    const auto local = run_graft_workload(graph, /*routed=*/false, seed, 0.0);
    const auto routed = run_graft_workload(graph, /*routed=*/true, seed, 0.0);

    // The heart of the contract: same trees, same deliveries, bit for bit.
    EXPECT_EQ(routed.trees, local.trees) << "seed " << seed;
    EXPECT_EQ(routed.delivered, local.delivered) << "seed " << seed;

    // Graft accounting must agree too: the routed descent takes the SAME
    // decisions (graft_messages), one per step, as the local recursion.
    ASSERT_GT(local.total.grafts, 0u) << "seed " << seed
                                      << ": workload produced no grafts";
    EXPECT_EQ(routed.total.grafts, local.total.grafts) << "seed " << seed;
    EXPECT_EQ(routed.total.graft_messages, local.total.graft_messages)
        << "seed " << seed;
    EXPECT_EQ(routed.total.subscribes, local.total.subscribes) << "seed " << seed;
    EXPECT_EQ(routed.total.graft_aborts, 0u) << "seed " << seed;
    EXPECT_EQ(routed.inflight, 0u) << "seed " << seed;

    // What distinguishes the modes is exactly WHERE the cost lives: the
    // local oracle's descent is free on the network; the routed one pays
    // real envelopes, every one of them attributed.
    EXPECT_EQ(local.total.graft_hops, 0u) << "seed " << seed;
    EXPECT_FALSE(local.net.sent_by_kind.contains(kGraftRequestKind)) << "seed " << seed;
    EXPECT_GT(routed.total.graft_hops, 0u) << "seed " << seed;
    EXPECT_GT(routed.net.sent, local.net.sent) << "seed " << seed;
    const auto requests = routed.net.sent_by_kind.find(kGraftRequestKind);
    ASSERT_NE(requests, routed.net.sent_by_kind.end()) << "seed " << seed;
    EXPECT_EQ(requests->second, routed.total.graft_hops) << "seed " << seed;
  }
}

TEST(RoutedGraftTest, DescentEnvelopeCountTracksDecisionCount) {
  // Per graft that attaches through its own final decision, the descent
  // takes k decisions but sends only k-1 request envelopes (the root's
  // first decision is local; the final decision is taken by the
  // subscriber's parent, which reports accept instead of descending). A
  // graft that attaches WITHOUT a decision of its own — the subscriber was
  // already spanned when its step ran, e.g. recruited as a relay by a
  // concurrent descent — sends one envelope per decision instead. Hence
  // the aggregate is bracketed, not exactly decisions - grafts:
  //   decisions - grafts <= hops <= decisions.
  const auto graph = make_overlay(150, 3, 404);
  const auto routed = run_graft_workload(graph, /*routed=*/true, 404, 0.0);
  ASSERT_GT(routed.total.grafts, 0u);
  ASSERT_GE(routed.total.graft_messages, routed.total.grafts);
  EXPECT_GE(routed.total.graft_hops,
            routed.total.graft_messages - routed.total.grafts);
  EXPECT_LE(routed.total.graft_hops, routed.total.graft_messages);
}

TEST(RoutedGraftTest, ConvergesUnderLoss) {
  // 5% per-link loss: descent envelopes drop, the QoS 1 graft layer
  // retransmits, and every subscriber whose kSubscribeKind survived the
  // (unreliable, greedy-routed) control path must end up spanned by its
  // group's tree — the "no stranded subscriber" half of the acceptance
  // gate. Lost subscribes shrink membership, never strand it.
  for (const std::uint64_t seed : {411ULL, 412ULL}) {
    const auto graph = make_overlay(150, 3, seed);
    PubSubConfig config;
    config.seed = seed;
    config.routed_graft = true;
    config.loss.drop_probability = 0.05;
    PubSubSystem system(graph, config);
    constexpr GroupId kGroups = 4;
    for (GroupId g = 0; g < kGroups; ++g) {
      const PeerId root = system.manager().root_of(g);
      const auto members = pick_members(graph, root, 10, seed * 131 + g);
      for (std::size_t i = 0; i < members.size(); ++i) {
        const double when = i < 5 ? 0.001 * static_cast<double>(i + 1)
                                  : 3.0 + 0.05 * static_cast<double>(i + 1);
        system.subscribe_at(when, members[i], g);
      }
      system.publish_at(2.0, members[0], g);
      system.publish_at(8.0, members[1], g);
    }
    system.run();

    EXPECT_EQ(system.manager().inflight_graft_count(), 0u) << "seed " << seed;
    for (GroupId g = 0; g < kGroups; ++g) {
      // tree(g) refreshes: if an abort dirtied the cache, this is the
      // rebuild the abort deferred to — afterwards every registered
      // member must be spanned with its delivery flag set.
      const GroupTree* gt = system.manager().tree(g);
      ASSERT_NE(gt, nullptr) << "seed " << seed << " group " << g;
      EXPECT_EQ(gt->subscriber_count(), gt->reached_subscribers())
          << "seed " << seed << " group " << g;
      for (PeerId p = 0; p < graph.size(); ++p)
        if (system.manager().is_subscribed(g, p)) {
          EXPECT_TRUE(gt->tree.delivers(p))
              << "seed " << seed << " group " << g << " peer " << p;
        }
    }
    const auto net = system.simulator().stats();
    EXPECT_TRUE(net.sent_by_kind.contains(kSubscribeKind)) << "seed " << seed;
    EXPECT_TRUE(net.sent_by_kind.contains(kGraftRequestKind)) << "seed " << seed;
  }
}

TEST(RoutedGraftTest, UnsubscribeResubscribeRacingInFlightAcceptRebuilds) {
  // Manager-level replay of the accept race: the descent has attached the
  // subscriber but the accept is still "in flight" (the entry and its
  // (group, subscriber) guard are held) when an unsubscribe prunes the
  // subscriber back out of the still-clean tree and a re-subscribe is
  // blocked by that guard. graft_finish must notice the member is owed a
  // span the tree no longer gives and defer to a rebuild — the regression
  // was a clean, un-dirtied cache that never delivered to the member.
  const auto graph = make_overlay(100, 2, 430);
  GroupManager manager(graph);
  const GroupId g = 3;
  const PeerId root = manager.root_of(g);
  for (const PeerId m : pick_members(graph, root, 6, 555)) manager.subscribe(g, m);
  ASSERT_NE(manager.tree(g), nullptr);  // build + cache
  PeerId late = kInvalidPeer;
  for (PeerId p = 0; p < graph.size() && late == kInvalidPeer; ++p)
    if (p != root && !manager.is_subscribed(g, p) &&
        !manager.tree(g)->tree.reached(p))
      late = p;
  ASSERT_NE(late, kInvalidPeer);

  ASSERT_EQ(manager.subscribe_membership(g, late),
            GroupManager::SubscribeNeed::kGraft);
  const std::uint64_t id = manager.graft_begin(g, late, root);
  ASSERT_NE(id, 0u);
  PeerId current = root;
  for (std::size_t guard = 0; guard <= graph.size(); ++guard) {
    const auto advance = manager.graft_advance(id, current);
    ASSERT_NE(advance.status, GroupManager::GraftAdvance::Status::kFailed);
    if (advance.status == GroupManager::GraftAdvance::Status::kAttached) break;
    current = advance.next;
  }

  // Accept in flight: the membership churns first.
  manager.unsubscribe(g, late);
  ASSERT_EQ(manager.subscribe_membership(g, late),
            GroupManager::SubscribeNeed::kGraft);
  EXPECT_EQ(manager.graft_begin(g, late, root), 0u);  // guard still held

  // The accept lands: finish must flag the cache for rebuild.
  EXPECT_TRUE(manager.graft_finish(id));
  EXPECT_EQ(manager.inflight_graft_count(), 0u);
  const GroupTree* gt = manager.tree(g);  // the deferred rebuild
  ASSERT_NE(gt, nullptr);
  EXPECT_TRUE(gt->tree.delivers(late))
      << "re-subscribed member left unspanned by a clean cache";
}

TEST(RoutedGraftTest, ResubscribeIsIdempotentWithConcurrentDescent) {
  // A duplicate subscribe while a descent is in flight must neither start
  // a second descent for the same subscriber nor disturb the first.
  const auto graph = make_overlay(100, 2, 420);
  PubSubConfig config;
  config.seed = 420;
  PubSubSystem system(graph, config);
  const GroupId g = 1;
  const PeerId root = system.manager().root_of(g);
  const auto members = pick_members(graph, root, 6, 999);
  for (std::size_t i = 0; i + 1 < members.size(); ++i)
    system.subscribe_at(0.001 * static_cast<double>(i + 1), members[i], g);
  system.publish_at(2.0, members[0], g);
  const PeerId late = members.back();
  // Three back-to-back subscribes: the first starts the descent, the
  // rest land at the root while it is still in flight.
  system.subscribe_at(3.0, late, g);
  system.subscribe_at(3.005, late, g);
  system.subscribe_at(3.01, late, g);
  system.publish_at(5.0, members[1], g);
  system.run();

  const auto& stats = system.stats(g);
  EXPECT_EQ(stats.grafts, 1u);
  EXPECT_EQ(stats.graft_aborts, 0u);
  EXPECT_EQ(system.manager().inflight_graft_count(), 0u);
  const GroupTree* gt = system.manager().cached_tree(g);
  ASSERT_NE(gt, nullptr);
  EXPECT_TRUE(gt->tree.delivers(late));
}

}  // namespace
}  // namespace geomcast::groups
