#include "groups/group_tree.hpp"

#include <gtest/gtest.h>

#include "geometry/random_points.hpp"
#include "multicast/space_partition.hpp"
#include "overlay/empty_rect.hpp"
#include "overlay/equilibrium.hpp"
#include "util/rng.hpp"

namespace geomcast::groups {
namespace {

overlay::OverlayGraph make_overlay(std::size_t n, std::size_t dims, std::uint64_t seed) {
  util::Rng rng(seed);
  const auto points = geometry::random_points(rng, n, dims, 100.0);
  return overlay::build_equilibrium(points, overlay::EmptyRectSelector{});
}

std::vector<bool> subscriber_mask(std::size_t n, std::initializer_list<PeerId> ids) {
  std::vector<bool> mask(n, false);
  for (PeerId p : ids) mask[p] = true;
  return mask;
}

std::vector<bool> random_mask(std::size_t n, std::size_t count, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<bool> mask(n, false);
  std::size_t placed = 0;
  while (placed < count) {
    const auto p = static_cast<PeerId>(rng.next_below(n));
    if (!mask[p]) {
      mask[p] = true;
      ++placed;
    }
  }
  return mask;
}

/// The zone map holds exactly the reached peers (one entry each).
void expect_zones_exact(const GroupTree& gt) {
  ASSERT_FALSE(gt.zones_stale);
  EXPECT_EQ(gt.zones.size(), gt.tree.reached_count());
  for (const auto& [peer, zone] : gt.zones)
    EXPECT_TRUE(gt.tree.reached(peer)) << "zone kept for unreached peer " << peer;
}

/// Same keys, same rects: an incremental edit left the zones a fresh build
/// would have produced.
void expect_same_zones(const GroupTree& a, const GroupTree& b) {
  expect_zones_exact(a);
  expect_zones_exact(b);
  EXPECT_EQ(a.zones.size(), b.zones.size());
  for (const auto& [peer, zone] : b.zones) {
    const auto it = a.zones.find(peer);
    ASSERT_NE(it, a.zones.end()) << "no zone for peer " << peer;
    EXPECT_EQ(it->second, zone) << "peer " << peer;
  }
}

/// Every flagged subscriber is reached and linked to the root by parent
/// edges.
void expect_spans_subscribers(const overlay::OverlayGraph& graph, const GroupTree& gt) {
  for (PeerId p = 0; p < graph.size(); ++p) {
    if (!gt.is_subscriber[p]) continue;
    ASSERT_TRUE(gt.tree.reached(p)) << "subscriber " << p << " unreached";
    PeerId cursor = p;
    std::size_t guard = 0;
    while (cursor != gt.tree.root()) {
      ASSERT_LE(++guard, graph.size()) << "parent chain of " << p << " does not end";
      cursor = gt.tree.parent(cursor);
    }
  }
}

TEST(GroupTreeTest, SpansAllSubscribersAndPrunesTheRest) {
  const auto graph = make_overlay(80, 2, 101);
  const auto subs = random_mask(graph.size(), 12, 7);
  const auto gt = build_group_tree(graph, 0, subs);
  EXPECT_EQ(gt.subscriber_count, 12u);
  expect_spans_subscribers(graph, gt);
  // A 12-subscriber tree must be strictly cheaper than spanning everyone.
  EXPECT_LT(gt.tree.edge_count(), graph.size() - 1);
  EXPECT_EQ(gt.build_messages, gt.tree.edge_count());
}

TEST(GroupTreeTest, FullSubscriptionMatchesWholeSpaceConstruction) {
  const auto graph = make_overlay(60, 3, 102);
  std::vector<bool> everyone(graph.size(), true);
  const auto gt = build_group_tree(graph, 5, everyone);
  const auto whole = multicast::build_multicast_tree(graph, 5);
  EXPECT_EQ(gt.tree.edge_count(), graph.size() - 1);
  for (PeerId p = 0; p < graph.size(); ++p)
    EXPECT_EQ(gt.tree.parent(p), whole.tree.parent(p)) << "peer " << p;
  EXPECT_EQ(gt.relay_count(), 0u);
}

TEST(GroupTreeTest, DeterministicAcrossRuns) {
  const auto graph = make_overlay(70, 2, 103);
  const auto subs = random_mask(graph.size(), 10, 11);
  const auto a = build_group_tree(graph, 3, subs);
  const auto b = build_group_tree(graph, 3, subs);
  for (PeerId p = 0; p < graph.size(); ++p) EXPECT_EQ(a.tree.parent(p), b.tree.parent(p));
  EXPECT_EQ(a.build_messages, b.build_messages);
}

TEST(GroupTreeTest, GraftEqualsFreshBuild) {
  const auto graph = make_overlay(80, 2, 104);
  auto subs = random_mask(graph.size(), 8, 13);
  // Pick a peer not yet subscribed to graft in.
  PeerId extra = kInvalidPeer;
  for (PeerId p = 0; p < graph.size(); ++p)
    if (!subs[p] && p != 0) {
      extra = p;
      break;
    }
  ASSERT_NE(extra, kInvalidPeer);

  auto grown = build_group_tree(graph, 0, subs);
  const auto graft = graft_subscriber(graph, grown, extra);
  EXPECT_TRUE(graft.attached);
  EXPECT_GT(graft.messages, 0u);

  subs[extra] = true;
  const auto fresh = build_group_tree(graph, 0, subs);
  for (PeerId p = 0; p < graph.size(); ++p) {
    EXPECT_EQ(grown.tree.parent(p), fresh.tree.parent(p)) << "peer " << p;
    EXPECT_EQ(grown.is_subscriber[p], fresh.is_subscriber[p]) << "peer " << p;
  }  expect_same_zones(grown, fresh);
}

TEST(GroupTreeTest, PruneEqualsFreshBuild) {
  const auto graph = make_overlay(80, 2, 105);
  auto subs = random_mask(graph.size(), 9, 17);
  auto shrunk = build_group_tree(graph, 0, subs);
  // A leaf subscriber, so the prune really cascades edges (and zones) away.
  PeerId victim = kInvalidPeer;
  for (PeerId p = 1; p < graph.size(); ++p)
    if (subs[p] && shrunk.tree.children(p).empty()) {
      victim = p;
      break;
    }
  ASSERT_NE(victim, kInvalidPeer);
  EXPECT_GT(prune_subscriber(shrunk, victim), 0u);

  subs[victim] = false;
  const auto fresh = build_group_tree(graph, 0, subs);
  EXPECT_EQ(shrunk.subscriber_count, fresh.subscriber_count);
  for (PeerId p = 0; p < graph.size(); ++p) {
    EXPECT_EQ(shrunk.tree.reached(p), fresh.tree.reached(p)) << "peer " << p;
    if (fresh.tree.reached(p) && p != 0)
      EXPECT_EQ(shrunk.tree.parent(p), fresh.tree.parent(p)) << "peer " << p;
  }  // The pruned chain's zones go with its edges.
  expect_same_zones(shrunk, fresh);
}

TEST(GroupTreeTest, GraftThenPruneIsIdentity) {
  const auto graph = make_overlay(60, 2, 106);
  const auto subs = random_mask(graph.size(), 6, 19);
  PeerId extra = kInvalidPeer;
  for (PeerId p = 0; p < graph.size(); ++p)
    if (!subs[p] && p != 0) {
      extra = p;
      break;
    }
  ASSERT_NE(extra, kInvalidPeer);

  const auto original = build_group_tree(graph, 0, subs);
  auto mutated = build_group_tree(graph, 0, subs);
  ASSERT_TRUE(graft_subscriber(graph, mutated, extra).attached);
  prune_subscriber(mutated, extra);
  for (PeerId p = 0; p < graph.size(); ++p) {
    EXPECT_EQ(mutated.tree.reached(p), original.tree.reached(p)) << "peer " << p;
    EXPECT_EQ(mutated.is_subscriber[p], original.is_subscriber[p]) << "peer " << p;
  }  expect_same_zones(mutated, original);
}

TEST(GroupTreeTest, RepairRemovesDepartedAndKeepsCoverage) {
  const auto graph = make_overlay(80, 2, 107);
  std::vector<bool> everyone(graph.size(), true);
  auto gt = build_group_tree(graph, 0, everyone);

  // Depart an interior peer (has children) that is not the root.
  PeerId departed = kInvalidPeer;
  for (PeerId p = 1; p < graph.size(); ++p)
    if (!gt.tree.children(p).empty()) {
      departed = p;
      break;
    }
  ASSERT_NE(departed, kInvalidPeer);

  std::vector<bool> alive(graph.size(), true);
  alive[departed] = false;
  const auto repair = repair_group_tree(graph, gt, departed, alive);
  ASSERT_FALSE(repair.needs_rebuild);
  EXPECT_GT(repair.reattached, 0u);
  EXPECT_TRUE(gt.zones_stale);
  EXPECT_TRUE(gt.zones.empty());
  EXPECT_FALSE(gt.tree.reached(departed));
  EXPECT_FALSE(gt.is_subscriber[departed]);
  expect_spans_subscribers(graph, gt);
}

TEST(GroupTreeTest, ZonesFollowTheTreeNotTheOverlay) {
  const auto graph = make_overlay(2000, 2, 110);
  const auto subs = random_mask(graph.size(), 16, 23);
  const auto gt = build_group_tree(graph, 0, subs);
  expect_spans_subscribers(graph, gt);
  expect_zones_exact(gt);
  // A 16-subscriber tree reaches a sliver of the overlay; the zones are
  // sized by that sliver, not by n.
  EXPECT_LT(gt.zones.size() * 10, graph.size());
}

TEST(GroupTreeTest, GraftOnStaleZonesThrows) {
  const auto graph = make_overlay(40, 2, 108);
  const auto subs = subscriber_mask(graph.size(), {3, 9, 20});
  auto gt = build_group_tree(graph, 0, subs);
  mark_zones_stale(gt);
  EXPECT_TRUE(gt.zones.empty());
  EXPECT_THROW((void)graft_subscriber(graph, gt, 15), std::logic_error);
}

TEST(GroupTreeTest, GraftStepFromAnUnreachedPeerThrows) {
  const auto graph = make_overlay(40, 2, 108);
  const auto subs = subscriber_mask(graph.size(), {3});
  auto gt = build_group_tree(graph, 0, subs);
  PeerId outside = kInvalidPeer;
  for (PeerId p = 1; p < graph.size(); ++p)
    if (!gt.tree.reached(p)) {
      outside = p;
      break;
    }
  ASSERT_NE(outside, kInvalidPeer);
  // A cursor parked off the tree has no zone to replay the step from.
  GraftCursor cursor{outside, outside, 0};
  EXPECT_THROW((void)graft_step(graph, gt, cursor), std::out_of_range);
}

TEST(GroupTreeTest, RandomPolicyRejected) {
  const auto graph = make_overlay(30, 2, 109);
  const auto subs = subscriber_mask(graph.size(), {1, 2});
  multicast::MulticastConfig config;
  config.policy = multicast::PickPolicy::kRandom;
  EXPECT_THROW((void)build_group_tree(graph, 0, subs, config), std::invalid_argument);
}

}  // namespace
}  // namespace geomcast::groups
