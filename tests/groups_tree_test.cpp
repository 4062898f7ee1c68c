#include "groups/group_tree.hpp"

#include <gtest/gtest.h>

#include <deque>

#include "geometry/random_points.hpp"
#include "multicast/local_rule.hpp"
#include "multicast/space_partition.hpp"
#include "multicast/zone.hpp"
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
    if (fresh.tree.reached(p) && p != 0) {
      EXPECT_EQ(shrunk.tree.parent(p), fresh.tree.parent(p)) << "peer " << p;
    }
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

// ----------------------------------------------- flat build vs deque build
// The builder's FIFO over one flat queue, with the subscriber array
// partitioned in place, against the shape it replaced: a deque of entries
// that each own a vector of subscribers, split per slice into fresh
// vectors. Children order sets the dissemination order, so it is compared
// peer by peer, along with zones, build_messages and reached_subscribers —
// after the build and again after the same graft on both trees.

GroupTree deque_reference_build(const overlay::OverlayGraph& graph, PeerId root,
                                const std::vector<bool>& subscribers,
                                const std::vector<bool>& alive) {
  GroupTree gt;
  gt.tree = multicast::MulticastTree(graph.size(), root);
  gt.is_subscriber = subscribers;
  std::vector<PeerId> ids;
  for (PeerId p = 0; p < graph.size(); ++p)
    if (subscribers[p]) {
      ++gt.subscriber_count;
      ids.push_back(p);
    }
  struct Pending {
    PeerId peer;
    geometry::Rect zone;
    std::vector<PeerId> subs;
  };
  const geometry::Rect root_zone = multicast::initiator_zone(graph.dims());
  gt.zones.emplace(root, root_zone);
  std::deque<Pending> queue;
  queue.push_back(Pending{root, root_zone, ids});
  std::vector<multicast::ZoneAssignment> assignments;
  multicast::StepScratch scratch;
  while (!queue.empty()) {
    const Pending current = std::move(queue.front());
    queue.pop_front();
    multicast::partition_step(graph, current.peer, current.zone, alive,
                              multicast::PickPolicy::kMedian, geometry::Metric::kL1, nullptr,
                              assignments, scratch);
    std::vector<std::vector<PeerId>> split(assignments.size());
    for (PeerId s : current.subs)
      for (std::size_t i = 0; i < assignments.size(); ++i)
        if (assignments[i].zone.contains_interior(graph.point(s))) {
          split[i].push_back(s);
          break;
        }
    for (std::size_t i = 0; i < assignments.size(); ++i) {
      if (split[i].empty()) continue;
      ++gt.build_messages;
      gt.tree.add_edge(current.peer, assignments[i].child);
      gt.zones.emplace(assignments[i].child, assignments[i].zone);
      queue.push_back(Pending{assignments[i].child, assignments[i].zone, std::move(split[i])});
    }
  }
  for (PeerId s : ids)
    if (gt.tree.reached(s)) ++gt.reached_subscribers;
  return gt;
}

void expect_identical_trees(const overlay::OverlayGraph& graph, const GroupTree& a,
                            const GroupTree& b) {
  EXPECT_EQ(a.tree.reached_count(), b.tree.reached_count());
  for (PeerId p = 0; p < graph.size(); ++p) {
    ASSERT_EQ(a.tree.reached(p), b.tree.reached(p)) << "peer " << p;
    EXPECT_EQ(a.tree.parent(p), b.tree.parent(p)) << "peer " << p;
    EXPECT_EQ(a.tree.children(p), b.tree.children(p)) << "children order of peer " << p;
  }
  expect_same_zones(a, b);
  EXPECT_EQ(a.build_messages, b.build_messages);
  EXPECT_EQ(a.subscriber_count, b.subscriber_count);
  EXPECT_EQ(a.reached_subscribers, b.reached_subscribers);
}

class FlatBuildTest : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {};

TEST_P(FlatBuildTest, EqualsDequeReferenceBeforeAndAfterAGraft) {
  const auto [dims, seed] = GetParam();
  const auto graph = make_overlay(150, dims, seed);
  const std::size_t n = graph.size();
  util::Rng rng(seed * 31);
  std::vector<bool> alive(n, true);
  for (std::size_t dead = 0; dead < 15; ++dead) alive[1 + rng.next_below(n - 1)] = false;
  for (const std::size_t group_size : {1u, 6u, 25u, 60u}) {
    std::vector<bool> subs(n, false);
    for (std::size_t placed = 0; placed < group_size;) {
      const auto p = static_cast<PeerId>(rng.next_below(n));
      if (alive[p] && !subs[p]) {
        subs[p] = true;
        ++placed;
      }
    }
    auto flat = build_group_tree(graph, 0, subs, {}, alive);
    auto reference = deque_reference_build(graph, 0, subs, alive);
    expect_identical_trees(graph, flat, reference);

    PeerId extra = kInvalidPeer;
    while (extra == kInvalidPeer) {
      const auto p = static_cast<PeerId>(rng.next_below(n));
      if (alive[p] && !subs[p] && !flat.tree.reached(p)) extra = p;
    }
    const auto flat_graft = graft_subscriber(graph, flat, extra, {}, alive);
    const auto reference_graft = graft_subscriber(graph, reference, extra, {}, alive);
    EXPECT_EQ(flat_graft.attached, reference_graft.attached);
    EXPECT_EQ(flat_graft.messages, reference_graft.messages);
    expect_identical_trees(graph, flat, reference);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, FlatBuildTest,
                         ::testing::Combine(::testing::Values(std::size_t{2}, std::size_t{3}),
                                            ::testing::Values(201u, 202u, 203u)));

}  // namespace
}  // namespace geomcast::groups
