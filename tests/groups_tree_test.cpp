#include "groups/group_tree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "geometry/orthant.hpp"
#include "groups/group_manager.hpp"
#include "multicast/local_rule.hpp"
#include "multicast/space_partition.hpp"
#include "multicast/zone.hpp"
#include "scenario/scenario.hpp"
#include "util/rng.hpp"

namespace geomcast::groups {
namespace {

using scenario::make_overlay;

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

/// The ascending ids a mask marks: build_group_tree's subscriber list.
std::vector<PeerId> ids_of(const std::vector<bool>& mask) {
  std::vector<PeerId> ids;
  for (PeerId p = 0; p < mask.size(); ++p)
    if (mask[p]) ids.push_back(p);
  return ids;
}

/// Whether `p` subscribes to `gt`: spanned (flagged) or stranded.
bool is_member(const GroupTree& gt, PeerId p) {
  return gt.tree.delivers(p) || contains_id(gt.stranded, p);
}

using ZoneMap = std::map<PeerId, geometry::Rect>;

/// The slice of `zone` that `ego` delegates to its orthant `orthant`, by
/// the paper's literal rule Z(P) ∩ HR on Rects — independent of
/// multicast::child_zone, which the code under test uses.
geometry::Rect slice_of(const geometry::Rect& zone, const geometry::Point& ego,
                        geometry::OrthantCode orthant) {
  return zone.intersect(geometry::orthant_rect(ego, orthant));
}

/// A Rect's bounds at exact stride, as a GraftCursor carries them.
std::vector<double> bounds_of(const geometry::Rect& zone) {
  return {zone.bounds().begin(), zone.bounds().end()};
}

/// Each reached peer's zone, recomputed along its root path the way a
/// construction request carries it: the root holds the whole space, and a
/// child holds its parent's zone clipped to the child's orthant.
ZoneMap zones_along_root_paths(const overlay::OverlayGraph& graph, const GroupTree& gt) {
  ZoneMap zones{{gt.tree.root(), multicast::initiator_zone(graph.dims())}};
  std::vector<PeerId> stack{gt.tree.root()};
  while (!stack.empty()) {
    const PeerId p = stack.back();
    stack.pop_back();
    for (PeerId child : gt.tree.children(p)) {
      const geometry::Point ego = graph.point(p);
      zones.emplace(child,
                    slice_of(zones.at(p), ego, geometry::orthant_of(ego, graph.point(child))));
      stack.push_back(child);
    }
  }
  return zones;
}

/// The validator's four zone properties on the group tree: every reached
/// peer lies inside its zone, child zones nest in their parent's, sibling
/// zones are disjoint, and a parent lies outside its children's zones.
void expect_zones_exact(const overlay::OverlayGraph& graph, const GroupTree& gt) {
  ASSERT_FALSE(gt.zones_stale);
  const ZoneMap zones = zones_along_root_paths(graph, gt);
  ASSERT_EQ(zones.size(), gt.tree.reached_count());
  for (const auto& [peer, zone] : zones) {
    EXPECT_TRUE(zone.contains_interior(graph.point(peer))) << "peer " << peer;
    const auto range = gt.tree.children(peer);
    const std::vector<PeerId> kids(range.begin(), range.end());
    for (std::size_t i = 0; i < kids.size(); ++i) {
      const geometry::Rect& child = zones.at(kids[i]);
      EXPECT_TRUE(child.interior_subset_of(zone)) << "child " << kids[i];
      EXPECT_FALSE(child.contains_interior(graph.point(peer))) << "child " << kids[i];
      for (std::size_t j = i + 1; j < kids.size(); ++j)
        EXPECT_TRUE(child.interior_disjoint(zones.at(kids[j])))
            << "siblings " << kids[i] << ", " << kids[j];
    }
  }
}

/// Same peers, same rects: an incremental edit left the zones a fresh
/// build would have produced.
void expect_same_zones(const overlay::OverlayGraph& graph, const GroupTree& a,
                       const GroupTree& b) {
  expect_zones_exact(graph, a);
  expect_zones_exact(graph, b);
  EXPECT_EQ(zones_along_root_paths(graph, a), zones_along_root_paths(graph, b));
}

/// No subscriber is stranded, and every flagged one is linked to the root
/// by parent edges.
void expect_spans_subscribers(const overlay::OverlayGraph& graph, const GroupTree& gt) {
  EXPECT_TRUE(gt.stranded.empty());
  for (PeerId p = 0; p < graph.size(); ++p) {
    if (!gt.tree.delivers(p)) continue;
    PeerId cursor = p;
    std::size_t guard = 0;
    while (cursor != gt.tree.root()) {
      ASSERT_LE(++guard, graph.size()) << "parent chain of " << p << " does not end";
      cursor = gt.tree.parent(cursor);
    }
  }
}

TEST(GroupTreeTest, SpansAllSubscribersAndPrunesTheRest) {
  const auto graph = make_overlay(80, 2, 101).graph;
  const auto subs = random_mask(graph.size(), 12, 7);
  const auto gt = build_group_tree(graph, 0, ids_of(subs));
  EXPECT_EQ(gt.subscriber_count(), 12u);
  expect_spans_subscribers(graph, gt);
  // A 12-subscriber tree must be strictly cheaper than spanning everyone.
  EXPECT_LT(gt.tree.edge_count(), graph.size() - 1);
  EXPECT_EQ(gt.build_messages, gt.tree.edge_count());
}

TEST(GroupTreeTest, FullSubscriptionMatchesWholeSpaceConstruction) {
  const auto graph = make_overlay(60, 3, 102).graph;
  std::vector<bool> everyone(graph.size(), true);
  const auto gt = build_group_tree(graph, 5, ids_of(everyone));
  const auto whole = multicast::build_multicast_tree(graph, 5);
  EXPECT_EQ(gt.tree.edge_count(), graph.size() - 1);
  for (PeerId p = 0; p < graph.size(); ++p)
    EXPECT_EQ(gt.tree.parent(p), whole.tree.parent(p)) << "peer " << p;
  EXPECT_EQ(gt.relay_count(), 0u);
}

TEST(GroupTreeTest, DeterministicAcrossRuns) {
  const auto graph = make_overlay(70, 2, 103).graph;
  const auto subs = random_mask(graph.size(), 10, 11);
  const auto a = build_group_tree(graph, 3, ids_of(subs));
  const auto b = build_group_tree(graph, 3, ids_of(subs));
  for (PeerId p = 0; p < graph.size(); ++p) EXPECT_EQ(a.tree.parent(p), b.tree.parent(p));
  EXPECT_EQ(a.build_messages, b.build_messages);
}

TEST(GroupTreeTest, GraftEqualsFreshBuild) {
  const auto graph = make_overlay(80, 2, 104).graph;
  auto subs = random_mask(graph.size(), 8, 13);
  // Pick a peer not yet subscribed to graft in.
  PeerId extra = kInvalidPeer;
  for (PeerId p = 0; p < graph.size(); ++p)
    if (!subs[p] && p != 0) {
      extra = p;
      break;
    }
  ASSERT_NE(extra, kInvalidPeer);

  auto grown = build_group_tree(graph, 0, ids_of(subs));
  const auto graft = graft_subscriber(graph, grown, extra);
  EXPECT_TRUE(graft.attached);
  EXPECT_GT(graft.messages, 0u);

  subs[extra] = true;
  const auto fresh = build_group_tree(graph, 0, ids_of(subs));
  for (PeerId p = 0; p < graph.size(); ++p) {
    EXPECT_EQ(grown.tree.parent(p), fresh.tree.parent(p)) << "peer " << p;
    EXPECT_EQ(is_member(grown, p), is_member(fresh, p)) << "peer " << p;
  }
  expect_same_zones(graph, grown, fresh);
}

TEST(GroupTreeTest, PruneEqualsFreshBuild) {
  const auto graph = make_overlay(80, 2, 105).graph;
  auto subs = random_mask(graph.size(), 9, 17);
  auto shrunk = build_group_tree(graph, 0, ids_of(subs));
  // A leaf subscriber, so the prune really cascades edges away.
  PeerId victim = kInvalidPeer;
  for (PeerId p = 1; p < graph.size(); ++p)
    if (subs[p] && shrunk.tree.children(p).empty()) {
      victim = p;
      break;
    }
  ASSERT_NE(victim, kInvalidPeer);
  EXPECT_GT(prune_subscriber(shrunk, victim), 0u);

  subs[victim] = false;
  const auto fresh = build_group_tree(graph, 0, ids_of(subs));
  EXPECT_EQ(shrunk.subscriber_count(), fresh.subscriber_count());
  for (PeerId p = 0; p < graph.size(); ++p) {
    EXPECT_EQ(shrunk.tree.reached(p), fresh.tree.reached(p)) << "peer " << p;
    if (fresh.tree.reached(p) && p != 0) {
      EXPECT_EQ(shrunk.tree.parent(p), fresh.tree.parent(p)) << "peer " << p;
    }
  }
  expect_same_zones(graph, shrunk, fresh);
}

TEST(GroupTreeTest, GraftThenPruneIsIdentity) {
  const auto graph = make_overlay(60, 2, 106).graph;
  const auto subs = random_mask(graph.size(), 6, 19);
  PeerId extra = kInvalidPeer;
  for (PeerId p = 0; p < graph.size(); ++p)
    if (!subs[p] && p != 0) {
      extra = p;
      break;
    }
  ASSERT_NE(extra, kInvalidPeer);

  const auto original = build_group_tree(graph, 0, ids_of(subs));
  auto mutated = build_group_tree(graph, 0, ids_of(subs));
  ASSERT_TRUE(graft_subscriber(graph, mutated, extra).attached);
  prune_subscriber(mutated, extra);
  for (PeerId p = 0; p < graph.size(); ++p) {
    EXPECT_EQ(mutated.tree.reached(p), original.tree.reached(p)) << "peer " << p;
    EXPECT_EQ(is_member(mutated, p), is_member(original, p)) << "peer " << p;
  }
  expect_same_zones(graph, mutated, original);
}

TEST(GroupTreeTest, RepairRemovesDepartedAndKeepsCoverage) {
  const auto graph = make_overlay(80, 2, 107).graph;
  std::vector<bool> everyone(graph.size(), true);
  auto gt = build_group_tree(graph, 0, ids_of(everyone));

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
  EXPECT_FALSE(gt.tree.reached(departed));
  EXPECT_FALSE(is_member(gt, departed));
  expect_spans_subscribers(graph, gt);
}

TEST(GroupTreeTest, GraftOnStaleZonesThrows) {
  const auto graph = make_overlay(40, 2, 108).graph;
  const auto subs = subscriber_mask(graph.size(), {3, 9, 20});
  auto gt = build_group_tree(graph, 0, ids_of(subs));
  gt.zones_stale = true;
  EXPECT_THROW((void)graft_subscriber(graph, gt, 15), std::logic_error);
}

TEST(GroupTreeTest, GraftStepFromAnUnreachedPeerThrows) {
  const auto graph = make_overlay(40, 2, 108).graph;
  const auto subs = subscriber_mask(graph.size(), {3});
  auto gt = build_group_tree(graph, 0, ids_of(subs));
  PeerId outside = kInvalidPeer;
  for (PeerId p = 1; p < graph.size(); ++p)
    if (!gt.tree.reached(p)) {
      outside = p;
      break;
    }
  ASSERT_NE(outside, kInvalidPeer);
  // A cursor parked off the tree has no zone to replay the step from.
  GraftCursor cursor = graft_cursor(graph, gt, outside);
  cursor.current = outside;
  EXPECT_THROW((void)graft_step(graph, gt, cursor), std::out_of_range);
}

/// Steps `gt` would take to graft `s` (0 when it does not attach).
std::size_t graft_length(const overlay::OverlayGraph& graph, GroupTree gt, PeerId s) {
  const GraftResult result = graft_subscriber(graph, gt, s);
  return result.attached ? result.messages : 0;
}

TEST(GroupTreeTest, CarriedZoneMatchesTheTreeAcrossInterleavedEdits) {
  // One descent driven step by step while other edits land between its
  // steps: a second graft, a prune whose relay cascade removes edges, and
  // a copy-on-write clone taking over. After every step the zone the
  // cursor carries must be the zone of its peer recomputed along the
  // tree's root path, and the final tree must equal a fresh build.
  const auto graph = make_overlay(300, 2, 111).graph;
  auto subs = random_mask(graph.size(), 10, 29);
  GroupTree gt = build_group_tree(graph, 0, ids_of(subs));
  PeerId target = kInvalidPeer;
  for (PeerId p = 1; p < graph.size() && target == kInvalidPeer; ++p)
    if (!gt.tree.reached(p) && graft_length(graph, gt, p) >= 6) target = p;
  ASSERT_NE(target, kInvalidPeer);

  GraftCursor cursor = graft_cursor(graph, gt, target);
  EXPECT_EQ(cursor.zone, bounds_of(multicast::initiator_zone(graph.dims())));
  std::shared_ptr<const GroupTree> wave;  // a publish wave's snapshot
  bool grafted = false, pruned = false, cloned = false;
  for (std::size_t step = 1;; ++step) {
    const GraftStep result = graft_step(graph, gt, cursor);
    ASSERT_NE(result.status, GraftStatus::kStranded);
    ASSERT_NE(result.status, GraftStatus::kExhausted);
    ASSERT_EQ(cursor.zone, bounds_of(zones_along_root_paths(graph, gt).at(cursor.current)))
        << "step " << step << " at peer " << cursor.current;
    if (result.status == GraftStatus::kAttached) break;

    if (step == 1) {
      // Another subscriber grafts in while this descent is in flight.
      for (PeerId p = 1; p < graph.size() && !grafted; ++p) {
        if (p == target || gt.tree.reached(p)) continue;
        GroupTree trial = gt;
        if (!graft_subscriber(graph, trial, p).attached || trial.tree.reached(target)) continue;
        ASSERT_TRUE(graft_subscriber(graph, gt, p).attached);
        subs[p] = true;
        grafted = true;
      }
    } else if (step == 2) {
      // A prune whose cascade takes at least one relay, away from the
      // cursor's subtree (the GroupManager aborts a descent whose peer a
      // prune removes).
      for (PeerId p = 1; p < graph.size() && !pruned; ++p) {
        if (!is_member(gt, p) || p == target || gt.tree.in_subtree(cursor.current, p))
          continue;
        GroupTree trial = gt;
        if (prune_subscriber(trial, p) < 2 || !trial.tree.reached(cursor.current)) continue;
        ASSERT_GE(prune_subscriber(gt, p), 2u);
        subs[p] = false;
        pruned = true;
      }
    } else if (step == 3) {
      // A publish wave holds the current tree: the next write clones.
      wave = std::make_shared<const GroupTree>(gt);
      gt = *wave;
      cloned = true;
    }
  }
  ASSERT_TRUE(grafted && pruned && cloned);
  subs[target] = true;
  const GroupTree fresh = build_group_tree(graph, 0, ids_of(subs));
  for (PeerId p = 0; p < graph.size(); ++p) {
    ASSERT_EQ(gt.tree.reached(p), fresh.tree.reached(p)) << "peer " << p;
    EXPECT_EQ(gt.tree.parent(p), fresh.tree.parent(p)) << "peer " << p;
    EXPECT_EQ(is_member(gt, p), is_member(fresh, p)) << "peer " << p;
  }
  EXPECT_EQ(gt.subscriber_count(), fresh.subscriber_count());
  EXPECT_EQ(gt.reached_subscribers(), fresh.reached_subscribers());
  expect_same_zones(graph, gt, fresh);
}

// ------------------------------------------------ stranded bookkeeping

/// The brute-force model of a group tree's membership: a member is spanned
/// (its node flagged) iff the tree reaches it and stranded otherwise, and
/// no other peer is flagged.
void expect_membership(const GroupTree& gt, const std::set<PeerId>& members) {
  std::vector<PeerId> stranded;
  std::size_t spanned = 0;
  for (PeerId p = 0; p < gt.tree.peer_count(); ++p) {
    const bool member = members.count(p) > 0;
    EXPECT_EQ(gt.tree.delivers(p), member && gt.tree.reached(p)) << "peer " << p;
    EXPECT_EQ(is_member(gt, p), member) << "peer " << p;
    if (member && gt.tree.reached(p)) ++spanned;
    if (member && !gt.tree.reached(p)) stranded.push_back(p);
  }
  EXPECT_EQ(gt.stranded, stranded);
  EXPECT_EQ(gt.reached_subscribers(), spanned);
  EXPECT_EQ(gt.subscriber_count(), members.size());
}

TEST(GroupTreeTest, StrandedSubscribersFollowEveryEdit) {
  // Dead peers strand subscribers, whatever the coordinates. `walled` has
  // every overlay neighbour dead, so neither the recursion nor a greedy
  // splice can reach it; one dead delegate, `cut`, walls off slices of
  // other subscribers, which a greedy splice can still reach.
  const auto graph = make_overlay(300, 2, 131).graph;
  const std::size_t n = graph.size();
  const GroupId g = 3;
  const PeerId root = GroupManager(graph).root_of(g);
  const auto neighbour_of_root = [&](PeerId p) {
    const auto near = graph.neighbors(p);
    return std::find(near.begin(), near.end(), root) != near.end();
  };
  PeerId walled = kInvalidPeer;
  for (PeerId p = 0; p < n; ++p)
    if (p != root && !neighbour_of_root(p) &&
        (walled == kInvalidPeer || graph.neighbors(p).size() < graph.neighbors(walled).size()))
      walled = p;
  ASSERT_NE(walled, kInvalidPeer);
  std::vector<bool> alive(n, true);
  for (PeerId q : graph.neighbors(walled)) alive[q] = false;
  std::set<PeerId> members{walled};
  util::Rng rng(7);
  while (members.size() < 61) {
    const auto p = static_cast<PeerId>(rng.next_below(n));
    if (p != root && alive[p]) members.insert(p);
  }
  const std::vector<PeerId> ids(members.begin(), members.end());

  // The first delegate whose death strands enough subscribers, and a
  // non-member whose graft, run with `cut` back up (a false suspicion),
  // descends through one of them: a stranded subscriber recruited as a
  // relay.
  const GroupTree whole = build_group_tree(graph, root, ids, {}, alive);
  PeerId cut = kInvalidPeer, grafted = kInvalidPeer;
  GroupTree gt;
  for (PeerId d = 0; d < n && cut == kInvalidPeer; ++d) {
    if (d == root || members.count(d) > 0 || whole.tree.children(d).empty()) continue;
    std::vector<bool> without = alive;
    without[d] = false;
    const GroupTree trial = build_group_tree(graph, root, ids, {}, without);
    for (PeerId x = 0; x < n && cut == kInvalidPeer; ++x) {
      if (!without[x] || members.count(x) > 0 || trial.tree.reached(x)) continue;
      GroupTree dry = trial;
      if (!graft_subscriber(graph, dry, x, {}, alive).attached) continue;
      if (dry.stranded.size() + 1 >= trial.stranded.size() || dry.stranded.size() < 3) continue;
      cut = d;
      grafted = x;
      gt = trial;
    }
  }
  ASSERT_NE(cut, kInvalidPeer);
  ASSERT_TRUE(contains_id(gt.stranded, walled));
  expect_membership(gt, members);

  const std::vector<PeerId> before = gt.stranded;
  ASSERT_TRUE(graft_subscriber(graph, gt, grafted, {}, alive).attached);
  alive[cut] = false;
  members.insert(grafted);
  expect_membership(gt, members);
  std::size_t recruited = 0;
  for (PeerId s : before) recruited += gt.tree.delivers(s) && s != grafted ? 1 : 0;
  EXPECT_GE(recruited, 1u);

  PeerId pruned = kInvalidPeer;
  for (PeerId s : gt.stranded)
    if (s != walled && pruned == kInvalidPeer) pruned = s;
  ASSERT_NE(pruned, kInvalidPeer);
  EXPECT_EQ(prune_subscriber(gt, pruned), 0u);
  members.erase(pruned);
  expect_membership(gt, members);

  PeerId departed = kInvalidPeer;
  for (PeerId p = 0; p < n && departed == kInvalidPeer; ++p)
    if (p != root && gt.tree.delivers(p) && !gt.tree.children(p).empty()) departed = p;
  ASSERT_NE(departed, kInvalidPeer);
  alive[departed] = false;
  (void)repair_group_tree(graph, gt, departed, alive);
  members.erase(departed);
  expect_membership(gt, members);

  ASSERT_GE(gt.stranded.size(), 2u);
  const StrandRescueResult rescue = rescue_stranded(graph, gt, alive);
  EXPECT_GE(rescue.rescued, 1u);
  EXPECT_EQ(gt.stranded, std::vector<PeerId>{walled});
  EXPECT_EQ(rescue.still_stranded, 1u);
  expect_membership(gt, members);

  // The same members and deaths through the GroupManager: its build keeps
  // `walled` stranded through the rescue, and the departure drops it.
  GroupManager manager(graph);
  for (PeerId p : members) manager.subscribe(g, p);
  for (PeerId p = 0; p < n; ++p)
    if (!alive[p]) manager.handle_departure(p);
  const GroupTree* built = manager.tree(g);
  ASSERT_NE(built, nullptr);
  EXPECT_EQ(built->stranded, std::vector<PeerId>{walled});
  EXPECT_EQ(manager.stats(g).stranded_subscribers, 1u);
  expect_membership(*built, members);
  manager.handle_departure(walled);
  members.erase(walled);
  const GroupTree* after = manager.cached_tree(g);
  ASSERT_NE(after, nullptr);
  expect_membership(*after, members);
  const std::vector<PeerId> model(members.begin(), members.end());
  EXPECT_EQ(manager.subscribers_of(g), model);
}

TEST(GroupTreeTest, BuildRejectsIdsThatAreNotAscendingUniqueAndInRange) {
  const auto graph = make_overlay(30, 2, 110).graph;
  const PeerId n = static_cast<PeerId>(graph.size());
  for (const std::vector<PeerId>& ids :
       {std::vector<PeerId>{4, 2}, std::vector<PeerId>{3, 3}, std::vector<PeerId>{1, n}})
    EXPECT_THROW((void)build_group_tree(graph, 0, ids), std::invalid_argument);
  EXPECT_EQ(build_group_tree(graph, 0, std::vector<PeerId>{2, 4}).subscriber_count(), 2u);
}

TEST(GroupTreeTest, RandomPolicyRejected) {
  const auto graph = make_overlay(30, 2, 109).graph;
  const auto subs = subscriber_mask(graph.size(), {1, 2});
  multicast::MulticastConfig config;
  config.policy = multicast::PickPolicy::kRandom;
  EXPECT_THROW((void)build_group_tree(graph, 0, ids_of(subs), config), std::invalid_argument);
}

// ----------------------------------------------- flat build vs deque build
// The builder's FIFO over one flat queue, with the subscriber array
// partitioned in place, against the shape it replaced: a deque of entries
// that each own a vector of subscribers, split per slice into fresh
// vectors. Children order sets the dissemination order, so it is compared
// peer by peer, along with zones, build_messages and reached_subscribers —
// after the build and again after the same graft on both trees. The
// reference records the zone each request carried in its own map, which
// must equal the zones recomputed along the flat build's root paths.

/// Builds into `gt` and records each reached peer's zone in `zones`.
void deque_reference_build(const overlay::OverlayGraph& graph, PeerId root,
                           const std::vector<bool>& subscribers,
                           const std::vector<bool>& alive, GroupTree& gt, ZoneMap& zones) {
  gt.tree = multicast::MulticastTree(graph.size(), root);
  const std::vector<PeerId> ids = ids_of(subscribers);
  struct Pending {
    PeerId peer;
    geometry::Rect zone;
    std::vector<PeerId> subs;
  };
  const geometry::Rect root_zone = multicast::initiator_zone(graph.dims());
  zones.emplace(root, root_zone);
  std::deque<Pending> queue;
  queue.push_back(Pending{root, root_zone, ids});
  std::vector<multicast::ZoneAssignment> assignments;
  multicast::StepScratch scratch;
  while (!queue.empty()) {
    const Pending current = std::move(queue.front());
    queue.pop_front();
    multicast::partition_step(graph, current.peer, current.zone.bounds(), alive,
                              multicast::PickPolicy::kMedian, geometry::Metric::kL1, nullptr,
                              assignments, scratch);
    std::vector<geometry::Rect> slices;
    for (const multicast::ZoneAssignment& a : assignments)
      slices.push_back(slice_of(current.zone, graph.point(current.peer), a.orthant));
    std::vector<std::vector<PeerId>> split(assignments.size());
    for (PeerId s : current.subs)
      for (std::size_t i = 0; i < assignments.size(); ++i)
        if (slices[i].contains_interior(graph.point(s))) {
          split[i].push_back(s);
          break;
        }
    for (std::size_t i = 0; i < assignments.size(); ++i) {
      if (split[i].empty()) continue;
      ++gt.build_messages;
      gt.tree.add_edge(current.peer, assignments[i].child);
      zones.emplace(assignments[i].child, slices[i]);
      queue.push_back(Pending{assignments[i].child, slices[i], std::move(split[i])});
    }
  }
  for (PeerId s : ids) {
    if (gt.tree.reached(s))
      gt.tree.set_delivers(s, true);
    else
      gt.stranded.push_back(s);
  }
}

void expect_identical_trees(const overlay::OverlayGraph& graph, const GroupTree& a,
                            const GroupTree& b) {
  EXPECT_EQ(a.tree.reached_count(), b.tree.reached_count());
  for (PeerId p = 0; p < graph.size(); ++p) {
    ASSERT_EQ(a.tree.reached(p), b.tree.reached(p)) << "peer " << p;
    EXPECT_EQ(a.tree.parent(p), b.tree.parent(p)) << "peer " << p;
    const auto kids_a = a.tree.children(p);
    const auto kids_b = b.tree.children(p);
    EXPECT_TRUE(std::equal(kids_a.begin(), kids_a.end(), kids_b.begin(), kids_b.end()))
        << "children order of peer " << p;
  }
  expect_same_zones(graph, a, b);
  EXPECT_EQ(a.build_messages, b.build_messages);
  EXPECT_EQ(a.stranded, b.stranded);
  EXPECT_EQ(a.reached_subscribers(), b.reached_subscribers());
  for (PeerId p = 0; p < graph.size(); ++p)
    EXPECT_EQ(a.tree.delivers(p), b.tree.delivers(p)) << "peer " << p;
}

class FlatBuildTest : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {};

TEST_P(FlatBuildTest, EqualsDequeReferenceBeforeAndAfterAGraft) {
  const auto [dims, seed] = GetParam();
  const auto graph = make_overlay(150, dims, seed).graph;
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
    auto flat = build_group_tree(graph, 0, ids_of(subs), {}, alive);
    GroupTree reference;
    ZoneMap reference_zones;
    deque_reference_build(graph, 0, subs, alive, reference, reference_zones);
    expect_identical_trees(graph, flat, reference);
    EXPECT_EQ(zones_along_root_paths(graph, flat), reference_zones);

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
