#include "groups/group_manager.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "geometry/distance.hpp"
#include "geometry/random_points.hpp"
#include "scenario/scenario.hpp"
#include "util/pool.hpp"
#include "util/rng.hpp"

namespace geomcast::groups {
namespace {

using scenario::make_overlay;

/// Some peer that is not the group's root and not yet subscribed.
PeerId fresh_peer(GroupManager& manager, GroupId group, std::size_t n) {
  for (PeerId p = 0; p < n; ++p)
    if (p != manager.root_of(group) && !manager.is_subscribed(group, p) &&
        manager.alive(p))
      return p;
  return kInvalidPeer;
}

TEST(GroupManagerTest, SubscribePublishUnsubscribeRoundTrip) {
  const auto graph = make_overlay(60, 2, 201).graph;
  GroupManager manager(graph);
  const GroupId g = 42;

  const PeerId a = fresh_peer(manager, g, graph.size());
  manager.subscribe(g, a);
  const PeerId b = fresh_peer(manager, g, graph.size());
  manager.subscribe(g, b);
  EXPECT_EQ(manager.subscriber_count(g), 2u);

  const auto first = manager.publish(g);
  EXPECT_EQ(first.delivered, 2u);
  EXPECT_GT(first.payload_messages, 0u);

  manager.unsubscribe(g, b);
  EXPECT_EQ(manager.subscriber_count(g), 1u);
  const auto second = manager.publish(g);
  EXPECT_EQ(second.delivered, 1u);
  EXPECT_LE(second.payload_messages, first.payload_messages);

  const auto& stats = manager.stats(g);
  EXPECT_EQ(stats.publishes, 2u);
  EXPECT_EQ(stats.subscribes, 2u);
  EXPECT_EQ(stats.unsubscribes, 1u);
  EXPECT_DOUBLE_EQ(stats.delivery_ratio(), 1.0);
}

TEST(GroupManagerTest, TreeCachedAcrossPublishes) {
  const auto graph = make_overlay(60, 2, 202).graph;
  GroupManager manager(graph);
  const GroupId g = 1;
  manager.subscribe(g, fresh_peer(manager, g, graph.size()));
  manager.subscribe(g, fresh_peer(manager, g, graph.size()));

  (void)manager.publish(g);
  (void)manager.publish(g);
  (void)manager.publish(g);
  const auto& stats = manager.stats(g);
  EXPECT_EQ(stats.tree_builds, 1u);
  EXPECT_EQ(stats.cache_hits, 2u);
}

TEST(GroupManagerTest, LateSubscriberIsGraftedNotRebuilt) {
  const auto graph = make_overlay(80, 2, 203).graph;
  GroupConfig config;
  config.rebuild_threshold = 10.0;  // keep drift from forcing a rebuild here
  GroupManager manager(graph, config);
  const GroupId g = 7;
  for (int i = 0; i < 5; ++i) manager.subscribe(g, fresh_peer(manager, g, graph.size()));
  (void)manager.publish(g);
  ASSERT_EQ(manager.stats(g).tree_builds, 1u);

  const PeerId late = fresh_peer(manager, g, graph.size());
  manager.subscribe(g, late);
  const auto receipt = manager.publish(g);
  const auto& stats = manager.stats(g);
  EXPECT_EQ(stats.tree_builds, 1u) << "graft should not trigger a rebuild";
  EXPECT_EQ(stats.grafts, 1u);
  EXPECT_EQ(receipt.delivered, 6u);
}

TEST(GroupManagerTest, RepairDriftTriggersRebuildButExactChangesDoNot) {
  const auto graph = make_overlay(80, 2, 204).graph;
  GroupConfig config;
  config.rebuild_threshold = 0.25;
  GroupManager manager(graph, config);
  const GroupId g = 9;
  std::vector<PeerId> members;
  for (int i = 0; i < 8; ++i) {
    const PeerId p = fresh_peer(manager, g, graph.size());
    manager.subscribe(g, p);
    members.push_back(p);
  }
  (void)manager.publish(g);
  ASSERT_EQ(manager.stats(g).tree_builds, 1u);

  // Grafts/prunes are exact and must never force a rebuild, however many.
  for (int i = 0; i < 6; ++i) manager.subscribe(g, fresh_peer(manager, g, graph.size()));
  (void)manager.publish(g);
  EXPECT_EQ(manager.stats(g).tree_builds, 1u);

  // Repairs deviate from a fresh build and accumulate drift past
  // 0.25 * count, so the next publish rebuilds.
  for (int i = 0; i < 6; ++i) manager.handle_departure(members[static_cast<std::size_t>(i)]);
  (void)manager.publish(g);
  EXPECT_EQ(manager.stats(g).tree_builds, 2u);
}

TEST(GroupManagerTest, DepartureRepairsMembershipAndTree) {
  const auto graph = make_overlay(80, 2, 205).graph;
  GroupManager manager(graph);
  const GroupId g = 3;
  std::vector<PeerId> members;
  for (int i = 0; i < 8; ++i) {
    const PeerId p = fresh_peer(manager, g, graph.size());
    manager.subscribe(g, p);
    members.push_back(p);
  }
  (void)manager.publish(g);

  const PeerId departed = members.front();
  manager.handle_departure(departed);
  EXPECT_FALSE(manager.alive(departed));
  EXPECT_FALSE(manager.is_subscribed(g, departed));
  EXPECT_EQ(manager.subscriber_count(g), 7u);

  const auto receipt = manager.publish(g);
  EXPECT_EQ(receipt.delivered, 7u);
  EXPECT_DOUBLE_EQ(manager.stats(g).delivery_ratio(), 1.0);
}

TEST(GroupManagerTest, NonTreeNeighbourDepartureStalesZonesForGrafts) {
  const auto graph = make_overlay(80, 2, 209).graph;
  GroupManager manager(graph);
  const GroupId g = 13;
  for (int i = 0; i < 5; ++i) manager.subscribe(g, fresh_peer(manager, g, graph.size()));
  const GroupTree* gt = manager.tree(g);
  ASSERT_NE(gt, nullptr);
  ASSERT_EQ(manager.stats(g).tree_builds, 1u);

  // A peer outside the tree whose departure shrinks an in-tree peer's
  // candidate set: a replayed recursion could pick different delegates, so
  // the next subscribe must rebuild rather than graft against stale zones.
  PeerId outsider = kInvalidPeer;
  for (PeerId p = 0; p < graph.size() && outsider == kInvalidPeer; ++p) {
    if (gt->tree.reached(p)) continue;
    for (PeerId q : graph.neighbors(p))
      if (gt->tree.reached(q)) {
        outsider = p;
        break;
      }
  }
  ASSERT_NE(outsider, kInvalidPeer);
  manager.handle_departure(outsider);

  const PeerId late = fresh_peer(manager, g, graph.size());
  manager.subscribe(g, late);
  (void)manager.publish(g);
  const auto& stats = manager.stats(g);
  EXPECT_EQ(stats.grafts, 0u);
  EXPECT_EQ(stats.tree_builds, 2u);
}

TEST(GroupManagerTest, RoutedGraftSurvivesADepartureAwayFromTheTree) {
  // A departure whose peer is no member and has no reached overlay
  // neighbour leaves every step on every root path as it was, so an
  // in-flight routed graft keeps descending. Its remaining steps run under
  // the new alive set, and the zone its cursor carries must still be the
  // one a fresh build over the members and that alive set would assign.
  // The departed peer lies on, or beside, the path the descent has yet to
  // take, so a later step's candidate set really shrinks.
  std::size_t cases = 0, on_path_cases = 0;
  for (std::uint64_t seed = 301; seed < 321; ++seed) {
    const auto graph = make_overlay(150, 2, seed).graph;
    GroupManager manager(graph);
    const GroupId g = 5;
    for (int i = 0; i < 5; ++i) manager.subscribe(g, fresh_peer(manager, g, graph.size()));
    const GroupTree* built = manager.tree(g);
    ASSERT_NE(built, nullptr);
    const PeerId root = manager.root_of(g);

    // A late subscriber whose descent takes at least two steps, and a
    // harmless departure beside the path it has left after the first.
    PeerId late = kInvalidPeer, departed = kInvalidPeer;
    bool on_path = false;
    for (PeerId p = 0; p < graph.size() && departed == kInvalidPeer; ++p) {
      if (p == root || manager.is_subscribed(g, p) || built->tree.reached(p)) continue;
      GroupTree dry = *built;
      if (!graft_subscriber(graph, dry, p).attached) continue;
      std::vector<PeerId> path;  // the peers below the first step, up to p
      for (PeerId q = p; dry.tree.parent(q) != root; q = dry.tree.parent(q)) path.push_back(q);
      if (path.empty()) continue;
      const PeerId first = dry.tree.parent(path.back());  // where the first step lands
      const auto touches_tree = [&](PeerId d) {
        if (d == first) return true;
        for (PeerId q : graph.neighbors(d))
          if (built->tree.reached(q) || q == first) return true;
        return false;
      };
      // A departure that walls the subscriber off (a fresh build strands
      // it too) fails the graft by design; the test wants one it survives.
      const auto reached_without = [&](PeerId d) {
        std::vector<PeerId> members;
        std::vector<bool> alive(graph.size());
        for (PeerId q = 0; q < graph.size(); ++q) {
          if (q == p || manager.is_subscribed(g, q)) members.push_back(q);
          alive[q] = q != d && manager.alive(q);
        }
        return build_group_tree(graph, root, members, {}, alive).tree.reached(p);
      };
      const auto harmless = [&](PeerId d) {
        return d != root && d != p && !manager.is_subscribed(g, d) && !built->tree.reached(d) &&
               !touches_tree(d) && reached_without(d);
      };
      // Prefer a peer the descent would have passed through: the rest of
      // the descent must then route around it.
      for (PeerId d : path)
        if (departed == kInvalidPeer && harmless(d)) departed = d;
      for (PeerId step : path)
        for (PeerId d : graph.neighbors(step))
          if (departed == kInvalidPeer && harmless(d)) departed = d;
      if (departed != kInvalidPeer) {
        late = p;
        on_path = std::find(path.begin(), path.end(), departed) != path.end();
      }
    }
    if (departed == kInvalidPeer) continue;
    ++cases;
    if (on_path) ++on_path_cases;

    ASSERT_EQ(manager.subscribe_membership(g, late), GroupManager::SubscribeNeed::kGraft);
    const std::uint64_t id = manager.graft_begin(g, late, root);
    ASSERT_NE(id, 0u);
    auto advance = manager.graft_advance(id, root);
    ASSERT_EQ(advance.status, GroupManager::GraftAdvance::Status::kDescend);

    const auto outcome = manager.handle_departure(departed);
    EXPECT_TRUE(outcome.aborted_grafts.empty()) << "seed " << seed;
    ASSERT_EQ(manager.inflight_graft_count(), 1u) << "seed " << seed;
    for (std::size_t guard = 0;
         advance.status == GroupManager::GraftAdvance::Status::kDescend; ++guard) {
      ASSERT_LE(guard, graph.size());
      advance = manager.graft_advance(id, advance.next);
    }
    ASSERT_EQ(advance.status, GroupManager::GraftAdvance::Status::kAttached) << "seed " << seed;
    EXPECT_TRUE(manager.graft_finish(id));

    std::vector<bool> alive(graph.size());
    for (PeerId p = 0; p < graph.size(); ++p) alive[p] = manager.alive(p);
    const GroupTree fresh =
        build_group_tree(graph, root, manager.subscribers_of(g), {}, alive);
    const GroupTree* grafted = manager.tree(g);
    ASSERT_NE(grafted, nullptr);
    EXPECT_EQ(manager.stats(g).tree_builds, 1u) << "seed " << seed;
    EXPECT_FALSE(grafted->zones_stale) << "seed " << seed;
    for (PeerId p = 0; p < graph.size(); ++p) {
      ASSERT_EQ(grafted->tree.reached(p), fresh.tree.reached(p)) << "seed " << seed << " peer " << p;
      EXPECT_EQ(grafted->tree.parent(p), fresh.tree.parent(p)) << "seed " << seed << " peer " << p;
      EXPECT_EQ(grafted->tree.delivers(p), fresh.tree.delivers(p))
          << "seed " << seed << " peer " << p;
    }
  }
  EXPECT_GE(cases, 10u);
  EXPECT_GE(on_path_cases, 1u);
}

/// `graph` with every link of `isolated` cut: no construction request can
/// reach it, so a subscription there is a stranded member.
overlay::OverlayGraph isolate(const overlay::OverlayGraph& graph, PeerId isolated) {
  std::vector<geometry::Point> points;
  std::vector<std::vector<PeerId>> out(graph.size());
  for (PeerId p = 0; p < graph.size(); ++p) {
    points.push_back(graph.point(p));
    if (p != isolated)
      for (PeerId q : graph.selected(p))
        if (q != isolated) out[p].push_back(q);
  }
  return {points, std::move(out)};
}

TEST(GroupManagerTest, DepartureBesideStaleTreeKeepsTheSharedCopy) {
  const auto base = make_overlay(80, 2, 209).graph;
  const GroupId g = 13;
  const PeerId stranded = GroupManager(base).root_of(g) == 0 ? 1 : 0;
  const auto graph = isolate(base, stranded);
  GroupManager manager(graph);
  ASSERT_NE(manager.root_of(g), stranded);
  manager.subscribe(g, stranded);
  for (int i = 0; i < 5; ++i) manager.subscribe(g, fresh_peer(manager, g, graph.size()));
  // A wave in flight holds this snapshot, so any real write must clone.
  const auto wave = manager.tree_snapshot(g);
  ASSERT_NE(wave, nullptr);
  ASSERT_FALSE(wave->tree.reached(stranded));
  ASSERT_EQ(wave->stranded, std::vector<PeerId>{stranded});

  std::vector<PeerId> outsiders;  // non-members beside the tree
  for (PeerId p = 0; p < graph.size() && outsiders.size() < 2; ++p) {
    if (wave->tree.reached(p) || contains_id(wave->stranded, p)) continue;
    for (PeerId q : graph.neighbors(p))
      if (wave->tree.reached(q)) {
        outsiders.push_back(p);
        break;
      }
  }
  ASSERT_EQ(outsiders.size(), 2u);

  manager.handle_departure(outsiders[0]);
  const auto stale = manager.tree_snapshot(g);
  ASSERT_NE(stale.get(), wave.get());
  ASSERT_TRUE(stale->zones_stale);
  EXPECT_FALSE(wave->zones_stale);

  // Staling zones that are already stale writes nothing: no clone, even
  // though `stale` is still shared.
  manager.handle_departure(outsiders[1]);
  EXPECT_EQ(manager.cached_tree(g), stale.get());

  // A stranded member's departure still changes the tree, so it clones.
  manager.handle_departure(stranded);
  const GroupTree* after = manager.cached_tree(g);
  ASSERT_NE(after, nullptr);
  EXPECT_NE(after, stale.get());
  EXPECT_FALSE(contains_id(after->stranded, stranded));
  EXPECT_EQ(after->subscriber_count() + 1, stale->subscriber_count());
  EXPECT_TRUE(contains_id(stale->stranded, stranded));
}

TEST(GroupManagerTest, RootDepartureMigratesGroup) {
  const auto graph = make_overlay(60, 2, 206).graph;
  GroupManager manager(graph);
  const GroupId g = 11;
  for (int i = 0; i < 4; ++i) manager.subscribe(g, fresh_peer(manager, g, graph.size()));
  (void)manager.publish(g);

  const PeerId old_root = manager.root_of(g);
  const std::size_t subscribers_before =
      manager.subscriber_count(g) - (manager.is_subscribed(g, old_root) ? 1 : 0);
  manager.handle_departure(old_root);
  EXPECT_NE(manager.root_of(g), old_root);
  EXPECT_EQ(manager.stats(g).root_migrations, 1u);

  const auto receipt = manager.publish(g);
  EXPECT_EQ(receipt.delivered, subscribers_before);
}

TEST(GroupManagerTest, EmptyGroupPublishesNothing) {
  const auto graph = make_overlay(40, 2, 207).graph;
  GroupManager manager(graph);
  EXPECT_EQ(manager.tree(99), nullptr);
  const auto receipt = manager.publish(99);
  EXPECT_EQ(receipt.delivered, 0u);
  EXPECT_EQ(receipt.payload_messages, 0u);
}

TEST(GroupManagerTest, DistinctGroupsGetIndependentTreesAndStats) {
  const auto graph = make_overlay(80, 2, 208).graph;
  GroupManager manager(graph);
  manager.subscribe(1, fresh_peer(manager, 1, graph.size()));
  manager.subscribe(2, fresh_peer(manager, 2, graph.size()));
  (void)manager.publish(1);
  EXPECT_EQ(manager.stats(1).publishes, 1u);
  EXPECT_EQ(manager.stats(2).publishes, 0u);
  const auto total = manager.total_stats();
  EXPECT_EQ(total.publishes, 1u);
  EXPECT_EQ(total.subscribes, 2u);
  EXPECT_EQ(manager.known_groups().size(), 2u);
}

/// Some alive, unsubscribed peer that roots no slot and is owned by `slot`.
PeerId fresh_slot_peer(GroupManager& manager, GroupId group, std::size_t n,
                       std::uint32_t slot) {
  for (PeerId p = 0; p < n; ++p) {
    bool roots_a_slot = false;
    for (std::uint32_t s = 0; s < manager.root_replicas(); ++s)
      roots_a_slot = roots_a_slot || manager.slot_root(group, s) == p;
    if (!roots_a_slot && manager.alive(p) && !manager.is_subscribed(group, p) &&
        manager.owner_slot(group, p) == slot)
      return p;
  }
  return kInvalidPeer;
}

// tree(g) is slot 0's tree at every R: the whole group at R = 1, the
// authority's shard otherwise. It must follow slot 0's membership through
// subscribe, unsubscribe and departure.
TEST(GroupManagerTest, TreeIsSlotZeroAndFollowsItsMembersAtEveryR) {
  const auto graph = make_overlay(120, 2, 209).graph;
  for (const std::size_t replicas : {1u, 2u, 4u}) {
    SCOPED_TRACE("root_replicas=" + std::to_string(replicas));
    GroupConfig config;
    config.root_replicas = replicas;
    GroupManager manager(graph, config);
    const GroupId g = 5;
    std::vector<PeerId> members;
    for (int i = 0; i < 12; ++i) {
      const auto slot = static_cast<std::uint32_t>(static_cast<std::size_t>(i) % replicas);
      const PeerId p = fresh_slot_peer(manager, g, graph.size(), slot);
      ASSERT_NE(p, kInvalidPeer);
      manager.subscribe(g, p);
      members.push_back(p);
    }
    ASSERT_NE(manager.tree(g), nullptr);  // build slot 0's tree

    manager.subscribe(g, fresh_slot_peer(manager, g, graph.size(), 0));
    manager.unsubscribe(g, members[0]);
    manager.handle_departure(members[replicas]);  // slot 0's second member

    const GroupTree* gt = manager.tree(g);
    ASSERT_NE(gt, nullptr);
    EXPECT_EQ(gt, manager.slot_tree_snapshot(g, 0).get());
    EXPECT_EQ(gt->tree.root(), manager.slot_root(g, 0));
    std::size_t expected = 0;
    for (PeerId p = 0; p < graph.size(); ++p) {
      const bool owned = manager.alive(p) && manager.is_subscribed(g, p) &&
                         manager.owner_slot(g, p) == 0;
      expected += owned ? 1 : 0;
      EXPECT_EQ(gt->tree.delivers(p), owned) << "peer " << p;
    }
    EXPECT_EQ(gt->subscriber_count(), expected);
    EXPECT_EQ(manager.slot_member_count(g, 0), expected);
  }
}

// The stranded_subscribers gauge sums every slot's tree: a rebuild of a
// clean slot must not erase another slot's stranded member.
TEST(GroupManagerTest, StrandedGaugeSumsTheSlotsAtR2) {
  const auto base = make_overlay(80, 2, 211).graph;
  GroupConfig config;
  config.root_replicas = 2;
  const GroupId g = 17;
  GroupManager probe(base, config);
  const PeerId stranded = fresh_slot_peer(probe, g, base.size(), 1);
  ASSERT_NE(stranded, kInvalidPeer);
  const auto graph = isolate(base, stranded);
  GroupManager manager(graph, config);
  ASSERT_EQ(manager.owner_slot(g, stranded), 1u);
  manager.subscribe(g, stranded);
  for (int i = 0; i < 3; ++i) {
    manager.subscribe(g, fresh_slot_peer(manager, g, graph.size(), 0));
    manager.subscribe(g, fresh_slot_peer(manager, g, graph.size(), 1));
  }
  // Slot 1 builds first and strands its isolated member; slot 0 then
  // builds clean.
  ASSERT_NE(manager.slot_tree_snapshot(g, 1), nullptr);
  EXPECT_EQ(manager.stats(g).stranded_subscribers, 1u);
  ASSERT_NE(manager.tree(g), nullptr);
  EXPECT_EQ(manager.stats(g).stranded_subscribers, 1u);
  // Once the stranded member leaves, the next build (slot 0's, after its
  // root migrates) counts slot 1's tree as it now stands.
  manager.unsubscribe(g, stranded);
  manager.handle_departure(manager.slot_root(g, 0));
  (void)manager.publish(g);
  EXPECT_EQ(manager.stats(g).tree_builds, 3u);
  EXPECT_EQ(manager.stats(g).stranded_subscribers, 0u);
}

// Membership lives once, as ids in the owner slot. A seeded run of
// subscribes, duplicate subscribes, unsubscribes, departures and replica
// deltas at R = 4 must keep every membership query equal to a std::set
// model, and each warm promotion's consistency verdict equal to the
// model's comparison of the replica's copy with the members.
TEST(GroupManagerTest, MembershipMatchesASetModelAtR4) {
  const auto graph = make_overlay(150, 2, 212).graph;
  const std::size_t n = graph.size();
  GroupConfig config;
  config.root_replicas = 4;
  GroupManager manager(graph, config);
  const GroupId g = 23;
  std::set<PeerId> members, copy;
  std::vector<bool> alive(n, true);
  std::size_t deaths = 0, consistent = 0, inconsistent = 0;
  util::Rng rng(4242);

  const auto check = [&](std::size_t op) {
    SCOPED_TRACE("op " + std::to_string(op));
    std::vector<std::size_t> per_slot(manager.root_replicas(), 0);
    for (PeerId p = 0; p < n; ++p) {
      ASSERT_EQ(manager.is_subscribed(g, p), members.count(p) > 0) << "peer " << p;
      if (members.count(p) > 0) ++per_slot[manager.owner_slot(g, p)];
    }
    EXPECT_EQ(manager.subscriber_count(g), members.size());
    for (std::uint32_t s = 0; s < per_slot.size(); ++s)
      EXPECT_EQ(manager.slot_member_count(g, s), per_slot[s]) << "slot " << s;
    EXPECT_EQ(manager.subscribers_of(g), std::vector<PeerId>(members.begin(), members.end()));
    EXPECT_EQ(manager.replica_member_count(g), copy.size());
  };
  const auto random_alive = [&]() {
    for (;;) {
      const auto p = static_cast<PeerId>(rng.next_below(n));
      if (alive[p]) return p;
    }
  };
  const auto depart = [&](PeerId p) {
    const PeerId replica = manager.replica_of(g);
    const auto outcome = manager.handle_departure(p);
    alive[p] = false;
    ++deaths;
    members.erase(p);
    if (p == replica) copy.clear();
    for (const auto& promotion : outcome.promotions) {
      if (promotion.slot != 0) continue;
      if (promotion.warm) {
        std::set<PeerId> synced;
        for (PeerId q : copy)
          if (alive[q]) synced.insert(q);
        EXPECT_EQ(promotion.membership_consistent, synced == members);
        ++(promotion.membership_consistent ? consistent : inconsistent);
      }
      copy.clear();  // the promoted root owes the group a fresh replica
    }
  };
  const auto replica_delta = [&](PeerId p, bool subscribed) {
    if (manager.replica_of(g) == kInvalidPeer) copy.clear();
    if (manager.ensure_replica(g) == kInvalidPeer) return;
    manager.replica_apply_membership(g, p, subscribed);
    if (subscribed)
      copy.insert(p);
    else
      copy.erase(p);
  };

  for (std::size_t op = 0; op < 600; ++op) {
    if (op % 100 == 99) {
      // A slot-0 root death after a full sync (even rounds) or a sync
      // with one extra, diverging member in the copy (odd rounds).
      for (PeerId p : std::set<PeerId>(copy))
        if (members.count(p) == 0) replica_delta(p, false);
      for (PeerId p : members) replica_delta(p, true);
      if (op % 200 == 199)
        for (PeerId p = 0; p < n; ++p)
          if (alive[p] && members.count(p) == 0 && p != manager.replica_of(g)) {
            replica_delta(p, true);
            break;
          }
      depart(manager.root_of(g));
      check(op);
      continue;
    }
    const std::uint64_t kind = rng.next_below(10);
    if (kind < 4) {
      const PeerId p = random_alive();
      manager.subscribe(g, p);
      members.insert(p);
    } else if (kind == 4 && !members.empty()) {  // duplicate subscribe
      const PeerId p = *std::next(members.begin(), static_cast<std::ptrdiff_t>(
                                                     rng.next_below(members.size())));
      manager.subscribe(g, p);
    } else if (kind < 7) {
      const auto p = static_cast<PeerId>(rng.next_below(n));
      manager.unsubscribe(g, p);
      members.erase(p);
    } else if (kind == 7 && deaths < n / 3) {
      depart(random_alive());
    } else {
      replica_delta(static_cast<PeerId>(rng.next_below(n)), rng.next_below(2) == 0);
    }
    if (kind % 3 == 0) (void)manager.publish(g);  // trees follow the members
    check(op);
  }
  EXPECT_GE(consistent, 2u);
  EXPECT_GE(inconsistent, 2u);
}

// The last departure leaves every slot rootless; no departure may throw
// part-way through.
TEST(GroupManagerTest, DepartingEveryPeerLeavesTheGroupRootless) {
  const auto graph = make_overlay(30, 2, 210).graph;
  for (const std::size_t replicas : {1u, 2u}) {
    SCOPED_TRACE("root_replicas=" + std::to_string(replicas));
    GroupConfig config;
    config.root_replicas = replicas;
    GroupManager manager(graph, config);
    const GroupId g = 8;
    for (int i = 0; i < 6; ++i) manager.subscribe(g, fresh_peer(manager, g, graph.size()));
    (void)manager.publish(g);
    for (PeerId p = 0; p < graph.size(); ++p)
      EXPECT_NO_THROW(manager.handle_departure(p)) << "peer " << p;
    EXPECT_EQ(manager.root_of(g), kInvalidPeer);
    for (std::uint32_t s = 0; s < replicas; ++s)
      EXPECT_EQ(manager.slot_root(g, s), kInvalidPeer);
    EXPECT_EQ(manager.subscriber_count(g), 0u);
    EXPECT_EQ(manager.tree(g), nullptr);
  }
}

/// The election as a scan: the minimum of (L1 distance as computed, id)
/// over the alive peers not in `excluded`.
PeerId brute_force_nearest(const overlay::OverlayGraph& graph, const std::vector<bool>& alive,
                           const geometry::Point& target, const std::vector<PeerId>& excluded) {
  PeerId best = kInvalidPeer;
  double best_dist = 0.0;
  for (PeerId p = 0; p < graph.size(); ++p) {
    if (!alive[p] || std::find(excluded.begin(), excluded.end(), p) != excluded.end()) continue;
    const double dist = geometry::l1_distance(graph.point(p), target);
    if (best == kInvalidPeer || dist < best_dist) {
      best = p;
      best_dist = dist;
    }
  }
  return best;
}

TEST(GroupManagerTest, ElectionMatchesABruteForceScan) {
  util::Rng rng(211);
  std::vector<std::pair<std::string, std::vector<geometry::Point>>> sets;
  for (const std::size_t dims : {1u, 2u, 3u})
    sets.emplace_back("random " + std::to_string(dims) + "-D",
                      geometry::random_points(rng, 300, dims, 100.0));
  std::vector<geometry::Point> lattice, duplicated;
  for (int i = 0; i < 400; ++i) lattice.push_back(geometry::Point({double(i % 20), double(i / 20)}));
  sets.emplace_back("lattice", lattice);
  for (int i = 0; i < 200; ++i)  // every point three times, ids far apart
    duplicated.push_back(lattice[static_cast<std::size_t>(rng.next_below(lattice.size()))]);
  for (int copy = 0; copy < 2; ++copy)
    for (int i = 0; i < 200; ++i) duplicated.push_back(duplicated[static_cast<std::size_t>(i)]);
  sets.emplace_back("duplicated", duplicated);

  for (const auto& [name, points] : sets) {
    SCOPED_TRACE(name);
    const std::size_t n = points.size();
    const std::size_t dims = points.front().dims();
    const overlay::OverlayGraph graph(points, std::vector<std::vector<PeerId>>(n));
    const auto by_x = peers_by_first_coordinate(graph);
    // Targets at peers, between lattice points (ties), anywhere in the
    // box, and outside it.
    std::vector<geometry::Point> targets;
    for (int i = 0; i < 40; ++i) {
      targets.push_back(points[static_cast<std::size_t>(rng.next_below(n))]);
      geometry::Point half(dims), any(dims), outside(dims);
      for (std::size_t d = 0; d < dims; ++d) {
        half[d] = double(rng.uniform_int(0, 19)) + 0.5;
        any[d] = rng.uniform(0.0, 100.0);
        outside[d] = rng.uniform(-300.0, 400.0);
      }
      targets.push_back(half);
      targets.push_back(any);
      targets.push_back(outside);
    }
    for (const double dead_share : {0.0, 0.3, 0.95, 1.0}) {
      std::vector<bool> alive(n);
      for (std::size_t p = 0; p < n; ++p) alive[p] = !rng.chance(dead_share);
      if (dead_share == 1.0) alive.assign(n, false);
      for (const auto& target : targets) {
        // Four slots elected in turn, each excluding the roots before it,
        // as the manager does at R = 4.
        std::vector<PeerId> roots;
        for (int slot = 0; slot < 4; ++slot) {
          const PeerId expected = brute_force_nearest(graph, alive, target, roots);
          ASSERT_EQ(nearest_alive_peer(graph, by_x, alive, target, roots), expected)
              << "dead share " << dead_share << ", slot " << slot;
          roots.push_back(expected);
        }
      }
    }
  }
}

TEST(GroupManagerTest, SlotsDoubleUpWhenFewerPeersThanReplicasAreAlive) {
  const auto graph = make_overlay(12, 2, 212).graph;
  GroupConfig config;
  config.root_replicas = 4;
  GroupManager manager(graph, config);
  for (PeerId p = 2; p < graph.size(); ++p) manager.handle_departure(p);
  const GroupId g = 17;
  std::set<PeerId> roots;
  for (std::uint32_t s = 0; s < 4; ++s) {
    const PeerId root = manager.slot_root(g, s);
    EXPECT_LT(root, 2u) << "slot " << s;
    roots.insert(root);
  }
  // The first two slots take both alive peers; the rest fall back to the
  // election without exclusions instead of staying rootless.
  EXPECT_EQ(roots.size(), 2u);
  EXPECT_NE(manager.slot_root(g, 0), manager.slot_root(g, 1));
}

TEST(GroupManagerTest, NoGroupCanBeHostedOnceEveryPeerIsDead) {
  const auto graph = make_overlay(10, 2, 213).graph;
  GroupManager manager(graph);
  for (PeerId p = 0; p < graph.size(); ++p) manager.handle_departure(p);
  EXPECT_THROW((void)manager.root_of(5), std::runtime_error);
}

/// QoS 2 retention through the manager against a map model: random
/// retains of each group's dense ranges (new waves, late old waves, and at
/// R = 2 the other slot's copy of a held range, which overwrites it in
/// place), departures that drop a peer's buffers, and new (peer, group)
/// pairs that take the freed buffer slots. After every step the manager's
/// retained_payload (handle identity), retained_ranges, entry total,
/// buffer count and peak must match the model.
TEST(GroupManagerTest, RetentionMatchesAMapModel) {
  const auto graph = make_overlay(120, 2, 77).graph;
  const std::vector<GroupId> groups = {3, 40, 1ULL << 33, 7};
  for (const std::size_t replicas : {1u, 2u})
    for (const std::size_t window : {0u, 1u, 8u}) {
      SCOPED_TRACE("R = " + std::to_string(replicas) + ", window " + std::to_string(window));
      util::RcPool<GroupDelivery> pool;  // outlives the manager's handles
      GroupConfig config;
      config.retention_window = window;
      config.root_replicas = replicas;
      GroupManager manager(graph, config);
      // Model: (peer, group) -> lo -> retained wave; covered seqs per pair.
      using Pair = std::pair<PeerId, GroupId>;
      std::map<Pair, std::map<std::uint64_t, DeliveryPtr>> model;
      std::map<Pair, std::size_t> covered;
      std::size_t peak = 0;
      // Each group's ranges as its root assigns them: dense, disjoint.
      std::map<GroupId, std::vector<std::pair<std::uint64_t, std::uint64_t>>> assigned;
      std::vector<bool> alive(graph.size(), true);
      util::Rng rng(window * 10 + replicas);
      std::uint64_t next_tag = 0;

      const auto check_pair = [&](const Pair& key) {
        const auto [peer, group] = key;
        const auto it = model.find(key);
        std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges;
        if (it != model.end())
          for (const auto& [lo, wave] : it->second) ranges.emplace_back(lo, wave->seq_hi);
        ASSERT_EQ(manager.retained_ranges(peer, group), ranges)
            << "peer " << peer << " group " << group;
        const auto& spans = assigned[group];
        const std::uint64_t end = spans.empty() ? 0 : spans.back().second + 1;
        for (std::uint64_t seq = 0; seq <= end; ++seq) {
          const GroupDelivery* expect = nullptr;
          if (it != model.end()) {
            const auto after = it->second.upper_bound(seq);
            if (after != it->second.begin() && std::prev(after)->second->seq_hi >= seq)
              expect = &*std::prev(after)->second;
          }
          const DeliveryPtr* got = manager.retained_payload(peer, group, seq);
          ASSERT_EQ(got == nullptr ? nullptr : &**got, expect)
              << "peer " << peer << " group " << group << " seq " << seq;
        }
      };
      const auto check_totals = [&] {
        std::size_t seqs = 0;
        for (const auto& [key, c] : covered) seqs += c;
        ASSERT_EQ(manager.retained_entry_total(), seqs);
        ASSERT_EQ(manager.retained_buffer_count(), model.size());
        ASSERT_EQ(manager.retained_peak(), peak);
      };

      for (int step = 0; step < 1500; ++step) {
        // Peers join the retaining population over time, so new pairs
        // keep arriving after departures have freed slots.
        const std::size_t eligible = std::min<std::size_t>(graph.size(), 8 + step / 12);
        if (rng.next_below(20) == 0) {
          const auto gone = static_cast<PeerId>(rng.next_below(eligible));
          if (!alive[gone]) continue;
          alive[gone] = false;
          (void)manager.handle_departure(gone);
          for (auto it = model.begin(); it != model.end();)
            if (it->first.first == gone) {
              covered.erase(it->first);
              it = model.erase(it);
            } else {
              ++it;
            }
          for (const GroupId g : groups) ASSERT_NO_FATAL_FAILURE(check_pair({gone, g}));
          ASSERT_NO_FATAL_FAILURE(check_totals());
          continue;
        }
        const auto peer = static_cast<PeerId>(rng.next_below(eligible));
        if (!alive[peer]) continue;
        const GroupId group = groups[rng.next_below(groups.size())];
        auto& spans = assigned[group];
        std::pair<std::uint64_t, std::uint64_t> span;
        if (spans.empty() || rng.next_below(3) != 0) {  // a new wave
          const std::uint64_t lo = spans.empty() ? 0 : spans.back().second + 1;
          span = {lo, lo + rng.next_below(4)};
          spans.push_back(span);
        } else {  // a late wave, or another slot's copy of a held range
          span = spans[rng.next_below(spans.size())];
        }
        const auto slot = static_cast<std::uint32_t>(rng.next_below(replicas));
        DeliveryPtr wave = pool.make(GroupDelivery{group, span.first, span.second, next_tag++,
                                                   nullptr, slot});
        std::size_t evicted = 0;
        const Pair key{peer, group};
        if (window > 0) {
          auto& held = model[key];
          std::size_t& c = covered[key];
          if (const auto it = held.find(span.first); it != held.end()) c -= it->second->count();
          c += wave->count();
          held[span.first] = wave;
          while (c > window) {
            const auto oldest = held.begin();
            c -= oldest->second->count();
            evicted += oldest->second->count();
            held.erase(oldest);
          }
          peak = std::max(peak, c);
        }
        ASSERT_EQ(manager.retain_payload(peer, group, std::move(wave)), evicted)
            << "step " << step;
        ASSERT_NO_FATAL_FAILURE(check_pair(key));
        ASSERT_NO_FATAL_FAILURE(check_totals());
      }
      for (PeerId p = 0; p < graph.size(); ++p)
        for (const GroupId g : groups) ASSERT_NO_FATAL_FAILURE(check_pair({p, g}));
    }
}

}  // namespace
}  // namespace geomcast::groups
