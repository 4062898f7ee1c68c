// Churn-during-graft fuzz battery (seeded): kills the three parties of an
// in-flight routed graft — the initiating root, an intermediate descent
// peer, and the subscriber itself — mid-descent, and asserts the state
// machine's safety and liveness halves:
//  * safety: no half-attached tree edges survive (after the abort-forced
//    rebuild every leaf of a clean cached tree is a subscriber again) and
//    no in-flight cursor state leaks once the simulation drains;
//  * liveness: the abort re-issues the subscribe (abort-and-resubscribe),
//    so the next publish reaches every surviving registered member —
//    including the mid-graft subscriber when it survived.
//
// The kill instants are not guessed: a lossless dry run records the graft
// window (first request delivery .. accept) through the simulator's
// delivery observer, and each scenario re-runs the identical deterministic
// schedule with one depart_at dropped strictly inside that window.
#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "groups/message_kinds.hpp"
#include "groups/pubsub.hpp"
#include "scenario/scenario.hpp"

namespace geomcast::groups {
namespace {

using scenario::make_overlay;

constexpr GroupId kGroup = 7;
constexpr double kLateSubscribe = 3.0;
constexpr double kFinalPublish = 6.0;

using scenario::pick_members;

struct RunOutcome {
  std::set<std::pair<PeerId, std::uint64_t>> delivered;  // (peer, seq) of kGroup
  std::vector<std::pair<double, PeerId>> request_hops;   // graft request deliveries
  double accept_time = -1.0;  // kGraftAcceptKind delivery (or local finish: none)
  GroupStats stats;
  std::size_t inflight = 0;
  PeerId initial_root = kInvalidPeer;
};

struct KillPlan {
  PeerId target = kInvalidPeer;
  double when = -1.0;  // < 0: no kill (the dry run)
};

/// One deterministic run: 10 early members, warm publish at t=2, the late
/// subscriber at t=3 (the graft under test), final publish at t=6. The
/// publisher is pinned by the CALLER (same peer in the dry run and every
/// kill run — were it re-picked per run, a kill target that happens to be
/// the default publisher would shift the schedule the dry-run-derived
/// kill instants were computed against). Returns everything the scenarios
/// assert on.
RunOutcome run_once(const overlay::OverlayGraph& graph, std::uint64_t seed,
                    PeerId late, PeerId publisher, const KillPlan& kill,
                    std::vector<bool>* spanned_out = nullptr,
                    std::vector<bool>* member_out = nullptr,
                    bool* leaves_ok_out = nullptr) {
  PubSubConfig config;
  config.seed = seed;
  config.routed_graft = true;
  RunOutcome outcome;
  const auto schedule = [&](PubSubSystem& system) {
    outcome.initial_root = system.manager().root_of(kGroup);
    const auto members = scenario::subscribe_members(system, graph, kGroup, 10, seed);
    system.simulator().set_delivery_observer(
        [&outcome](double time, const sim::Envelope& envelope) {
          if (envelope.kind == kGraftRequestKind)
            outcome.request_hops.emplace_back(time, envelope.to);
          else if (envelope.kind == kGraftAcceptKind)
            outcome.accept_time = time;
        });
    system.subscribe_at(kLateSubscribe, late, kGroup);
    if (publisher == kInvalidPeer) publisher = members[0];
    system.publish_at(2.0, publisher, kGroup);          // seq 0: pays the build
    system.publish_at(kFinalPublish, publisher, kGroup);  // seq 1: the gate
    if (kill.when >= 0.0) system.depart_at(kill.when, kill.target);
  };
  const auto harvest = [&](PubSubSystem& system) {
    outcome.stats = system.stats(kGroup);
    outcome.inflight = system.manager().inflight_graft_count();
    if (member_out != nullptr) {
      member_out->assign(graph.size(), false);
      for (PeerId p = 0; p < graph.size(); ++p)
        (*member_out)[p] = system.manager().alive(p) &&
                           system.manager().is_subscribed(kGroup, p);
    }
    const GroupTree* gt = system.manager().cached_tree(kGroup);
    if (spanned_out != nullptr) {
      spanned_out->assign(graph.size(), false);
      if (gt != nullptr)
        for (PeerId p = 0; p < graph.size(); ++p) (*spanned_out)[p] = gt->tree.delivers(p);
    }
    if (leaves_ok_out != nullptr) {
      // The "no half-attached edges" invariant: in a clean cached tree
      // every childless reached peer (except the root) carries the
      // delivery flag — an abandoned descent path would end in a
      // relay-only leaf.
      *leaves_ok_out = true;
      if (gt != nullptr)
        for (PeerId p = 0; p < graph.size(); ++p)
          if (p != gt->tree.root() && gt->tree.reached(p) &&
              gt->tree.children(p).empty() && !gt->tree.delivers(p))
            *leaves_ok_out = false;
    }
  };
  scenario::run_cell(graph, config, schedule,
                     {.observe = [&outcome](PeerId peer, GroupId group, std::uint64_t seq,
                                            double) {
                        if (group == kGroup) outcome.delivered.emplace(peer, seq);
                      },
                      .harvest = harvest});
  return outcome;
}

/// Finds a late subscriber whose lossless graft takes >= 2 routed request
/// hops (so there IS an intermediate peer to kill), via dry runs.
PeerId find_deep_late_subscriber(const overlay::OverlayGraph& graph,
                                 std::uint64_t seed, RunOutcome& dry) {
  PubSubConfig config;
  config.seed = seed;
  PubSubSystem probe(graph, config);
  const PeerId root = probe.manager().root_of(kGroup);
  const auto members = pick_members(graph.size(), root, 10, seed);
  std::vector<bool> taken(graph.size(), false);
  taken[root] = true;
  for (const PeerId m : members) taken[m] = true;
  for (PeerId candidate = 0; candidate < graph.size(); ++candidate) {
    if (taken[candidate]) continue;
    dry = run_once(graph, seed, candidate, kInvalidPeer, KillPlan{});
    if (dry.request_hops.size() >= 2 && dry.stats.grafts == 1 &&
        dry.stats.stranded_subscribers == 0)
      return candidate;
  }
  return kInvalidPeer;
}

void assert_common_invariants(const RunOutcome& outcome,
                              const std::vector<bool>& spanned,
                              const std::vector<bool>& member, bool leaves_ok,
                              const char* scenario, std::uint64_t seed) {
  EXPECT_EQ(outcome.inflight, 0u)
      << scenario << " seed " << seed << ": leaked in-flight cursor state";
  EXPECT_TRUE(leaves_ok)
      << scenario << " seed " << seed << ": half-attached relay-only leaf";
  EXPECT_EQ(outcome.stats.stranded_subscribers, 0u) << scenario << " seed " << seed;
  // Liveness: the final wave (seq 1) reached exactly the surviving
  // registered members, each of them spanned by the (rebuilt) tree.
  for (PeerId p = 0; p < member.size(); ++p) {
    const bool got = outcome.delivered.count({p, 1}) > 0;
    EXPECT_EQ(got, member[p])
        << scenario << " seed " << seed << " peer " << p
        << (member[p] ? ": surviving subscriber missed the post-churn wave"
                      : ": non-member received the wave");
    if (member[p]) {
      EXPECT_TRUE(spanned[p]) << scenario << " seed " << seed << " peer " << p;
    }
  }
}

TEST(GraftChurnFuzzTest, KillsMidGraftAcrossSeeds) {
  std::size_t exercised = 0;
  for (const std::uint64_t seed : {501ULL, 502ULL, 503ULL, 504ULL}) {
    const auto graph = make_overlay(120, 2, seed).graph;
    RunOutcome probe;
    const PeerId late = find_deep_late_subscriber(graph, seed, probe);
    if (late == kInvalidPeer) continue;  // no deep graft on this seed's geometry
    ++exercised;
    ASSERT_GE(probe.request_hops.size(), 2u);
    // Pin one publisher for the dry run and EVERY kill run: an early
    // member that is neither the root nor on the descent path, so no kill
    // scenario can hit it and change the schedule out from under the
    // dry-run-derived kill instants. Then re-record the trace with that
    // publisher — the trace and the kill runs now share one schedule.
    PeerId publisher = kInvalidPeer;
    {
      PubSubConfig pub_config;
      pub_config.seed = seed;
      PubSubSystem pub_probe(graph, pub_config);
      std::vector<bool> on_path(graph.size(), false);
      on_path[probe.initial_root] = true;
      for (const auto& [time, to] : probe.request_hops) on_path[to] = true;
      for (const PeerId m :
           pick_members(graph.size(), pub_probe.manager().root_of(kGroup), 10, seed))
        if (!on_path[m]) {
          publisher = m;
          break;
        }
    }
    ASSERT_NE(publisher, kInvalidPeer) << "seed " << seed;
    const RunOutcome dry = run_once(graph, seed, late, publisher, KillPlan{});
    ASSERT_GE(dry.request_hops.size(), 2u);
    const double first_hop = dry.request_hops.front().first;
    const double last_hop = dry.request_hops.back().first;

    // -- scenario 1: the initiating root dies mid-descent ------------------
    {
      // Strictly inside the graft window: after the root's local first
      // decision (first request already in flight), before the descent
      // finishes. The departure migrates the group, aborts the cursor, and
      // must re-issue the subscribe toward the successor root.
      const KillPlan kill{dry.initial_root, first_hop + 0.004};
      std::vector<bool> spanned, member;
      bool leaves_ok = false;
      const auto outcome =
          run_once(graph, seed, late, publisher, kill, &spanned, &member, &leaves_ok);
      EXPECT_GE(outcome.stats.graft_aborts, 1u) << "root-kill seed " << seed;
      EXPECT_GE(outcome.stats.graft_resubscribes, 1u) << "root-kill seed " << seed;
      EXPECT_EQ(outcome.stats.root_migrations, 1u) << "root-kill seed " << seed;
      EXPECT_TRUE(member[late]) << "root-kill seed " << seed;
      assert_common_invariants(outcome, spanned, member, leaves_ok, "root-kill",
                               seed);
    }

    // -- scenario 2: an intermediate descent peer dies ---------------------
    {
      // The middle request's target dies just before that envelope lands:
      // the hop retransmits into a void while the departure repair stales
      // the zones — the sweep aborts the cursor either way.
      const std::size_t mid = dry.request_hops.size() / 2;
      const KillPlan kill{dry.request_hops[mid].second,
                          dry.request_hops[mid].first - 0.004};
      ASSERT_NE(kill.target, late) << "seed " << seed;
      ASSERT_NE(kill.target, dry.initial_root) << "seed " << seed;
      std::vector<bool> spanned, member;
      bool leaves_ok = false;
      const auto outcome =
          run_once(graph, seed, late, publisher, kill, &spanned, &member, &leaves_ok);
      EXPECT_GE(outcome.stats.graft_aborts, 1u) << "relay-kill seed " << seed;
      EXPECT_TRUE(member[late]) << "relay-kill seed " << seed;
      assert_common_invariants(outcome, spanned, member, leaves_ok, "relay-kill",
                               seed);
    }

    // -- scenario 3: the subscriber itself dies mid-graft ------------------
    {
      const KillPlan kill{late, (first_hop + last_hop) / 2.0};
      std::vector<bool> spanned, member;
      bool leaves_ok = false;
      const auto outcome =
          run_once(graph, seed, late, publisher, kill, &spanned, &member, &leaves_ok);
      EXPECT_GE(outcome.stats.graft_aborts, 1u) << "subscriber-kill seed " << seed;
      // Nobody to resubscribe for: the subscriber is gone, and the single
      // graft of this workload was its own.
      EXPECT_EQ(outcome.stats.graft_resubscribes, 0u)
          << "subscriber-kill seed " << seed;
      EXPECT_FALSE(member[late]) << "subscriber-kill seed " << seed;
      assert_common_invariants(outcome, spanned, member, leaves_ok,
                               "subscriber-kill", seed);
    }
  }
  // The battery is only meaningful if the geometry cooperated somewhere.
  EXPECT_GE(exercised, 2u) << "too few seeds produced a multi-hop graft";
}

}  // namespace
}  // namespace geomcast::groups
