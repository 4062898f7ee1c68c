// Warm-failover battery: the root-replication stream (membership deltas,
// retained-range mirrors, pending-batch joins), warm promotion through the
// migration path, the post-migration NACK regression (cold: the
// migrated-to root's empty RetainedBuffer abandons every repair; warm: the
// replicated history serves them), the final-wave heartbeat blind spot,
// and the knob-oracle guarantee that warm_failover off-vs-on changes
// nothing on no-kill seeds.
#include "groups/failure_injection.hpp"
#include "groups/message_kinds.hpp"
#include "groups/pubsub.hpp"

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "obs/snapshot.hpp"
#include "scenario/scenario.hpp"

namespace geomcast::groups {
namespace {

using scenario::make_overlay;
using scenario::subscribe_members;

TEST(SubscriberWindowTest, MarkThroughOpensGapsOnlyAboveTheFrontier) {
  SubscriberWindow w;
  // Uninitialized: a beacon owes a late joiner nothing.
  EXPECT_TRUE(w.mark_through(10).empty());
  EXPECT_FALSE(w.initialized());

  auto arrival = w.observe_range(0, 2);
  EXPECT_EQ(arrival.released.size(), 3u);
  // Horizon 5: seqs 3..5 were never admitted — they become gaps exactly as
  // if a later wave had revealed them.
  const std::vector<std::uint64_t> expected{3, 4, 5};
  EXPECT_EQ(w.mark_through(5), expected);
  EXPECT_EQ(w.gap_count(), 3u);
  // Re-advertising the same (or an older) horizon opens nothing new.
  EXPECT_TRUE(w.mark_through(5).empty());
  EXPECT_TRUE(w.mark_through(1).empty());
  // The marked gaps heal like any others: filling 3 releases it, the rest
  // stay pending.
  arrival = w.observe(3);
  EXPECT_EQ(arrival.released, (std::vector<std::uint64_t>{3}));
  EXPECT_EQ(w.gap_count(), 2u);
  // A horizon past the frontier only adds the genuinely new tail.
  EXPECT_EQ(w.mark_through(6), (std::vector<std::uint64_t>{6}));
}

TEST(GroupsFailoverTest, ReplicaShadowsMembershipAndRetainedHistory) {
  const auto graph = make_overlay(150, 2, 1401).graph;
  const GroupId g = 0;
  PubSubConfig config;
  config.seed = 71;
  config.reliability.qos = multicast::QoS::kEndToEnd;
  config.warm_failover = true;
  PubSubSystem system(graph, config);
  const auto members = subscribe_members(system, graph, g, 12, 71);
  const PeerId root = system.manager().root_of(g);
  for (std::size_t i = 0; i < 3; ++i)
    system.publish_at(2.0 + 0.3 * static_cast<double>(i), root, g);
  system.run();

  // A replica was assigned (the deterministic second-nearest peer) and its
  // copy tracks the full membership.
  const PeerId replica = system.manager().replica_of(g);
  ASSERT_NE(replica, kInvalidPeer);
  EXPECT_EQ(replica, system.manager().replica_candidate(g));
  EXPECT_NE(replica, root);
  EXPECT_EQ(system.manager().replica_member_count(g), members.size());
  // Every flushed wave was mirrored: the replica's OWN RetainedBuffer
  // holds the same ranges as the root's.
  EXPECT_EQ(system.manager().retained_ranges(replica, g),
            system.manager().retained_ranges(root, g));
  EXPECT_EQ(system.manager().retained_ranges(replica, g).size(), 3u);
  const auto& stats = system.stats(g);
  // One sync per membership delta + one per flush; nothing migrated.
  EXPECT_EQ(stats.replica_sync_envelopes, members.size() + 3u);
  EXPECT_EQ(stats.migration_envelopes, 0u);
  EXPECT_EQ(stats.warm_promotions, 0u);
}

struct KillReport {
  PeerId root = kInvalidPeer;
  PeerId relay = kInvalidPeer;
  std::size_t severed = 0;
};

/// The failover scenario both cells share: 12 subscribers, two warm-up
/// waves, then a root-kill on wave seq 2 (relay severed mid-wave, root
/// killed right after the flush), then post-kill publishes from a
/// surviving member that reveal the gap to the severed subtree.
GroupStats run_root_kill(const overlay::OverlayGraph& graph, bool warm_on,
                         KillReport* report) {
  const GroupId g = 0;
  PubSubConfig config;
  config.seed = 73;
  config.reliability.qos = multicast::QoS::kEndToEnd;
  config.reliability.ack_timeout = 0.05;
  config.reliability.max_retries = 5;
  config.warm_failover = warm_on;
  std::vector<bool> member_anywhere(graph.size(), false);  // the injector reads it in run()
  KillReport local;
  const GroupStats stats = scenario::run_cell(
      graph, config,
      [&](PubSubSystem& system) {
        const auto members = subscribe_members(system, graph, g, 12, 73);
        for (const PeerId m : members) member_anywhere[m] = true;
        const PeerId root = system.manager().root_of(g);
        system.publish_at(2.0, root, g);
        system.publish_at(2.3, root, g);
        system.publish_at(5.0, root, g);
        schedule_root_kill(
            system, g, 5.0, member_anywhere,
            [&local](PeerId r, PeerId relay, std::size_t severed) {
              local = {r, relay, severed};
            },
            /*wave_start_delay=*/0.0, /*root_kill_delay=*/0.02);
        system.publish_at(6.0, members[0], g);
        system.publish_at(6.3, members[0], g);
      })
      .total;
  if (report != nullptr) *report = local;
  return stats;
}

TEST(GroupsFailoverTest, RootKillColdAbandonsWarmRepairsFromReplicatedHistory) {
  const auto graph = make_overlay(150, 2, 1402).graph;

  KillReport cold_kill;
  const GroupStats cold = run_root_kill(graph, /*warm_on=*/false, &cold_kill);
  ASSERT_NE(cold_kill.relay, kInvalidPeer) << "seed found no relay to sever";
  ASSERT_GT(cold_kill.severed, 0u);
  // Cold rebuild: the migrated-to root starts with an empty RetainedBuffer,
  // so the severed subscribers' NACKs walk to the chain's end and abandon —
  // a measurable delivery dip.
  EXPECT_GT(cold.gap_seqs_abandoned, 0u);
  EXPECT_LT(cold.deliveries, cold.expected_deliveries);
  EXPECT_EQ(cold.replica_sync_envelopes, 0u);
  EXPECT_EQ(cold.warm_promotions, 0u);

  KillReport warm_kill;
  const GroupStats warm = run_root_kill(graph, /*warm_on=*/true, &warm_kill);
  // Victim selection is identical across the cells (the injector excludes
  // the replica candidate in both): the comparison kills the same peers.
  EXPECT_EQ(warm_kill.root, cold_kill.root);
  EXPECT_EQ(warm_kill.relay, cold_kill.relay);
  EXPECT_EQ(warm_kill.severed, cold_kill.severed);
  // Warm failover: the promotion inherited the subscriber set and the
  // retained history, so every post-migration NACK is ultimately served —
  // zero dip at QoS 2.
  EXPECT_EQ(warm.deliveries, warm.expected_deliveries);
  EXPECT_EQ(warm.gap_seqs_abandoned, 0u);
  EXPECT_EQ(warm.warm_promotions, 1u);
  EXPECT_GT(warm.replica_sync_envelopes, 0u);
  // The handoff had a measured price: the successor re-bootstrapped its
  // own replica after promotion.
  EXPECT_GT(warm.migration_envelopes, 0u);
  EXPECT_EQ(warm.root_migrations, cold.root_migrations);
}

TEST(GroupsFailoverTest, SnapshotJsonCarriesTheFailoverCounters) {
  const auto graph = make_overlay(150, 2, 1402).graph;
  const GroupId g = 0;
  PubSubConfig config;
  config.seed = 73;
  config.reliability.qos = multicast::QoS::kEndToEnd;
  config.warm_failover = true;
  PubSubSystem system(graph, config);
  subscribe_members(system, graph, g, 12, 73);
  system.publish_at(2.0, system.manager().root_of(g), g);
  system.run();

  const std::string group_json = obs::to_json(system.total_stats());
  for (const char* name :
       {"\"replica_sync_envelopes\":", "\"replica_sync_retries\":",
        "\"migration_envelopes\":", "\"warm_promotions\":",
        "\"pending_publishes_inherited\":", "\"heartbeats_sent\":",
        "\"heartbeat_gap_detections\":", "\"heartbeat_blind_windows\":"})
    EXPECT_NE(group_json.find(name), std::string::npos) << name;
  // The transport's view is per kind only: the sync stream shows up by its
  // registry name, not as a mirrored counter.
  const std::string net_json = obs::to_json(system.simulator().network().stats());
  EXPECT_EQ(net_json.find("\"replica_sync_envelopes\":"), std::string::npos);
  EXPECT_NE(net_json.find("\"replica_sync\":"), std::string::npos);
}

/// Final-wave blind spot: the relay is severed on the group's LAST wave
/// while the root stays alive. Without heartbeats the severed subtree has
/// no later traffic to reveal the gap; with them the beacon advertises the
/// flushed horizon and the normal NACK plane repairs it.
GroupStats run_final_wave(const overlay::OverlayGraph& graph, double hb_interval,
                          std::size_t* severed_out) {
  const GroupId g = 0;
  PubSubConfig config;
  config.seed = 79;
  config.reliability.qos = multicast::QoS::kEndToEnd;
  config.reliability.ack_timeout = 0.05;
  config.reliability.max_retries = 5;
  config.heartbeat_interval = hb_interval;
  config.warm_failover = false;  // independent mechanisms: beacons alone close it
  std::vector<bool> member_anywhere(graph.size(), false);  // the injector reads it in run()
  std::size_t severed = 0;
  const GroupStats stats = scenario::run_cell(
      graph, config,
      [&](PubSubSystem& system) {
        const auto members = subscribe_members(system, graph, g, 12, 79);
        for (const PeerId m : members) member_anywhere[m] = true;
        const PeerId root = system.manager().root_of(g);
        system.publish_at(2.0, root, g);
        system.publish_at(2.3, root, g);
        system.publish_at(5.0, root, g);  // the final wave
        schedule_midwave_kill(system, g, 5.0, member_anywhere,
                              [&severed](PeerId, std::size_t s) { severed = s; });
      })
      .total;
  if (severed_out != nullptr) *severed_out = severed;
  return stats;
}

TEST(GroupsFailoverTest, HeartbeatsCloseTheFinalWaveBlindSpot) {
  const auto graph = make_overlay(150, 2, 1403).graph;

  std::size_t severed_off = 0;
  const GroupStats off = run_final_wave(graph, /*hb_interval=*/0.0, &severed_off);
  ASSERT_GT(severed_off, 0u) << "seed severed nobody; the scenario is vacuous";
  // The blind spot: nothing ever told the severed subscribers seq 2
  // existed — silent loss, not even a gap detection.
  EXPECT_EQ(off.deliveries, off.expected_deliveries - severed_off);
  EXPECT_EQ(off.heartbeats_sent, 0u);
  EXPECT_EQ(off.heartbeat_gap_detections, 0u);

  std::size_t severed_on = 0;
  const GroupStats on = run_final_wave(graph, /*hb_interval=*/0.2, &severed_on);
  EXPECT_EQ(severed_on, severed_off);
  // The beacon advertised the horizon; every severed subscriber opened the
  // gap and the ordinary NACK/repair plane filled it.
  EXPECT_GT(on.heartbeats_sent, 0u);
  EXPECT_EQ(on.heartbeat_gap_detections, severed_on);
  EXPECT_EQ(on.deliveries, on.expected_deliveries);
  EXPECT_EQ(on.gap_seqs_abandoned, 0u);
}

/// Pending-batch inheritance: three publishes join the root's batch, the
/// root dies inside the window. Cold (or fire-and-forget) they die with
/// it; warm at QoS 1+ the successor adopts them from the replica's copy.
GroupStats run_batch_kill(const overlay::OverlayGraph& graph, bool warm_on,
                          multicast::QoS qos) {
  const GroupId g = 0;
  PubSubConfig config;
  config.seed = 83;
  config.reliability.qos = qos;
  config.batch_window = 0.1;
  config.warm_failover = warm_on;
  return scenario::run_cell(
      graph, config,
      [&](PubSubSystem& system) {
        subscribe_members(system, graph, g, 12, 83);
        const PeerId root = system.manager().root_of(g);
        system.publish_at(5.0, root, g);
        system.publish_at(5.01, root, g);
        system.publish_at(5.02, root, g);
        system.depart_at(5.05, root);  // inside the batch window
      })
      .total;
}

TEST(GroupsFailoverTest, WarmPromotionAdoptsThePendingBatch) {
  const auto graph = make_overlay(150, 2, 1404).graph;

  const GroupStats cold = run_batch_kill(graph, false, multicast::QoS::kEndToEnd);
  EXPECT_EQ(cold.batch_publishes_lost, 3u);
  EXPECT_EQ(cold.pending_publishes_inherited, 0u);
  EXPECT_EQ(cold.deliveries, 0u);  // no wave ever flushed

  const GroupStats warm = run_batch_kill(graph, true, multicast::QoS::kEndToEnd);
  EXPECT_EQ(warm.batch_publishes_lost, 0u);
  EXPECT_EQ(warm.pending_publishes_inherited, 3u);
  EXPECT_EQ(warm.warm_promotions, 1u);
  // The inherited batch flushed from the successor and delivered in full.
  EXPECT_GT(warm.expected_deliveries, 0u);
  EXPECT_EQ(warm.deliveries, warm.expected_deliveries);

  // Fire-and-forget publishes carry no delivery promise a failover would
  // preserve: even warm, the batch dies with the root and stays counted.
  const GroupStats qos0 = run_batch_kill(graph, true, multicast::QoS::kFireAndForget);
  EXPECT_EQ(qos0.batch_publishes_lost, 3u);
  EXPECT_EQ(qos0.pending_publishes_inherited, 0u);
}

/// Replica-loss regression: replica_pending_ is keyed by group, so a dead
/// replica's pending-batch copy must be dropped at loss time. The stale
/// state is manufactured by dropping every kPendingFlush sync (so batch
/// A's copy is never cleared on the replica), killing that replica in
/// quiet time, then killing the root while batch B's single join is still
/// in flight to the NEW replica. At promotion the new replica has learned
/// of nothing — the correct inheritance is zero and publish B dies like
/// any unreplicated pending publish. Before the fix, batch A's stale
/// count (held by the DEAD replica) survived into the promotion read and
/// min(stale=3, at_root=1) invented an inherited publish with batch A's
/// accept time.
TEST(GroupsFailoverTest, ReplicaLossDropsTheDeadCopysPendingBatch) {
  const auto graph = make_overlay(150, 2, 1406).graph;
  const GroupId g = 0;
  PubSubConfig config;
  config.seed = 97;
  config.reliability.qos = multicast::QoS::kEndToEnd;
  config.batch_window = 0.1;
  config.warm_failover = true;
  // Sever the flush-clear path: the first replica keeps batch A's copy.
  config.loss.drop_if = [](const sim::Envelope& e) {
    if (e.kind != kReplicaSyncKind) return false;
    const auto* sync = std::any_cast<ReplicaSync>(&e.payload);
    return sync != nullptr && sync->what == ReplicaSync::What::kPendingFlush;
  };
  PubSubSystem system(graph, config);
  subscribe_members(system, graph, g, 12, 97);
  const PeerId root = system.manager().root_of(g);
  // Batch A: three joins replicate, the flush at 2.1 is never mirrored.
  system.publish_at(2.0, root, g);
  system.publish_at(2.001, root, g);
  system.publish_at(2.002, root, g);
  // Kill the replica in quiet time (wave A long drained). Its copy still
  // says "3 pending" — state that must die with it.
  auto first_replica = std::make_shared<PeerId>(kInvalidPeer);
  system.simulator().schedule_at(3.0, [&system, g, first_replica]() {
    *first_replica = system.manager().replica_of(g);
    system.depart_now(*first_replica);
  });
  // Batch B: one join, synced at 5.0 toward the re-bootstrapped replica
  // (arrives 5.01); the root dies at 5.005 with the sync still in flight.
  system.publish_at(5.0, root, g);
  system.depart_at(5.005, root);
  system.run();

  ASSERT_NE(*first_replica, kInvalidPeer);
  EXPECT_NE(*first_replica, root);
  const auto& stats = system.stats(g);
  EXPECT_EQ(stats.warm_promotions, 1u);
  // The promotion read the NEW replica's copy, which never learned of
  // publish B: nothing is inheritable. The stale-copy bug inherited 1
  // phantom record here (and lost nothing).
  EXPECT_EQ(stats.pending_publishes_inherited, 0u);
  EXPECT_EQ(stats.batch_publishes_lost, 1u);
  // Batch A delivered in full before any failure; B never flushed, so it
  // owes no deliveries.
  EXPECT_GT(stats.expected_deliveries, 0u);
  EXPECT_EQ(stats.deliveries, stats.expected_deliveries);
}

/// Residual QoS 2 blind spot, pinned: a subscriber severed on the group's
/// ONLY wave never initializes its window, so beacons can open no gaps
/// (mark_through's no-op rule) and the loss is invisible to the entire
/// gap plane. The heartbeat_blind_windows counter is what makes it
/// observable: every beacon that reaches a window-less subscriber counts.
TEST(GroupsFailoverTest, SoleWaveSeveranceIsCountedAsBlindWindows) {
  const auto graph = make_overlay(150, 2, 1407).graph;
  const GroupId g = 0;
  PubSubConfig config;
  config.seed = 101;
  config.reliability.qos = multicast::QoS::kEndToEnd;
  config.reliability.ack_timeout = 0.05;
  config.reliability.max_retries = 5;
  config.heartbeat_interval = 0.2;
  PubSubSystem system(graph, config);
  const auto members = subscribe_members(system, graph, g, 12, 101);
  std::vector<bool> member_anywhere(graph.size(), false);
  for (const PeerId m : members) member_anywhere[m] = true;
  system.publish_at(5.0, system.manager().root_of(g), g);  // the only wave
  auto severed = std::make_shared<std::size_t>(0);
  schedule_midwave_kill(system, g, 5.0, member_anywhere,
                        [severed](PeerId, std::size_t s) { *severed = s; });
  system.run();

  ASSERT_GT(*severed, 0u) << "seed severed nobody; the scenario is vacuous";
  const auto& stats = system.stats(g);
  // The loss is real and permanent: heartbeats ran, yet no gap was ever
  // detected — there is no window frontier to advance past the hole.
  EXPECT_EQ(stats.deliveries, stats.expected_deliveries - *severed);
  EXPECT_GT(stats.heartbeats_sent, 0u);
  EXPECT_EQ(stats.heartbeat_gap_detections, 0u);
  EXPECT_EQ(stats.gap_seqs_detected, 0u);
  // ...but it is no longer silent: each beacon round found every severed
  // subscriber still window-less.
  EXPECT_EQ(stats.heartbeat_blind_windows, *severed * stats.heartbeats_sent);
}

/// At R > 1 the kill helpers read slot 0's shard tree (cached_tree), the
/// one a publish at the group root builds: the mid-wave victim is a relay of
/// that shard, and only the shard's subscribers are severed.
TEST(GroupsFailoverTest, MidwaveKillAtTwoSlotsPicksFromSlotZerosShard) {
  const auto graph = make_overlay(150, 2, 1409).graph;
  const GroupId g = 0;
  PubSubConfig config;
  config.seed = 103;
  config.root_replicas = 2;
  PubSubSystem system(graph, config);
  const auto members = subscribe_members(system, graph, g, 24, 103);
  std::vector<bool> member_anywhere(graph.size(), false);
  for (const PeerId m : members) member_anywhere[m] = true;
  system.publish_at(5.0, system.manager().root_of(g), g);
  struct Kill {
    PeerId relay = kInvalidPeer;
    std::size_t severed = 0;
    PeerId tree_root = kInvalidPeer;
    PeerId slot0_root = kInvalidPeer;
    std::size_t slot0_members = 0;
    bool in_tree = false;
  };
  auto kill = std::make_shared<Kill>();
  schedule_midwave_kill(system, g, 5.0, member_anywhere,
                        [&system, kill, g](PeerId relay, std::size_t severed) {
                          GroupManager& manager = system.manager();
                          const GroupTree* gt = manager.cached_tree(g);
                          kill->relay = relay;
                          kill->severed = severed;
                          kill->tree_root = gt->tree.root();
                          kill->in_tree = gt->tree.reached(relay);
                          kill->slot0_root = manager.slot_root(g, 0);
                          kill->slot0_members = manager.slot_member_count(g, 0);
                        });
  system.run();

  ASSERT_NE(kill->relay, kInvalidPeer) << "no victim chosen at R = 2";
  ASSERT_LT(kill->slot0_members, members.size()) << "slot 1 owns nobody; nothing to tell apart";
  EXPECT_EQ(kill->tree_root, kill->slot0_root);
  EXPECT_TRUE(kill->in_tree);
  EXPECT_FALSE(member_anywhere[kill->relay]);
  EXPECT_GT(kill->severed, 0u);
  EXPECT_LE(kill->severed, kill->slot0_members);
  EXPECT_FALSE(system.manager().alive(kill->relay));
}

TEST(GroupsFailoverTest, WarmKnobIsPassiveOnNoKillSeeds) {
  const auto graph = make_overlay(150, 2, 1405).graph;
  const GroupId g = 0;
  using Delivered = std::vector<std::tuple<PeerId, std::uint64_t, double>>;
  const auto run_knob = [&graph, g](bool warm_on) {
    PubSubConfig config;
    config.seed = 89;
    config.reliability.qos = multicast::QoS::kEndToEnd;
    config.batch_window = 0.05;
    config.warm_failover = warm_on;
    const auto cell = scenario::run_cell(
        graph, config,
        [&](PubSubSystem& system) {
          const auto members = subscribe_members(system, graph, g, 12, 89);
          for (std::size_t i = 0; i < 6; ++i)
            system.publish_at(2.0 + 0.07 * static_cast<double>(i), members[i % 4], g);
        },
        {.record = scenario::Record::kProbeLog});
    Delivered delivered;
    for (const scenario::Delivery& d : cell.probes) delivered.emplace_back(d.peer, d.seq, d.time);
    return std::make_pair(delivered, cell.total);
  };
  const auto [cold_del, cold] = run_knob(false);
  const auto [warm_del, warm] = run_knob(true);
  // The oracle guarantee: with nobody dying, warm replication is pure
  // extra traffic — the delivered (peer, seq, time) stream is identical.
  EXPECT_EQ(warm_del, cold_del);
  EXPECT_EQ(warm.deliveries, cold.deliveries);
  EXPECT_EQ(warm.expected_deliveries, cold.expected_deliveries);
  EXPECT_EQ(warm.gap_seqs_detected, cold.gap_seqs_detected);
  EXPECT_GT(warm.replica_sync_envelopes, 0u);  // the stream really ran
  EXPECT_EQ(cold.replica_sync_envelopes, 0u);
}

}  // namespace
}  // namespace geomcast::groups
