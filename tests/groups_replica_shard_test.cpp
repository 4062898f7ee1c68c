// Replica-sharded roots battery (PubSubConfig::root_replicas = R): the
// rendezvous-replica partition itself (anchors, owner slots, distinct slot
// roots), delivered-set identity of R in {2, 4} against R = 1 across QoS
// rungs x loss x root batching x publisher batching, seq-lease
// uniqueness/density of the global (group, seq) space, the
// slot-root-death-mid-graft regression (promotion hands the shard over,
// zero leaked cursors, full post-churn delivery), warm failover of the
// slot-0 authority at R > 1, snapshot-JSON coverage of the shard counters,
// rejection of a conflicting groups.root_replicas, and golden digests
// pinning R = 1 itself.
#include "groups/message_kinds.hpp"
#include "groups/pubsub.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/snapshot.hpp"
#include "obs/trace.hpp"
#include "scenario/scenario.hpp"

namespace geomcast::groups {
namespace {

using scenario::fnv1a;
using scenario::make_overlay;
using scenario::subscribe_members;

/// Some (peer, group, seq) reported twice.
bool probe_duplicates(const scenario::CellResult& r) {
  return r.probe_calls != r.delivered.size();
}

/// obs::to_json of the run's GroupStats + NetworkStats + HopStats.
std::string stats_json(const scenario::CellResult& r) {
  return obs::to_json(r.total) + obs::to_json(r.net) + obs::to_json(r.hop);
}

struct CellConfig {
  std::size_t replicas = 1;
  multicast::QoS qos = multicast::QoS::kEndToEnd;
  bool loss = false;
  double batch_window = 0.0;            // root-side coalescing
  double publisher_batch_window = 0.0;  // source-side coalescing
};

/// Deterministic loss scoped to the RECOVERABLE planes (tree payloads and
/// the acked coordination/graft carriers — everything a QoS 1+ hop layer
/// retransmits). Blanket drop_probability would also eat best-effort
/// publish control envelopes, whose survival legitimately depends on the
/// route taken — i.e. on R — making delivered-set identity vacuous.
sim::LossModel lossy_data_plane() {
  sim::LossModel loss;
  auto counter = std::make_shared<std::uint64_t>(0);
  loss.drop_if = [counter](const sim::Envelope& e) {
    switch (e.kind) {
      case kDeliverKind:
      case kGraftRequestKind:
      case kGraftAcceptKind:
      case kGraftRejectKind:
      case kSeqLeaseKind:
      case kSeqGrantKind:
      case kShardWaveKind:
        return ++*counter % 11 == 0;
      default:
        return false;
    }
  };
  return loss;
}

/// The shared workload: 16 subscribers, then 12 publishes from 4 distinct
/// origins spread over the graph (so at R > 1 several slots ingest).
scenario::CellResult run_shard_cell(const overlay::OverlayGraph& graph,
                                    const CellConfig& cell, obs::TraceSink* sink = nullptr) {
  const GroupId g = 0;
  PubSubConfig config;
  config.seed = 211;
  config.root_replicas = cell.replicas;
  config.reliability.qos = cell.qos;
  config.reliability.ack_timeout = 0.05;
  config.reliability.max_retries = 12;  // generous: lossy cells still converge
  config.batch_window = cell.batch_window;
  config.publisher_batch_window = cell.publisher_batch_window;
  if (cell.loss) config.loss = lossy_data_plane();
  return scenario::run_cell(
      graph, config,
      [&](PubSubSystem& system) {
        const auto members = subscribe_members(system, graph, g, 16, 211);
        for (std::size_t i = 0; i < 12; ++i)
          system.publish_at(2.0 + 0.11 * static_cast<double>(i), members[i % 4], g);
      },
      {.record = scenario::Record::kDeliveredSet, .trace = sink});
}

/// The delivered-set battery's cells: QoS rungs, data-plane loss, and
/// root-side / publisher-side coalescing.
std::vector<CellConfig> oracle_cells() {
  return {
      // QoS rungs, lossless, no batching.
      {1, multicast::QoS::kFireAndForget, false, 0.0, 0.0},
      {1, multicast::QoS::kAcked, false, 0.0, 0.0},
      {1, multicast::QoS::kEndToEnd, false, 0.0, 0.0},
      // Data-plane loss (acked rungs only: retransmission makes delivery a
      // guarantee, so the sets stay comparable across topologies).
      {1, multicast::QoS::kAcked, true, 0.0, 0.0},
      {1, multicast::QoS::kEndToEnd, true, 0.0, 0.0},
      // Root-side coalescing, publisher-side coalescing, and both.
      {1, multicast::QoS::kEndToEnd, false, 0.05, 0.0},
      {1, multicast::QoS::kEndToEnd, false, 0.0, 0.05},
      {1, multicast::QoS::kEndToEnd, true, 0.05, 0.05},
  };
}

/// The golden pins below compare digests of the delivered set, the stats
/// JSON and the trace stream instead of the raw bytes.
std::uint64_t delivered_digest(const std::set<scenario::DeliveryKey>& delivered) {
  std::string bytes;
  for (const auto& [peer, group, seq] : delivered)
    bytes += std::to_string(peer) + ':' + std::to_string(seq) + ';';
  return fnv1a(bytes);
}

TEST(GroupsReplicaShardTest, AnchorsPartitionPeersAcrossDistinctSlotRoots) {
  const auto graph = make_overlay(200, 2, 1501).graph;
  const GroupId g = 0;
  // At R = 100 half of the 200 peers root a slot, and all must be distinct.
  for (const std::size_t replicas : {std::size_t{4}, std::size_t{100}}) {
    SCOPED_TRACE("root_replicas=" + std::to_string(replicas));
    PubSubConfig config;
    config.seed = 199;
    config.root_replicas = replicas;
    PubSubSystem system(graph, config);
    subscribe_members(system, graph, g, 16, 199);
    system.run();

    auto& manager = system.manager();
    EXPECT_TRUE(manager.sharded());
    EXPECT_EQ(manager.root_replicas(), replicas);
    // Slot 0's anchor is the group's rendezvous point, so its root is the
    // R = 1 root — sharding never moves the authority.
    EXPECT_EQ(manager.slot_root(g, 0), manager.root_of(g));
    std::set<PeerId> roots;
    for (std::uint32_t s = 0; s < replicas; ++s) {
      const PeerId root = manager.slot_root(g, s);
      EXPECT_NE(root, kInvalidPeer);
      roots.insert(root);
    }
    EXPECT_EQ(roots.size(), replicas) << "slot roots must be distinct peers";
    // The warm-failover replica roots no slot: one death costs one shard.
    const PeerId replica = manager.replica_candidate(g);
    EXPECT_NE(replica, kInvalidPeer);
    EXPECT_EQ(roots.count(replica), 0u);
    // The owner partition is total and consistent: every peer maps to one
    // slot, and that slot's root is its owner root.
    std::size_t member_total = 0;
    for (std::uint32_t s = 0; s < replicas; ++s)
      member_total += manager.slot_member_count(g, s);
    EXPECT_EQ(member_total, 16u);
    for (PeerId p = 0; p < graph.size(); ++p) {
      const std::uint32_t slot = manager.owner_slot(g, p);
      EXPECT_LT(slot, replicas);
      EXPECT_EQ(manager.owner_root(g, p), manager.slot_root(g, slot));
    }
  }
}

TEST(GroupsReplicaShardTest, ConflictingGroupsRootReplicasIsRejected) {
  // PubSubConfig::root_replicas overrides groups.root_replicas, so a
  // sharded value set only on the groups side would silently run at R = 1.
  const auto graph = make_overlay(60, 2, 1502).graph;
  PubSubConfig config;
  config.groups.root_replicas = 4;
  EXPECT_THROW(PubSubSystem(graph, config), std::invalid_argument);
  config.root_replicas = 2;
  EXPECT_THROW(PubSubSystem(graph, config), std::invalid_argument);
  // Both set to the same R is valid and runs sharded at R.
  config.root_replicas = 4;
  PubSubSystem both(graph, config);
  EXPECT_EQ(both.manager().root_replicas(), 4u);
  // An unsharded groups value defers to the façade.
  config.groups.root_replicas = 1;
  PubSubSystem facade_only(graph, config);
  EXPECT_EQ(facade_only.manager().root_replicas(), 4u);
}

TEST(GroupsReplicaShardTest, DeliveredSetsMatchTheSingleRootOracleAcrossCells) {
  const auto graph = make_overlay(200, 2, 1502).graph;
  for (const CellConfig& base : oracle_cells()) {
    CellConfig oracle_cell = base;
    oracle_cell.replicas = 1;
    const scenario::CellResult oracle = run_shard_cell(graph, oracle_cell);
    ASSERT_FALSE(oracle.delivered.empty());
    // The oracle delivers everything: 16 subscribers x 12 publishes.
    EXPECT_EQ(oracle.delivered.size(), 16u * 12u);
    EXPECT_FALSE(probe_duplicates(oracle));
    for (const std::size_t r : {std::size_t{2}, std::size_t{4}}) {
      CellConfig sharded_cell = base;
      sharded_cell.replicas = r;
      const scenario::CellResult sharded = run_shard_cell(graph, sharded_cell);
      EXPECT_EQ(sharded.delivered, oracle.delivered)
          << "R=" << r << " qos=" << static_cast<int>(base.qos)
          << " loss=" << base.loss << " batch=" << base.batch_window
          << " pub_batch=" << base.publisher_batch_window;
      EXPECT_FALSE(probe_duplicates(sharded));
      EXPECT_EQ(sharded.total.publishes, oracle.total.publishes);
      // The shard pipeline really ran: every committed range fanned out to
      // the R - 1 other slots.
      EXPECT_GT(sharded.total.shard_waves, 0u);
      EXPECT_GT(sharded.total.shard_handoffs, 0u);
    }
  }
}

/// R = 1 golden pins, captured from the separate single-root pipeline
/// before R = 1 became the one-slot case of the sharded one. The battery
/// above compares R in {2, 4} against R = 1, so R = 1 itself needs an
/// independent reference: the delivered (peer, seq) set and the full stats
/// JSON of every battery cell, byte for byte.
TEST(GroupsReplicaShardTest, SingleSlotCellsMatchTheirGoldenDigests) {
  const auto graph = make_overlay(200, 2, 1502).graph;
  const std::pair<std::uint64_t, std::uint64_t> golden[] = {
      {0x2bca168771a9ff45ULL, 0x68e881a6a53d18c8ULL},
      {0x2bca168771a9ff45ULL, 0x3ce16f6e4602ffe9ULL},
      {0x2bca168771a9ff45ULL, 0x3ce16f6e4602ffe9ULL},
      {0x2bca168771a9ff45ULL, 0x29ec8d1198d5de9fULL},
      {0x2bca168771a9ff45ULL, 0x4350d6c56c7b14efULL},
      {0x2bca168771a9ff45ULL, 0xde355364a4393665ULL},
      {0x2bca168771a9ff45ULL, 0xd6ead34f9a2bb8afULL},
      {0x2bca168771a9ff45ULL, 0x91697b944035363fULL},
  };
  const auto cells = oracle_cells();
  ASSERT_EQ(cells.size(), std::size(golden));
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const scenario::CellResult result = run_shard_cell(graph, cells[i]);
    EXPECT_EQ(delivered_digest(result.delivered), golden[i].first)
        << "cell " << i << std::hex << " got 0x" << delivered_digest(result.delivered);
    EXPECT_EQ(fnv1a(stats_json(result)), golden[i].second)
        << "cell " << i << std::hex << " got 0x" << fnv1a(stats_json(result));
  }
}

/// The full trace stream of one lossy, batched QoS 2 cell at R = 1 —
/// event order included — pinned the same way.
TEST(GroupsReplicaShardTest, SingleSlotTraceStreamMatchesItsGoldenDigest) {
  const auto graph = make_overlay(200, 2, 1502).graph;
  obs::TraceSink sink;
  (void)run_shard_cell(graph, {1, multicast::QoS::kEndToEnd, true, 0.05, 0.05}, &sink);
  ASSERT_EQ(sink.dropped(), 0u) << "ring overflowed: the digest would miss events";
  const std::uint64_t digest = scenario::trace_digest(sink.events());
  EXPECT_EQ(digest, 0x4f4ac9eb373a7c8eULL) << std::hex << "got 0x" << digest;
}

TEST(GroupsReplicaShardTest, SeqLeaseKeepsTheSeqSpaceDenseAndUnique) {
  const auto graph = make_overlay(200, 2, 1503).graph;
  CellConfig cell;
  cell.replicas = 4;
  cell.qos = multicast::QoS::kEndToEnd;
  const scenario::CellResult result = run_shard_cell(graph, cell);

  // Globally unique: no subscriber saw any (group, seq) twice.
  EXPECT_FALSE(probe_duplicates(result));
  // Dense: per subscriber the delivered seqs are exactly {0..11} — no hole,
  // no overlap, regardless of which slot root committed each publish.
  std::set<PeerId> subscribers;
  for (const auto& [peer, group, seq] : result.delivered) {
    subscribers.insert(peer);
    EXPECT_LT(seq, 12u);
  }
  EXPECT_EQ(subscribers.size(), 16u);
  EXPECT_EQ(result.delivered.size(), 16u * 12u);
  // Non-authority slots leased their ranges; lossless means every lease
  // was granted and no granted range died with its requester.
  EXPECT_GT(result.total.seq_lease_requests, 0u);
  EXPECT_EQ(result.total.seq_leases_granted, result.total.seq_lease_requests);
  EXPECT_EQ(result.total.seq_grants_lost, 0u);
}

/// Satellite regression: a NON-authority slot root dies while routed
/// descents are in flight through its shard. The departure must hand the
/// shard (subscriber partition + graft cursors) to the next-nearest peer
/// via promotion — aborted cursors re-enter through resubscribe, none leak
/// — and post-churn publishes must deliver in full.
TEST(GroupsReplicaShardTest, SlotRootDeathMidGraftLeaksNoCursorsAndRecovers) {
  const auto graph = make_overlay(200, 2, 1504).graph;
  const GroupId g = 0;
  PubSubConfig config;
  config.seed = 223;
  config.root_replicas = 4;
  config.reliability.qos = multicast::QoS::kEndToEnd;
  config.reliability.ack_timeout = 0.05;
  config.reliability.max_retries = 8;
  PubSubSystem system(graph, config);
  const auto members = subscribe_members(system, graph, g, 16, 223);
  // Build all four shard trees so later subscribes graft instead of
  // booking membership into an uncached tree.
  for (std::size_t i = 0; i < 4; ++i)
    system.publish_at(2.0 + 0.1 * static_cast<double>(i), members[i], g);
  // A late-join batch at t=10: their routed descents are mid-flight when
  // the victim dies at t=10.03.
  std::vector<bool> taken(graph.size(), false);
  for (const PeerId m : members) taken[m] = true;
  std::vector<PeerId> late;
  for (PeerId p = 0; late.size() < 12 && p < graph.size(); ++p) {
    if (taken[p] || p == system.manager().root_of(g)) continue;
    late.push_back(p);
    system.subscribe_at(10.0, p, g);
  }
  auto inflight_at_kill = std::make_shared<std::size_t>(0);
  auto victim = std::make_shared<PeerId>(kInvalidPeer);
  system.simulator().schedule_at(10.03, [&system, g, inflight_at_kill, victim]() {
    *inflight_at_kill = system.manager().inflight_graft_count();
    // Kill a NON-authority slot root (the satellite's subject: shard
    // handoff without the warm-replica machinery).
    *victim = system.manager().slot_root(g, 2);
    system.depart_now(*victim);
  });
  // Post-churn publishes from survivors: every alive subscriber —
  // including the late joiners regrafted onto the promoted root — is owed
  // these waves.
  for (std::size_t i = 0; i < 4; ++i)
    system.publish_at(15.0 + 0.1 * static_cast<double>(i), members[8 + i], g);
  system.run();

  ASSERT_GT(*inflight_at_kill, 0u) << "seed had no descent in flight; vacuous";
  ASSERT_NE(*victim, kInvalidPeer);
  // The shard was handed over, not dropped: slot 2 has a live root again
  // and its members still map to it.
  const PeerId promoted = system.manager().slot_root(g, 2);
  EXPECT_NE(promoted, *victim);
  EXPECT_TRUE(system.manager().alive(promoted));
  const auto& stats = system.stats(g);
  EXPECT_GT(stats.root_migrations, 0u);
  // Zero leaked cursors: every descent either finished or aborted-and-
  // resubscribed; nothing is still registered after the run drains.
  EXPECT_EQ(system.manager().inflight_graft_count(), 0u);
  // Full post-churn delivery: expected_deliveries is booked per wave from
  // the live snapshots, so equality means nobody was silently dropped.
  EXPECT_EQ(stats.deliveries, stats.expected_deliveries);
  EXPECT_EQ(stats.seq_grants_lost, 0u);
}

TEST(GroupsReplicaShardTest, WarmFailoverPromotesTheShardedAuthority) {
  const auto graph = make_overlay(200, 2, 1505).graph;
  const GroupId g = 0;
  PubSubConfig config;
  config.seed = 227;
  config.root_replicas = 2;
  config.reliability.qos = multicast::QoS::kEndToEnd;
  config.batch_window = 0.1;
  config.warm_failover = true;
  PubSubSystem system(graph, config);
  const auto members = subscribe_members(system, graph, g, 16, 227);
  system.publish_at(2.0, members[0], g);  // build trees, start the sync stream
  // Publishes owned by slot 0 buffer at the authority; it dies inside the
  // window and the warm promotion must adopt them.
  std::vector<PeerId> slot0_publishers;
  system.simulator().schedule_at(4.0, [&system, &slot0_publishers, g]() {
    for (PeerId p = 0; p < 4096 && slot0_publishers.size() < 3; ++p)
      if (system.manager().alive(p) && system.manager().owner_slot(g, p) == 0)
        slot0_publishers.push_back(p);
  });
  system.simulator().schedule_at(5.0, [&system, &slot0_publishers, g]() {
    for (const PeerId p : slot0_publishers) system.publish_at(5.0, p, g);
  });
  system.simulator().schedule_at(5.05, [&system, g]() {
    system.depart_now(system.manager().slot_root(g, 0));
  });
  system.run();

  const auto& stats = system.stats(g);
  EXPECT_EQ(stats.warm_promotions, 1u);
  EXPECT_EQ(stats.pending_publishes_inherited, 3u);
  EXPECT_EQ(stats.batch_publishes_lost, 0u);
  // The inherited batch flushed from the successor and every wave
  // delivered in full across both shards.
  EXPECT_EQ(stats.deliveries, stats.expected_deliveries);
  EXPECT_GT(stats.deliveries, 0u);
}

TEST(GroupsReplicaShardTest, PublisherBatchingCoalescesAtTheSource) {
  const auto graph = make_overlay(200, 2, 1507).graph;
  const GroupId g = 0;
  const auto run_burst = [&graph, g](double window) {
    PubSubConfig config;
    config.seed = 233;
    config.root_replicas = 2;
    config.reliability.qos = multicast::QoS::kEndToEnd;
    config.publisher_batch_window = window;
    const auto cell = scenario::run_cell(
        graph, config,
        [&](PubSubSystem& system) {
          const auto members = subscribe_members(system, graph, g, 12, 233);
          // One hot publisher bursting 6 app messages inside the window.
          for (std::size_t i = 0; i < 6; ++i)
            system.publish_at(2.0 + 0.002 * static_cast<double>(i), members[0], g);
        },
        {.record = scenario::Record::kDeliveredSet});
    return std::make_pair(cell.delivered, cell.total);
  };
  const auto [off_del, off] = run_burst(0.0);
  const auto [on_del, on] = run_burst(0.05);
  // Same app messages delivered either way; the on-cell sent one envelope
  // where the off-cell sent six.
  EXPECT_EQ(on_del, off_del);
  EXPECT_EQ(on.publishes, off.publishes);
  EXPECT_EQ(off.publisher_batches, 0u);
  EXPECT_EQ(on.publisher_batches, 1u);
  EXPECT_EQ(on.publisher_batched_publishes, 6u);
  EXPECT_EQ(on.publisher_envelopes_saved, 5u);
}

TEST(GroupsReplicaShardTest, SnapshotJsonCarriesTheShardCounters) {
  const auto graph = make_overlay(200, 2, 1502).graph;
  CellConfig cell;
  cell.replicas = 4;
  cell.publisher_batch_window = 0.02;
  (void)run_shard_cell(graph, cell);  // exercise; the JSON shape is what's pinned

  PubSubConfig config;
  config.seed = 211;
  config.root_replicas = 4;
  PubSubSystem system(graph, config);
  subscribe_members(system, graph, 0, 8, 211);
  system.publish_at(2.0, system.manager().root_of(0), 0);
  system.run();
  const std::string json = obs::to_json(system.total_stats());
  for (const char* name :
       {"\"seq_lease_requests\":", "\"seq_leases_granted\":",
        "\"seq_grants_lost\":", "\"shard_handoffs\":", "\"shard_waves\":",
        "\"publisher_batches\":", "\"publisher_batched_publishes\":",
        "\"publisher_envelopes_saved\":"})
    EXPECT_NE(json.find(name), std::string::npos) << name;
  // The coordination kinds are registry-named in the per-kind send map.
  EXPECT_NE(std::string(kind_name(kSeqLeaseKind)).find("seq_lease"),
            std::string::npos);
  EXPECT_NE(std::string(kind_name(kShardWaveKind)).find("shard_wave"),
            std::string::npos);
}

}  // namespace
}  // namespace geomcast::groups
