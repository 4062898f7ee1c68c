// Transport ledger: the simulator's NetworkStats count every envelope the
// transport admits, per message kind, and nothing else; each finer count
// has one owner in the layer that charges it (GroupStats, the data plane's
// HopStats). The two sources are independent — one increments on admit(),
// the other where the protocol decides to send — so for every kind the
// pub/sub layer sends, the transport's count must equal what the owners
// charged:
//   - deliver = data-plane hop transmissions = payload + retransmissions;
//   - deliver_ack = ack_messages = data-plane hop acks;
//   - nack, repair, repair_miss = nacks_sent, repairs_served, repair_misses;
//   - replica_sync = replica_sync_envelopes + replica_sync_retries;
//   - subscribe + unsubscribe + publish = control_messages;
//   - seq_lease + seq_grant + shard_wave = coord hop data_messages and
//     coord_ack = coord hop ack_messages: the slot-root coordination plane
//     (R > 1) is owned by its own hop layer, retransmissions included;
//   - the per-kind counts sum to sent;
//   - graft_request = graft_hops where nothing is lost; under loss the
//     retransmitted requests come on top, bounded by graft_retries (which
//     also counts retransmitted accepts and rejects).
// Checked over a cube of QoS {0, 1, 2} x warm failover {off, on} x loss
// {0, 0.08} on every message kind, control plane included, x root replicas
// {1, 2}, each cell with root batching, heartbeats at QoS 2, churn, late
// joiners and a root kill.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "groups/pubsub.hpp"
#include "groups_test_util.hpp"

namespace geomcast::groups {
namespace {

using testutil::make_overlay;
using testutil::subscribe_members;

constexpr std::size_t kGroups = 6;
constexpr std::size_t kMembers = 12;
constexpr std::size_t kLateJoiners = 3;
constexpr std::size_t kPublishes = 8;
constexpr std::size_t kDepartures = 5;

/// What one cell of the cube leaves behind.
struct CellStats {
  sim::NetworkStats net;
  GroupStats total;
  multicast::HopStats hop;    // the data plane's
  multicast::HopStats coord;  // the slot-root coordination plane's
};

/// Envelopes of `kind` the transport admitted.
std::uint64_t sent(const sim::NetworkStats& net, sim::MessageKind kind) {
  const auto it = net.sent_by_kind.find(kind);
  return it == net.sent_by_kind.end() ? 0 : it->second;
}

constexpr const char* kCoordData = "seq_lease + seq_grant + shard_wave = coord data_messages";
constexpr const char* kCoordAcks = "coord_ack = coord ack_messages";

/// One line of the ledger: the transport's count against its owners'.
struct Entry {
  const char* name;
  std::uint64_t transport;
  std::uint64_t owners;
};

std::vector<Entry> ledger(const CellStats& c) {
  const GroupStats& t = c.total;
  std::uint64_t by_kind = 0;
  for (const auto& [kind, count] : c.net.sent_by_kind) by_kind += count;
  return {
      {"deliver = hop data_messages", sent(c.net, kDeliverKind), c.hop.data_messages},
      {"deliver = payload + retransmissions", sent(c.net, kDeliverKind),
       t.payload_messages + t.retransmissions},
      {"deliver_ack = ack_messages", sent(c.net, kDeliverAckKind), t.ack_messages},
      {"deliver_ack = hop ack_messages", sent(c.net, kDeliverAckKind), c.hop.ack_messages},
      {"nack = nacks_sent", sent(c.net, kNackKind), t.nacks_sent},
      {"repair = repairs_served", sent(c.net, kRepairKind), t.repairs_served},
      {"repair_miss = repair_misses", sent(c.net, kRepairMissKind), t.repair_misses},
      {"replica_sync = replica_sync_envelopes + replica_sync_retries",
       sent(c.net, kReplicaSyncKind), t.replica_sync_envelopes + t.replica_sync_retries},
      {"subscribe + unsubscribe + publish = control_messages",
       sent(c.net, kSubscribeKind) + sent(c.net, kUnsubscribeKind) +
           sent(c.net, kPublishKind),
       t.control_messages},
      {"sum of sent_by_kind = sent", by_kind, c.net.sent},
      {kCoordData,
       sent(c.net, kSeqLeaseKind) + sent(c.net, kSeqGrantKind) + sent(c.net, kShardWaveKind),
       c.coord.data_messages},
      {kCoordAcks, sent(c.net, kCoordAckKind), c.coord.ack_messages},
  };
}

/// Runs one cell of the cube.
CellStats run_cell(const overlay::OverlayGraph& graph, const PubSubConfig& config) {
  PubSubSystem system(graph, config);
  std::vector<std::vector<PeerId>> members(kGroups);
  std::vector<bool> taken(graph.size(), false);
  for (GroupId g = 0; g < kGroups; ++g) {
    members[g] = subscribe_members(system, graph, g, kMembers, config.seed + g);
    for (const PeerId p : members[g]) taken[p] = true;
    taken[system.manager().root_of(g)] = true;
  }
  // Late joiners land on cached trees, so the routed graft plane attaches
  // them while the publishes are in flight.
  PeerId next = 0;
  for (GroupId g = 0; g < kGroups; ++g)
    for (std::size_t j = 0; j < kLateJoiners; ++j) {
      while (taken[next]) ++next;
      taken[next] = true;
      system.subscribe_at(2.1 + 0.02 * static_cast<double>(j) +
                              0.001 * static_cast<double>(g),
                          next, g);
    }
  for (GroupId g = 0; g < kGroups; ++g)
    for (std::size_t i = 0; i < kPublishes; ++i)
      system.publish_at(2.0 + 0.05 * static_cast<double>(i) +
                            0.001 * static_cast<double>(g),
                        members[g][i % kMembers], g);
  // Churn: the last members of the first groups depart mid-stream, then
  // group 0's root dies.
  std::size_t departed = 0;
  for (GroupId g = 0; g < kGroups && departed < kDepartures; ++g)
    for (auto it = members[g].rbegin();
         it != members[g].rend() && departed < kDepartures; ++it, ++departed)
      system.depart_at(2.15 + 0.05 * static_cast<double>(departed), *it);
  system.depart_at(2.26, system.manager().root_of(0));
  system.run();
  return {system.simulator().stats(), system.total_stats(), system.hop_stats(),
          system.coord_hop_stats()};
}

TEST(GroupsTransportLedgerTest, PerKindCountsEqualTheirOwnersAcrossTheCube) {
  const auto graph = make_overlay(300, 2, 2207);
  // A ledger line that stays 0 on every cell would pass vacuously; each
  // one must be exercised somewhere in the cube.
  std::vector<bool> exercised;
  bool graft_exercised = false;
  std::size_t cells = 0;
  for (const int qos : {0, 1, 2})
    for (const bool warm : {false, true})
      for (const double loss : {0.0, 0.08})
        for (const std::size_t replicas : {std::size_t{1}, std::size_t{2}}) {
          PubSubConfig config;
          config.seed = 31;
          config.reliability.qos = static_cast<multicast::QoS>(qos);
          config.warm_failover = warm;
          config.loss.drop_probability = loss;
          config.root_replicas = replicas;
          config.batch_window = 0.1;
          if (qos == 2) config.heartbeat_interval = 0.5;
          const std::string cell = "qos " + std::to_string(qos) + " warm " +
                                   std::to_string(warm) + " loss " +
                                   std::to_string(loss) + " R " +
                                   std::to_string(replicas);
          const CellStats stats = run_cell(graph, config);
          ++cells;
          EXPECT_GT(stats.total.deliveries, 0u) << cell;
          const std::vector<Entry> entries = ledger(stats);
          exercised.resize(entries.size(), false);
          for (std::size_t e = 0; e < entries.size(); ++e) {
            EXPECT_EQ(entries[e].transport, entries[e].owners) << cell << ": "
                                                               << entries[e].name;
            if (entries[e].transport > 0) exercised[e] = true;
            // The coordination plane runs only between slot roots: silent
            // with one slot, busy on every two-slot cell.
            const std::string name = entries[e].name;
            if (name == kCoordData || name == kCoordAcks) {
              if (replicas == 1)
                EXPECT_EQ(entries[e].transport, 0u) << cell << ": " << name;
              else
                EXPECT_GT(entries[e].transport, 0u) << cell << ": " << name;
            }
          }
          const std::uint64_t requests = sent(stats.net, kGraftRequestKind);
          const GroupStats& t = stats.total;
          if (loss == 0.0) {
            EXPECT_EQ(requests, t.graft_hops) << cell << ": graft_request = graft_hops";
          } else {
            EXPECT_GE(requests, t.graft_hops) << cell;
            EXPECT_LE(requests, t.graft_hops + t.graft_retries) << cell;
          }
          if (requests > 0) graft_exercised = true;
        }
  EXPECT_EQ(cells, 24u);
  const std::vector<Entry> names = ledger(CellStats{});
  for (std::size_t e = 0; e < names.size(); ++e)
    EXPECT_TRUE(exercised[e]) << names[e].name << " is 0 on every cell";
  EXPECT_TRUE(graft_exercised) << "graft_request is 0 on every cell";
}

}  // namespace
}  // namespace geomcast::groups
