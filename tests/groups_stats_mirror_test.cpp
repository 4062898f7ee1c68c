// Mirror-counter invariant: nine NetworkStats counters are reported by the
// same pub/sub code paths that charge their GroupStats counterparts, so the
// network-wide figure must equal the sum over groups (total_stats()) on
// every run. Checked over a cube of QoS {0, 1, 2} x warm failover
// {off, on} x loss {0, 0.08} on every message kind, control plane
// included, x root replicas {1, 2}, each cell with root batching,
// heartbeats at QoS 2, churn, late joiners and a root kill.
//
// Three NetworkStats counters have a GroupStats namesake but are not
// mirrors, so they stay out of the check:
//   - retransmitted and abandoned_hops also count the hop layers of the
//     graft and replica-sync control planes, which charge no group's
//     retransmissions / abandoned_hops;
//   - batched_waves counts one per slot wave, so it doubles at R = 2
//     against the per-group flush counters.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "groups/pubsub.hpp"
#include "groups_test_util.hpp"

namespace geomcast::groups {
namespace {

using testutil::make_overlay;
using testutil::subscribe_members;

struct Mirror {
  const char* name;
  std::uint64_t sim::NetworkStats::*net;
  std::uint64_t GroupStats::*group;
};

const Mirror kMirrors[] = {
    {"graft_hops", &sim::NetworkStats::graft_hops, &GroupStats::graft_hops},
    {"graft_retries", &sim::NetworkStats::graft_retries, &GroupStats::graft_retries},
    {"graft_aborts", &sim::NetworkStats::graft_aborts, &GroupStats::graft_aborts},
    {"nacks", &sim::NetworkStats::nacks, &GroupStats::nacks_sent},
    {"repairs_served", &sim::NetworkStats::repairs_served, &GroupStats::repairs_served},
    {"replica_sync_envelopes", &sim::NetworkStats::replica_sync_envelopes,
     &GroupStats::replica_sync_envelopes},
    {"migration_envelopes", &sim::NetworkStats::migration_envelopes,
     &GroupStats::migration_envelopes},
    {"duplicate_data", &sim::NetworkStats::duplicate_data,
     &GroupStats::duplicate_deliveries},
    {"envelopes_saved", &sim::NetworkStats::envelopes_saved,
     &GroupStats::envelopes_saved},
};
constexpr std::size_t kMirrorCount = sizeof(kMirrors) / sizeof(kMirrors[0]);

constexpr std::size_t kGroups = 6;
constexpr std::size_t kMembers = 12;
constexpr std::size_t kLateJoiners = 3;
constexpr std::size_t kPublishes = 8;
constexpr std::size_t kDepartures = 5;

/// Runs one cell of the cube and returns (network, summed group) stats.
std::pair<sim::NetworkStats, GroupStats> run_cell(const overlay::OverlayGraph& graph,
                                                  const PubSubConfig& config) {
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
  return {system.simulator().stats(), system.total_stats()};
}

TEST(GroupsStatsMirrorTest, NetworkCountersEqualGroupTotalsAcrossTheCube) {
  const auto graph = make_overlay(300, 2, 2207);
  // A mirror that stays 0 on every cell would pass vacuously; each one
  // must be exercised somewhere in the cube.
  bool exercised[kMirrorCount] = {};
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
          const auto [net, total] = run_cell(graph, config);
          ++cells;
          EXPECT_GT(total.deliveries, 0u) << cell;
          for (std::size_t m = 0; m < kMirrorCount; ++m) {
            const Mirror& mirror = kMirrors[m];
            EXPECT_EQ(net.*mirror.net, total.*mirror.group)
                << cell << ": NetworkStats::" << mirror.name;
            if (net.*mirror.net > 0) exercised[m] = true;
          }
        }
  EXPECT_EQ(cells, 24u);
  for (std::size_t m = 0; m < kMirrorCount; ++m)
    EXPECT_TRUE(exercised[m]) << kMirrors[m].name << " is 0 on every cell";
}

}  // namespace
}  // namespace geomcast::groups
