// Golden pins for the churn, loss-repair and warm-failover scenarios.
//
// Each cell runs one seeded pub/sub workload end to end and pins its
// complete observable result as 64-bit FNV-1a digests:
//   (1) every delivered (peer, group, seq, time) tuple, in probe order,
//       the time bit-exact (hex float),
//   (2) the stats JSON (GroupStats + NetworkStats + HopStats —
//       obs::to_json is canonical, so one differing counter fails), and
//   (3) the run() event count.
// The cells span QoS 0/1/2, stochastic loss, churn, root-side batching, a
// warm root-kill and a three-seed QoS 1 sweep, and one traced cell pins its
// full trace stream too.
// Any refactor of the simulator core, the hop layer or the pub/sub
// pipeline must leave every digest unchanged.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "groups/pubsub.hpp"
#include "obs/snapshot.hpp"
#include "obs/trace.hpp"
#include "scenario/scenario.hpp"

namespace geomcast::groups {
namespace {

using scenario::fnv1a;
using scenario::make_overlay;
using scenario::subscribe_members;

struct Golden {
  std::uint64_t delivered;
  std::uint64_t stats;
  std::size_t events;
};

/// Runs one seeded workload, a pure function of (config, knobs below), and
/// checks its pins. Returns the trace digest of a traced cell, else 0.
std::uint64_t expect_golden(const overlay::OverlayGraph& graph, const PubSubConfig& config,
                            std::size_t groups, std::size_t members, std::size_t publishes,
                            const Golden& golden, std::size_t departures = 0,
                            bool kill_root = false, bool with_trace = false) {
  obs::TraceSink trace;
  const scenario::CellResult cell = scenario::run_cell(
      graph, config,
      [&](PubSubSystem& system) {
        std::vector<std::vector<PeerId>> cell_members(groups);
        for (GroupId g = 0; g < groups; ++g)
          cell_members[g] = subscribe_members(system, graph, g, members, config.seed + g);
        for (GroupId g = 0; g < groups; ++g) {
          const PeerId root = system.manager().root_of(g);
          for (std::size_t i = 0; i < publishes; ++i)
            system.publish_at(2.0 + 0.05 * static_cast<double>(i) +
                                  0.001 * static_cast<double>(g),
                              root, g);
        }
        std::size_t departed = 0;
        for (GroupId g = 0; g < groups && departed < departures; ++g)
          for (auto it = cell_members[g].rbegin();
               it != cell_members[g].rend() && departed < departures; ++it, ++departed)
            system.depart_at(2.2 + 0.05 * static_cast<double>(departed), *it);
        if (kill_root) system.depart_at(2.26, system.manager().root_of(0));
      },
      {.record = scenario::Record::kProbeLog, .trace = with_trace ? &trace : nullptr});
  // "peer:group:seq:time;" per probe call, in order, the time bit-exact.
  std::string tuples;
  for (const scenario::Delivery& d : cell.probes) {
    char tuple[96];
    std::snprintf(tuple, sizeof(tuple), "%u:%llu:%llu:%a;", d.peer,
                  static_cast<unsigned long long>(d.group),
                  static_cast<unsigned long long>(d.seq), d.time);
    tuples += tuple;
  }
  EXPECT_FALSE(tuples.empty());
  const std::uint64_t delivered = fnv1a(tuples);
  const std::uint64_t stats = fnv1a(obs::to_json(cell.total) + '\n' + obs::to_json(cell.net) +
                                    '\n' + obs::to_json(cell.hop));
  EXPECT_EQ(delivered, golden.delivered) << std::hex << "got 0x" << delivered;
  EXPECT_EQ(stats, golden.stats) << std::hex << "got 0x" << stats;
  EXPECT_EQ(cell.events, golden.events);
  if (!with_trace) return 0;
  EXPECT_FALSE(trace.events().empty());
  EXPECT_EQ(trace.dropped(), 0u) << "ring overflowed: the digest would miss events";
  return scenario::trace_digest(trace.events());
}

TEST(GroupsGoldenCellsTest, QoS0BatchedLossless) {
  const auto graph = make_overlay(150, 2, 1501).graph;
  PubSubConfig config;
  config.seed = 211;
  config.batch_window = 0.1;
  expect_golden(graph, config, /*groups=*/4, /*members=*/10, /*publishes=*/6,
                {0x4705de762eba1c06ULL, 0xfb68846872319b58ULL, 467});
}

TEST(GroupsGoldenCellsTest, QoS1LossyBatchedWithChurn) {
  const auto graph = make_overlay(150, 2, 1502).graph;
  PubSubConfig config;
  config.seed = 223;
  config.reliability.qos = multicast::QoS::kAcked;
  config.reliability.ack_timeout = 0.05;
  config.reliability.max_retries = 4;
  config.batch_window = 0.1;
  config.loss.drop_probability = 0.03;
  expect_golden(graph, config, 4, 10, 6,
                {0x777ac51a9240b05eULL, 0xdad4dcee5d811ad5ULL, 747}, /*departures=*/6);
}

TEST(GroupsGoldenCellsTest, QoS2LossyRepairPath) {
  const auto graph = make_overlay(120, 3, 1503).graph;
  PubSubConfig config;
  config.seed = 227;
  config.reliability.qos = multicast::QoS::kEndToEnd;
  config.reliability.ack_timeout = 0.05;
  config.reliability.max_retries = 4;
  config.batch_window = 0.05;
  config.loss.drop_probability = 0.04;
  expect_golden(graph, config, 3, 12, 8,
                {0x1845586c9f950d8aULL, 0x847ed7eabacfd64eULL, 910});
}

TEST(GroupsGoldenCellsTest, WarmRootKillFailover) {
  const auto graph = make_overlay(150, 2, 1504).graph;
  PubSubConfig config;
  config.seed = 229;
  config.reliability.qos = multicast::QoS::kEndToEnd;
  config.reliability.ack_timeout = 0.05;
  config.reliability.max_retries = 4;
  config.batch_window = 0.1;
  config.warm_failover = true;
  expect_golden(graph, config, 3, 12, 6,
                {0xec165659717839b0ULL, 0x9a93d895893b3f00ULL, 792}, /*departures=*/0,
                /*kill_root=*/true);
}

TEST(GroupsGoldenCellsTest, TracedQoS1TraceStream) {
  // Tracing is bit-passive, so the traced cell pins its delivered tuples
  // and stats like the others, plus the whole trace stream, event order
  // included.
  const auto graph = make_overlay(120, 2, 1506).graph;
  PubSubConfig config;
  config.seed = 231;
  config.reliability.qos = multicast::QoS::kAcked;
  config.reliability.ack_timeout = 0.05;
  config.reliability.max_retries = 4;
  const std::uint64_t trace =
      expect_golden(graph, config, 3, 10, 5,
                    {0x8a06d5044aed3b7dULL, 0x5433e416b05456e7ULL, 1181},
                    /*departures=*/0, /*kill_root=*/false, /*with_trace=*/true);
  EXPECT_EQ(trace, 0x5099ec8662d60700ULL) << std::hex << "got 0x" << trace;
}

TEST(GroupsGoldenCellsTest, SeedSweepQoS1) {
  // One scenario over several seeds, so the pins cover schedule
  // permutations of the range dedup and the queue's lane/heap merge, not
  // one lucky seed.
  const auto graph = make_overlay(130, 2, 1505).graph;
  const struct {
    std::uint64_t seed;
    Golden golden;
  } cells[] = {{233, {0xadae50e32ddb6b97ULL, 0x65ffb81fed721440ULL, 903}},
               {239, {0x7afac4dad45f9e41ULL, 0x222e6943b0ff1026ULL, 885}},
               {241, {0xd3103eba452e65dcULL, 0xe8def68504566b42ULL, 836}}};
  for (const auto& cell : cells) {
    SCOPED_TRACE(cell.seed);
    PubSubConfig config;
    config.seed = cell.seed;
    config.reliability.qos = multicast::QoS::kAcked;
    config.reliability.ack_timeout = 0.05;
    config.reliability.max_retries = 4;
    config.loss.drop_probability = 0.02;
    expect_golden(graph, config, 3, 8, 5, cell.golden);
  }
}

}  // namespace
}  // namespace geomcast::groups
