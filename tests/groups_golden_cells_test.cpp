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
#include "groups_test_util.hpp"

namespace geomcast::groups {
namespace {

using testutil::make_overlay;
using testutil::subscribe_members;

/// 64-bit FNV-1a over raw bytes.
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// Every field of every trace event, the time bit-exact (hex float).
std::uint64_t trace_digest(const std::vector<obs::TraceEvent>& events) {
  std::string bytes;
  char line[256];
  for (const obs::TraceEvent& e : events) {
    std::snprintf(line, sizeof(line), "%a %u %llu %llu %llu %llu %u %u\n", e.time,
                  static_cast<unsigned>(e.type), static_cast<unsigned long long>(e.group),
                  static_cast<unsigned long long>(e.wave),
                  static_cast<unsigned long long>(e.seq_lo),
                  static_cast<unsigned long long>(e.seq_hi), e.peer, e.other);
    bytes += line;
  }
  return fnv1a(bytes);
}

struct CellResult {
  std::string delivered;  ///< "peer:group:seq:time;" per probe call, in order
  std::string stats_json;
  std::size_t events = 0;
  std::uint64_t trace = 0;  ///< trace_digest of the run (traced cells only)
};

struct Golden {
  std::uint64_t delivered;
  std::uint64_t stats;
  std::size_t events;
};

/// Runs one seeded workload and captures everything the pins compare. The
/// workload is a pure function of (config, knobs below).
CellResult run_cell(const overlay::OverlayGraph& graph, const PubSubConfig& config,
                    std::size_t groups, std::size_t members, std::size_t publishes,
                    std::size_t departures, bool kill_root, bool with_trace) {
  PubSubSystem system(graph, config);
  obs::TraceSink trace;
  if (with_trace) system.set_trace_sink(&trace);
  CellResult out;
  system.set_delivery_probe(
      [&out](PeerId peer, GroupId group, std::uint64_t seq, double time) {
        char tuple[96];
        std::snprintf(tuple, sizeof(tuple), "%u:%llu:%llu:%a;", peer,
                      static_cast<unsigned long long>(group),
                      static_cast<unsigned long long>(seq), time);
        out.delivered += tuple;
      });
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
  out.events = system.run();
  if (with_trace) {
    EXPECT_FALSE(trace.events().empty());
    EXPECT_EQ(trace.dropped(), 0u) << "ring overflowed: the digest would miss events";
    out.trace = trace_digest(trace.events());
  }

  std::string json = obs::to_json(system.total_stats());
  json += '\n';
  json += obs::to_json(system.simulator().stats());
  json += '\n';
  json += obs::to_json(system.hop_stats());
  out.stats_json = std::move(json);
  return out;
}

CellResult expect_golden(const overlay::OverlayGraph& graph, const PubSubConfig& config,
                         std::size_t groups, std::size_t members, std::size_t publishes,
                         const Golden& golden, std::size_t departures = 0,
                         bool kill_root = false, bool with_trace = false) {
  CellResult result = run_cell(graph, config, groups, members, publishes, departures,
                               kill_root, with_trace);
  EXPECT_FALSE(result.delivered.empty());
  const std::uint64_t delivered = fnv1a(result.delivered);
  const std::uint64_t stats = fnv1a(result.stats_json);
  EXPECT_EQ(delivered, golden.delivered) << std::hex << "got 0x" << delivered;
  EXPECT_EQ(stats, golden.stats) << std::hex << "got 0x" << stats;
  EXPECT_EQ(result.events, golden.events);
  return result;
}

TEST(GroupsGoldenCellsTest, QoS0BatchedLossless) {
  const auto graph = make_overlay(150, 2, 1501);
  PubSubConfig config;
  config.seed = 211;
  config.batch_window = 0.1;
  expect_golden(graph, config, /*groups=*/4, /*members=*/10, /*publishes=*/6,
                {0x4705de762eba1c06ULL, 0xfb68846872319b58ULL, 467});
}

TEST(GroupsGoldenCellsTest, QoS1LossyBatchedWithChurn) {
  const auto graph = make_overlay(150, 2, 1502);
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
  const auto graph = make_overlay(120, 3, 1503);
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
  const auto graph = make_overlay(150, 2, 1504);
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
  const auto graph = make_overlay(120, 2, 1506);
  PubSubConfig config;
  config.seed = 231;
  config.reliability.qos = multicast::QoS::kAcked;
  config.reliability.ack_timeout = 0.05;
  config.reliability.max_retries = 4;
  const CellResult result =
      expect_golden(graph, config, 3, 10, 5,
                    {0x8a06d5044aed3b7dULL, 0x5433e416b05456e7ULL, 1181},
                    /*departures=*/0, /*kill_root=*/false, /*with_trace=*/true);
  EXPECT_EQ(result.trace, 0x5099ec8662d60700ULL) << std::hex << "got 0x" << result.trace;
}

TEST(GroupsGoldenCellsTest, SeedSweepQoS1) {
  // One scenario over several seeds, so the pins cover schedule
  // permutations of the range dedup and the queue's lane/heap merge, not
  // one lucky seed.
  const auto graph = make_overlay(130, 2, 1505);
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
