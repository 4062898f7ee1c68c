// Oracle-equivalence battery for the sharded event loop.
//
// PubSubConfig::sim_shards > 1 partitions peers into contiguous coordinate
// regions, each with its own event lane and worker thread, under a
// conservative synchronized-window loop (lookahead = the latency model's
// minimum delay). The engineering claim mirrors sim_core's: the knob is
// *bit-passive*. sim_shards = 1 is the unmodified single-threaded loop —
// the oracle — and for every shard count the battery demands
//   (1) identical delivered sequences: every (peer, group, seq, time)
//       tuple, in probe-invocation order,
//   (2) byte-identical stats JSON (GroupStats + NetworkStats + HopStats —
//       obs::to_json is canonical, so one differing counter fails), and
//   (3) the same run() event count.
// Cells span QoS 0/1/2, stochastic loss, churn, batching, a warm
// root-kill, and a seed sweep, so every lane-split subsystem (per-hop
// pending tables, per-lane stat deltas, the log_ext replay of
// floating-point latency accounting, cross-shard mailbox merges) is
// exercised. A Simulator-level test additionally pins the mailbox merge
// order under same-timestamp cross-lane collisions.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "groups/pubsub.hpp"
#include "obs/snapshot.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "groups_test_util.hpp"

namespace geomcast::groups {
namespace {

using testutil::make_overlay;
using testutil::subscribe_members;

struct CellResult {
  std::vector<std::tuple<PeerId, GroupId, std::uint64_t, double>> delivered;
  std::string stats_json;
  std::size_t events = 0;
};

/// Runs one seeded workload and captures everything the equivalence gate
/// compares. The workload is a pure function of (config, knobs below);
/// only config.sim_shards varies between runs of a cell.
CellResult run_cell(const overlay::OverlayGraph& graph, PubSubConfig config,
                    std::size_t groups, std::size_t members, std::size_t publishes,
                    std::size_t departures, bool kill_root, bool with_trace) {
  PubSubSystem system(graph, config);
  obs::TraceSink trace(4096);
  if (with_trace) system.set_trace_sink(&trace);
  CellResult out;
  system.set_delivery_probe(
      [&out](PeerId peer, GroupId group, std::uint64_t seq, double time) {
        out.delivered.emplace_back(peer, group, seq, time);
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
  }

  std::string json = obs::to_json(system.total_stats());
  json += '\n';
  json += obs::to_json(system.simulator().stats());
  json += '\n';
  json += obs::to_json(system.hop_stats());
  out.stats_json = std::move(json);
  return out;
}

/// shards = 1 is definitionally the untouched classic loop; every other
/// shard count must reproduce it bit for bit. 7 deliberately exceeds a
/// balanced split of the smaller graphs' regions and does not divide the
/// peer count, catching any region-boundary arithmetic slips.
void expect_shard_invariant(const overlay::OverlayGraph& graph, PubSubConfig config,
                            std::size_t groups, std::size_t members,
                            std::size_t publishes, std::size_t departures = 0,
                            bool kill_root = false, bool with_trace = false) {
  config.sim_shards = 1;
  const auto oracle = run_cell(graph, config, groups, members, publishes, departures,
                               kill_root, with_trace);
  EXPECT_FALSE(oracle.delivered.empty());
  for (const std::size_t shards : {std::size_t{2}, std::size_t{4}, std::size_t{7}}) {
    config.sim_shards = shards;
    const auto sharded = run_cell(graph, config, groups, members, publishes,
                                  departures, kill_root, with_trace);
    EXPECT_EQ(sharded.delivered, oracle.delivered) << "shards=" << shards;
    EXPECT_EQ(sharded.stats_json, oracle.stats_json) << "shards=" << shards;
    EXPECT_EQ(sharded.events, oracle.events) << "shards=" << shards;
  }
}

TEST(SimShardedLoopTest, QoS0BatchedLossless) {
  const auto graph = make_overlay(150, 2, 1501);
  PubSubConfig config;
  config.seed = 211;
  config.batch_window = 0.1;
  config.sim_core = true;
  expect_shard_invariant(graph, config, /*groups=*/4, /*members=*/10,
                         /*publishes=*/6);
}

TEST(SimShardedLoopTest, QoS1LossyBatchedWithChurn) {
  const auto graph = make_overlay(150, 2, 1502);
  PubSubConfig config;
  config.seed = 223;
  config.reliability.qos = multicast::QoS::kAcked;
  config.reliability.ack_timeout = 0.05;
  config.reliability.max_retries = 4;
  config.batch_window = 0.1;
  config.loss.drop_probability = 0.03;
  config.sim_core = true;
  expect_shard_invariant(graph, config, 4, 10, 6, /*departures=*/6);
}

TEST(SimShardedLoopTest, QoS2LossyRepairPath) {
  const auto graph = make_overlay(120, 3, 1503);
  PubSubConfig config;
  config.seed = 227;
  config.reliability.qos = multicast::QoS::kEndToEnd;
  config.reliability.ack_timeout = 0.05;
  config.reliability.max_retries = 4;
  config.batch_window = 0.05;
  config.loss.drop_probability = 0.04;
  config.sim_core = true;
  expect_shard_invariant(graph, config, 3, 12, 8);
}

TEST(SimShardedLoopTest, WarmRootKillFailover) {
  const auto graph = make_overlay(150, 2, 1504);
  PubSubConfig config;
  config.seed = 229;
  config.reliability.qos = multicast::QoS::kEndToEnd;
  config.reliability.ack_timeout = 0.05;
  config.reliability.max_retries = 4;
  config.batch_window = 0.1;
  config.warm_failover = true;
  config.sim_core = true;
  expect_shard_invariant(graph, config, 3, 12, 6, /*departures=*/0,
                         /*kill_root=*/true);
}

TEST(SimShardedLoopTest, SeedSweepQoS1ClassicQueue) {
  // Several seeds, and deliberately on the classic heap queue + per-seq
  // dedup (sim_core off): the sharded loop must be bit-passive over both
  // event-queue implementations.
  const auto graph = make_overlay(130, 2, 1505);
  for (const std::uint64_t seed : {233u, 239u, 241u}) {
    PubSubConfig config;
    config.seed = seed;
    config.reliability.qos = multicast::QoS::kAcked;
    config.reliability.ack_timeout = 0.05;
    config.reliability.max_retries = 4;
    config.loss.drop_probability = 0.02;
    expect_shard_invariant(graph, config, 3, 8, 5);
  }
}

TEST(SimShardedLoopTest, TracedRunCollapsesLaneBuffers) {
  // Per-lane trace buffers merge at every barrier; the run must complete
  // with a non-empty sink and the same delivered/stats invariants.
  const auto graph = make_overlay(120, 2, 1506);
  PubSubConfig config;
  config.seed = 231;
  config.reliability.qos = multicast::QoS::kAcked;
  config.reliability.ack_timeout = 0.05;
  config.reliability.max_retries = 4;
  config.sim_core = true;
  expect_shard_invariant(graph, config, 3, 10, 5, /*departures=*/0,
                         /*kill_root=*/false, /*with_trace=*/true);
}

TEST(SimShardedLoopTest, ShardMetricsAccountEveryEvent) {
  const auto graph = make_overlay(150, 2, 1507);
  PubSubConfig config;
  config.seed = 237;
  config.sim_shards = 4;
  config.sim_core = true;
  PubSubSystem system(graph, config);
  for (GroupId g = 0; g < 3; ++g) subscribe_members(system, graph, g, 10, 300 + g);
  for (GroupId g = 0; g < 3; ++g)
    system.publish_at(2.0, system.manager().root_of(g), g);
  const std::size_t events = system.run();
  const auto& metrics = system.simulator().shard_metrics();
  ASSERT_EQ(metrics.lane_events.size(), system.simulator().worker_lanes() + 1);
  std::size_t accounted = 0;
  for (const std::size_t n : metrics.lane_events) accounted += n;
  EXPECT_EQ(accounted, events);
  EXPECT_GT(metrics.windows, 0u);
  EXPECT_GT(metrics.instants, 0u);
  EXPECT_GE(metrics.barrier_wait_seconds, 0.0);
}

TEST(SimShardedLoopTest, RejectsZeroLookahead) {
  const auto graph = make_overlay(40, 2, 1508);
  PubSubConfig config;
  config.sim_shards = 2;
  config.latency = sim::LatencyModel::constant(0.0);
  EXPECT_THROW({ PubSubSystem system(graph, config); }, std::invalid_argument);
}

TEST(SimShardedLoopTest, RejectsTimersBelowLookahead) {
  const auto graph = make_overlay(40, 2, 1509);
  PubSubConfig config;
  config.sim_shards = 2;
  config.reliability.qos = multicast::QoS::kAcked;
  config.reliability.ack_timeout = 0.001;  // < min_delay = 0.01
  EXPECT_THROW({ PubSubSystem system(graph, config); }, std::invalid_argument);
}

}  // namespace
}  // namespace geomcast::groups

namespace geomcast::sim {
namespace {

/// Collision target: records arrival order of every payload byte-string.
class CollectorNode final : public Node {
 public:
  explicit CollectorNode(NodeId id) : Node(id) {}
  void on_message(Simulator&, const Envelope& envelope) override {
    got.push_back(std::any_cast<std::string>(envelope.payload));
  }
  std::vector<std::string> got;
};

/// Fans a second volley back at node 0 so cross-lane sends collide at
/// identical timestamps there.
class FanNode final : public Node {
 public:
  explicit FanNode(NodeId id) : Node(id) {}
  void on_message(Simulator& sim, const Envelope& envelope) override {
    const auto& tag = std::any_cast<const std::string&>(envelope.payload);
    sim.send(id(), 0, /*kind=*/2, tag + "-echo");
  }
};

std::vector<std::string> run_collision(std::size_t workers) {
  Simulator sim;
  sim.network().set_latency(LatencyModel::constant(0.25));
  CollectorNode sink(0);
  sim.add_node(sink);
  std::vector<std::unique_ptr<FanNode>> fans;
  for (NodeId id = 1; id <= 6; ++id) {
    fans.push_back(std::make_unique<FanNode>(id));
    sim.add_node(*fans.back());
  }
  if (workers > 0) {
    // Every node to its own home lane, round-robin; node 0 stays on the
    // control lane so worker->0 sends are genuine cross-shard mailbox
    // traffic.
    static const auto route = [](void* ctx, const Envelope& envelope) -> std::uint32_t {
      const auto lanes = *static_cast<const std::size_t*>(ctx);
      if (envelope.to == 0) return 0;
      return static_cast<std::uint32_t>((envelope.to - 1) % lanes) + 1;
    };
    static std::size_t lanes_ctx;
    lanes_ctx = workers;
    sim.configure_shards(workers, route, &lanes_ctx);
    // Worker lanes book their deliveries into per-lane NetworkStats, as
    // every sharded system wires it; without the lane sinks the workers
    // race on the shared per-node counters.
    sim.network().configure_lanes(workers + 1, &Simulator::parallel_lane);
  }
  // All six fan nodes get a same-timestamp kick; their echoes land on node
  // 0 at the identical instant, from different lanes when sharded. The
  // merge must reproduce the classic (time, order) sequence.
  for (NodeId id = 1; id <= 6; ++id)
    sim.send(0, id, /*kind=*/1, std::string("m") + std::to_string(id));
  sim.run_until_idle();
  return sink.got;
}

TEST(SimShardedLoopTest, MailboxMergeOrderPinnedUnderCollisions) {
  const auto oracle = run_collision(0);
  ASSERT_EQ(oracle.size(), 6u);
  for (const std::size_t workers : {std::size_t{2}, std::size_t{3}, std::size_t{6}}) {
    EXPECT_EQ(run_collision(workers), oracle) << "workers=" << workers;
  }
}

}  // namespace
}  // namespace geomcast::sim
