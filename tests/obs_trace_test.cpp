// Wave-lifecycle tracing battery: determinism (identical seeds produce
// byte-identical trace streams), passivity (attaching a sink changes no
// delivered set and no counter on a lossy QoS 2 + churn seed), ring
// bounds, the per-wave query, and the Chrome trace-event export shape.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "obs/snapshot.hpp"
#include "obs/trace.hpp"
#include "scenario/scenario.hpp"

namespace geomcast {
namespace {

using groups::GroupId;
using groups::PeerId;
using groups::PubSubConfig;
using groups::PubSubSystem;
using scenario::make_overlay;
using scenario::subscribe_members;

struct RunResult {
  std::set<scenario::DeliveryKey> delivered;
  std::string group_stats_json;    // totals, histograms included
  std::string network_stats_json;  // counters + per-kind + per-node loads
  std::vector<obs::TraceEvent> events;
  std::string trace_json;
};

/// One deterministic lossy QoS 2 + churn workload: 80 peers, 20
/// subscribers, coalesced publishes, a mid-run subscriber departure.
RunResult run_workload(bool traced) {
  const auto graph = make_overlay(80, 2, 7).graph;
  PubSubConfig config;
  config.seed = 42;
  config.reliability.qos = multicast::QoS::kEndToEnd;
  config.loss.drop_probability = 0.05;
  config.batch_window = 0.02;
  config.max_batch = 4;
  obs::TraceSink sink;
  const auto schedule = [&graph](PubSubSystem& system) {
    const GroupId group = 1;
    const auto members = subscribe_members(system, graph, group, 20, 42);
    for (std::size_t i = 0; i < 30; ++i)
      system.publish_at(2.0 + 0.015 * static_cast<double>(i),
                        members[i % members.size()], group);
    system.depart_at(2.2, members[5]);
    // Late joiners after the tree exists (first flush ~2.02) but before the
    // churn (a departure leaves the zones stale, which disables grafting)
    // exercise the routed graft plane.
    scenario::subscribe_late(system, graph.size(), group, members, 4, 2.1);
    for (std::size_t i = 0; i < 5; ++i)
      system.publish_at(3.5 + 0.05 * static_cast<double>(i),
                        members[i % members.size()], group);
  };
  const scenario::CellResult cell =
      scenario::run_cell(graph, config, schedule,
                         {.record = scenario::Record::kDeliveredSet,
                          .trace = traced ? &sink : nullptr});
  RunResult result;
  result.delivered = cell.delivered;
  result.group_stats_json = obs::to_json(cell.total);
  result.network_stats_json = obs::to_json(cell.net);
  result.events = sink.events();
  result.trace_json = obs::chrome_trace_json(result.events);
  return result;
}

TEST(ObsTrace, IdenticalSeedsYieldByteIdenticalStreams) {
  const RunResult a = run_workload(/*traced=*/true);
  const RunResult b = run_workload(/*traced=*/true);
  ASSERT_FALSE(a.events.empty());
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i)
    EXPECT_TRUE(a.events[i] == b.events[i]) << "event " << i << " diverged";
  EXPECT_EQ(a.trace_json, b.trace_json);
}

TEST(ObsTrace, TracingIsPassiveOnLossyChurnSeed) {
  const RunResult traced = run_workload(/*traced=*/true);
  const RunResult untraced = run_workload(/*traced=*/false);
  // Delivered (peer, group, seq) sets are identical...
  EXPECT_EQ(traced.delivered, untraced.delivered);
  ASSERT_FALSE(untraced.delivered.empty());
  // ...and so is every counter and latency histogram (the JSON embeds all
  // of them, so one comparison covers the whole block).
  EXPECT_EQ(traced.group_stats_json, untraced.group_stats_json);
  EXPECT_EQ(traced.network_stats_json, untraced.network_stats_json);
  EXPECT_TRUE(untraced.events.empty());
}

TEST(ObsTrace, WorkloadEmitsTheFullLifecycle) {
  const RunResult result = run_workload(/*traced=*/true);
  std::set<obs::TraceEventType> seen;
  for (const auto& event : result.events) seen.insert(event.type);
  // The lossy coalesced QoS 2 + churn workload must exercise the publish
  // pipeline, the hop plane, delivery, and the graft plane. (Gap events
  // are seed-dependent: per-hop QoS 1 recovery may heal every loss first.)
  for (const auto type :
       {obs::TraceEventType::kPublishAccepted, obs::TraceEventType::kRootBuffer,
        obs::TraceEventType::kRootFlush, obs::TraceEventType::kHopSend,
        obs::TraceEventType::kHopAck, obs::TraceEventType::kHopRetransmit,
        obs::TraceEventType::kDelivery, obs::TraceEventType::kGraftBegin,
        obs::TraceEventType::kGraftFinish})
    EXPECT_TRUE(seen.count(type)) << trace_event_name(type) << " never emitted";
}

TEST(ObsTrace, EventsForWaveCollectsTheWaveLifecycle) {
  // Lossless, unbatched, QoS 1: one publish = one wave with a crisp
  // lifecycle (accept, flush, hop sends, acks, deliveries). With several
  // root replicas the publish's own wave is the one its owner slot root
  // drives at accept time; the other slots drive handoff copies later.
  const auto graph = make_overlay(40, 2, 3).graph;
  for (const std::size_t replicas : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("root_replicas=" + std::to_string(replicas));
    PubSubConfig config;
    config.seed = 9;
    config.root_replicas = replicas;
    config.reliability.qos = multicast::QoS::kAcked;
    PubSubSystem system(graph, config);
    obs::TraceSink sink;
    system.set_trace_sink(&sink);
    const GroupId group = 2;
    const auto members = subscribe_members(system, graph, group, 8, 9);
    system.publish_at(2.0, members[0], group);
    system.run();
    // Find the first flushed wave id: the accepting root's own drive.
    std::uint64_t wave = obs::kNoWave;
    for (const auto& event : sink.events())
      if (event.type == obs::TraceEventType::kRootFlush && event.group == group) {
        wave = event.wave;
        break;
      }
    ASSERT_NE(wave, obs::kNoWave);
    const auto lifecycle = sink.events_for_wave(group, wave);
    std::set<obs::TraceEventType> seen;
    for (const auto& event : lifecycle) {
      EXPECT_EQ(event.group, group);
      seen.insert(event.type);
      // The accept names the publisher.
      if (event.type == obs::TraceEventType::kPublishAccepted) {
        EXPECT_EQ(event.other, members[0]);
      }
    }
    EXPECT_TRUE(seen.count(obs::TraceEventType::kPublishAccepted));
    EXPECT_TRUE(seen.count(obs::TraceEventType::kRootFlush));
    EXPECT_TRUE(seen.count(obs::TraceEventType::kHopSend));
    EXPECT_TRUE(seen.count(obs::TraceEventType::kHopAck));
    // Deliveries are seq-scoped (wave == kNoWave) and join by range
    // intersection with the flushed range.
    EXPECT_TRUE(seen.count(obs::TraceEventType::kDelivery));
  }
}

TEST(ObsTrace, RingOverflowDropsOldestAndCounts) {
  obs::TraceSink sink(/*capacity=*/8);
  for (std::uint64_t i = 0; i < 20; ++i)
    sink.record({static_cast<double>(i), obs::TraceEventType::kDelivery, 1,
                 obs::kNoWave, i, i, 0});
  EXPECT_EQ(sink.size(), 8u);
  EXPECT_EQ(sink.capacity(), 8u);
  EXPECT_EQ(sink.dropped(), 12u);
  EXPECT_EQ(sink.recorded(), 20u);
  const auto events = sink.events();
  ASSERT_EQ(events.size(), 8u);
  // Oldest first, and the survivors are the 8 newest records.
  for (std::size_t i = 0; i < events.size(); ++i)
    EXPECT_EQ(events[i].seq_lo, 12 + i);
}

TEST(ObsTrace, ChromeTraceExportShape) {
  obs::TraceSink sink;
  sink.record({1.5, obs::TraceEventType::kRootFlush, 3, 7, 10, 13, 2});
  sink.record(
      {1.75, obs::TraceEventType::kDelivery, 3, obs::kNoWave, 10, 10, 5});
  const std::string json = obs::chrome_trace_json(sink.events());
  // Perfetto/chrome://tracing require traceEvents with name/ph/ts/pid/tid.
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"name\":\"root_flush\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"delivery\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":3"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":2"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":1500000.000"), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  // Byte determinism of the exporter itself.
  EXPECT_EQ(json, obs::chrome_trace_json(sink.events()));
}

TEST(ObsTrace, DetachStopsRecording) {
  const auto graph = make_overlay(30, 2, 5).graph;
  PubSubConfig config;
  config.seed = 4;
  PubSubSystem system(graph, config);
  obs::TraceSink sink;
  system.set_trace_sink(&sink);
  system.set_trace_sink(nullptr);
  const GroupId group = 1;
  const auto members = subscribe_members(system, graph, group, 5, 4);
  system.publish_at(1.0, members[0], group);
  system.run();
  EXPECT_EQ(sink.recorded(), 0u);
}

}  // namespace
}  // namespace geomcast
