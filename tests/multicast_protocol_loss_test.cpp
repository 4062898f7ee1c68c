// Satellite coverage for the loss path of run_multicast_protocol: dropped
// requests must be counted, surface as coverage holes the validator can
// see, and the whole failure trajectory must be reproducible from the
// seed. (The happy path lives in multicast_protocol_test.cpp.)
#include <gtest/gtest.h>

#include "multicast/protocol.hpp"
#include "multicast/validator.hpp"
#include "scenario/scenario.hpp"

namespace geomcast::multicast {
namespace {

TEST(MulticastProtocolLossTest, DroppedRequestsAreCountedAndLeaveHoles) {
  const auto graph = scenario::make_overlay(80, 2, 501).graph;
  sim::LossModel loss;
  loss.drop_probability = 0.25;
  const auto result = run_multicast_protocol(graph, 0, {}, sim::LatencyModel::constant(0.01),
                                             loss, /*seed=*/11);
  EXPECT_GT(result.dropped_requests, 0u);
  EXPECT_LT(result.build.tree.reached_count(), graph.size());

  // Every dropped request is an unreached subtree the validator reports.
  const auto report = validate_build(graph, result.build);
  EXPECT_FALSE(report.all_reached);
  EXPECT_EQ(report.reached_count, result.build.tree.reached_count());
  EXPECT_LT(report.reached_count, report.peer_count);
  // Sent = delivered edges + drops: the accounting must close.
  EXPECT_EQ(result.build.request_messages,
            result.build.tree.edge_count() + result.dropped_requests +
                result.build.duplicate_deliveries);
}

TEST(MulticastProtocolLossTest, LossTrajectoryIsDeterministicUnderFixedSeed) {
  const auto graph = scenario::make_overlay(70, 3, 502).graph;
  sim::LossModel loss;
  loss.drop_probability = 0.3;
  auto run_once = [&]() {
    return run_multicast_protocol(graph, 2, {}, sim::LatencyModel::uniform(0.01, 0.2),
                                  loss, /*seed=*/23);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.dropped_requests, b.dropped_requests);
  EXPECT_EQ(a.build.request_messages, b.build.request_messages);
  EXPECT_DOUBLE_EQ(a.completion_time, b.completion_time);
  for (overlay::PeerId p = 0; p < graph.size(); ++p)
    EXPECT_EQ(a.build.tree.parent(p), b.build.tree.parent(p)) << "peer " << p;
}

TEST(MulticastProtocolLossTest, DifferentSeedsExploreDifferentFailures) {
  const auto graph = scenario::make_overlay(70, 2, 503).graph;
  sim::LossModel loss;
  loss.drop_probability = 0.3;
  const auto a = run_multicast_protocol(graph, 0, {}, sim::LatencyModel::constant(0.01),
                                        loss, /*seed=*/1);
  const auto b = run_multicast_protocol(graph, 0, {}, sim::LatencyModel::constant(0.01),
                                        loss, /*seed=*/2);
  // Not a hard guarantee for arbitrary seeds, but pinned here: distinct
  // seeds must be able to produce distinct failure patterns.
  EXPECT_NE(a.build.tree.reached_count(), b.build.tree.reached_count());
}

TEST(MulticastProtocolLossTest, ZeroLossControlIsComplete) {
  const auto graph = scenario::make_overlay(80, 2, 504).graph;
  const auto result = run_multicast_protocol(graph, 0, {}, sim::LatencyModel::constant(0.01),
                                             sim::LossModel{}, /*seed=*/11);
  EXPECT_EQ(result.dropped_requests, 0u);
  EXPECT_EQ(result.build.tree.reached_count(), graph.size());
  EXPECT_TRUE(validate_build(graph, result.build).valid());
}

}  // namespace
}  // namespace geomcast::multicast
