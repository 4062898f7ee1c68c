#include "multicast/protocol.hpp"

#include <gtest/gtest.h>

#include "multicast/validator.hpp"
#include "scenario/scenario.hpp"

namespace geomcast::multicast {
namespace {

TEST(MulticastProtocolTest, MatchesSynchronousBuilder) {
  // The message-driven protocol and the in-memory builder run the same
  // local rule, so the resulting trees must be identical edge-for-edge.
  const auto graph = scenario::make_overlay(80, 2, 41).graph;
  const auto sync = build_multicast_tree(graph, 4);
  const auto protocol = run_multicast_protocol(graph, 4);
  EXPECT_EQ(protocol.build.request_messages, sync.request_messages);
  for (overlay::PeerId p = 0; p < graph.size(); ++p) {
    EXPECT_EQ(protocol.build.tree.parent(p), sync.tree.parent(p)) << "peer " << p;
    EXPECT_EQ(protocol.build.zones[p], sync.zones[p]) << "peer " << p;
  }
}

TEST(MulticastProtocolTest, MatchesAcrossDimsAndRoots) {
  for (int dims : {2, 3, 4}) {
    const auto graph = scenario::make_overlay(60, static_cast<std::size_t>(dims), 42 + dims).graph;
    for (overlay::PeerId root : {0u, 31u, 59u}) {
      const auto sync = build_multicast_tree(graph, root);
      const auto protocol = run_multicast_protocol(graph, root);
      for (overlay::PeerId p = 0; p < graph.size(); ++p)
        EXPECT_EQ(protocol.build.tree.parent(p), sync.tree.parent(p))
            << "dims=" << dims << " root=" << root;
    }
  }
}

TEST(MulticastProtocolTest, ValidAndExactlyNMinus1Messages) {
  const auto graph = scenario::make_overlay(100, 3, 43).graph;
  const auto result = run_multicast_protocol(graph, 0);
  const auto report = validate_build(graph, result.build);
  EXPECT_TRUE(report.valid()) << report.summary();
  EXPECT_EQ(result.build.request_messages, graph.size() - 1);
  EXPECT_EQ(result.dropped_requests, 0u);
}

TEST(MulticastProtocolTest, CompletionTimeScalesWithDepth) {
  const auto graph = scenario::make_overlay(100, 2, 44).graph;
  const auto result =
      run_multicast_protocol(graph, 0, {}, sim::LatencyModel::constant(1.0));
  // Constant unit latency => completion time == tree depth in hops.
  EXPECT_DOUBLE_EQ(result.completion_time,
                   static_cast<double>(result.build.tree.max_root_to_leaf_path()));
}

TEST(MulticastProtocolTest, RandomLatencyStillBuildsSameCoverage) {
  const auto graph = scenario::make_overlay(80, 2, 45).graph;
  const auto result = run_multicast_protocol(graph, 7, {},
                                             sim::LatencyModel::uniform(0.01, 0.5));
  // Tree *shape* may differ from the synchronous wave under reordering, but
  // coverage and message count must not.
  EXPECT_EQ(result.build.tree.reached_count(), graph.size());
  EXPECT_EQ(result.build.request_messages, graph.size() - 1);
  EXPECT_EQ(result.build.duplicate_deliveries, 0u);
}

TEST(MulticastProtocolTest, MessageLossCausesCoverageGap) {
  // Failure injection: a dropped request must surface as unreached peers
  // (the validator sees it), never as a silent success.
  const auto graph = scenario::make_overlay(60, 2, 46).graph;
  sim::LossModel loss;
  loss.drop_probability = 0.3;
  const auto result = run_multicast_protocol(graph, 0, {}, sim::LatencyModel::constant(0.01),
                                             loss, /*seed=*/7);
  EXPECT_GT(result.dropped_requests, 0u);
  EXPECT_LT(result.build.tree.reached_count(), graph.size());
  const auto report = validate_build(graph, result.build);
  EXPECT_FALSE(report.all_reached);
}

TEST(MulticastProtocolTest, TargetedPartitionBlocksSubtree) {
  const auto graph = scenario::make_overlay(60, 2, 47).graph;
  // Cut every request addressed to peer 5: 5 and its would-be subtree stay dark.
  sim::LossModel loss;
  loss.drop_if = [](const sim::Envelope& e) { return e.to == 5; };
  const auto result =
      run_multicast_protocol(graph, 0, {}, sim::LatencyModel::constant(0.01), loss);
  EXPECT_FALSE(result.build.tree.reached(5));
  EXPECT_LT(result.build.tree.reached_count(), graph.size());
}

}  // namespace
}  // namespace geomcast::multicast
