#include <gtest/gtest.h>

#include "multicast/bfs_tree.hpp"
#include "multicast/flooding.hpp"
#include "multicast/space_partition.hpp"
#include "scenario/scenario.hpp"

namespace geomcast::multicast {
namespace {

TEST(FloodingTest, ReachesEveryPeer) {
  const auto graph = scenario::make_overlay(100, 2, 51).graph;
  const auto result = build_flooding_tree(graph, 0);
  EXPECT_EQ(result.tree.reached_count(), graph.size());
}

TEST(FloodingTest, MessageCountIs2EMinusNMinus1) {
  // Every reached non-root peer forwards deg(v)-1 messages; the root sends
  // deg(root). On a connected overlay that totals 2E - (N-1).
  const auto graph = scenario::make_overlay(100, 2, 52).graph;
  const auto result = build_flooding_tree(graph, 3);
  EXPECT_EQ(result.request_messages, 2 * graph.edge_count() - (graph.size() - 1));
}

TEST(FloodingTest, DuplicatesAreTheOverhead) {
  const auto graph = scenario::make_overlay(100, 2, 53).graph;
  const auto result = build_flooding_tree(graph, 3);
  EXPECT_EQ(result.request_messages,
            (graph.size() - 1) + result.duplicate_deliveries);
  EXPECT_GT(result.duplicate_deliveries, 0u);  // any cycle-ful overlay floods extra
}

TEST(FloodingTest, CostsStrictlyMoreThanSpacePartition) {
  // The quantitative version of the paper's motivation.
  for (int dims : {2, 3, 4}) {
    const auto graph = scenario::make_overlay(120, static_cast<std::size_t>(dims), 54 + dims).graph;
    const auto flood = build_flooding_tree(graph, 0);
    const auto sp = build_multicast_tree(graph, 0);
    EXPECT_GT(flood.request_messages, sp.request_messages) << "dims " << dims;
  }
}

TEST(FloodingTest, TreeIsBfsShaped) {
  // With a FIFO wave, flooding parents arrive along shortest paths, so
  // depths must match the BFS tree's depths.
  const auto graph = scenario::make_overlay(90, 2, 55).graph;
  const auto flood = build_flooding_tree(graph, 2);
  const auto bfs = build_bfs_tree(graph, 2);
  EXPECT_EQ(flood.tree.depths(), bfs.depths());
}

TEST(BfsTreeTest, SpansConnectedOverlay) {
  const auto graph = scenario::make_overlay(80, 2, 56).graph;
  const auto tree = build_bfs_tree(graph, 0);
  EXPECT_EQ(tree.reached_count(), graph.size());
  EXPECT_EQ(tree.edge_count(), graph.size() - 1);
}

TEST(BfsTreeTest, DepthsAreShortestHopDistances) {
  const auto graph = scenario::make_overlay(80, 2, 57).graph;
  const auto tree = build_bfs_tree(graph, 5);
  const auto depths = tree.depths();
  // Every tree edge spans adjacent BFS levels and uses an overlay edge.
  for (overlay::PeerId p = 0; p < graph.size(); ++p) {
    if (p == 5) continue;
    EXPECT_TRUE(graph.has_edge(p, tree.parent(p)));
    EXPECT_EQ(depths[p], depths[tree.parent(p)] + 1);
  }
}

TEST(BfsTreeTest, PathsNeverLongerThanSpacePartition) {
  // BFS is the hop-count optimum on the overlay; the decentralized scheme
  // pays some stretch. Check the orderings the ablation bench reports.
  const auto graph = scenario::make_overlay(150, 2, 58).graph;
  const auto bfs = build_bfs_tree(graph, 0);
  const auto sp = build_multicast_tree(graph, 0);
  EXPECT_LE(bfs.max_root_to_leaf_path(), sp.tree.max_root_to_leaf_path());
}

TEST(BaselineTest, RootOutOfRangeThrows) {
  const auto graph = scenario::make_overlay(10, 2, 59).graph;
  EXPECT_THROW(build_flooding_tree(graph, 10), std::invalid_argument);
  EXPECT_THROW(build_bfs_tree(graph, 10), std::invalid_argument);
}

}  // namespace
}  // namespace geomcast::multicast
