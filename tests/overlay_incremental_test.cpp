#include "overlay/incremental.hpp"

#include <gtest/gtest.h>

#include <string>

#include "analysis/graph_metrics.hpp"
#include "geometry/random_points.hpp"
#include "overlay/empty_rect.hpp"
#include "overlay/equilibrium.hpp"
#include "overlay/hyperplane_k.hpp"
#include "util/rng.hpp"

namespace geomcast::overlay {
namespace {

/// Jaccard similarity of two graphs' undirected edge sets.
double edge_similarity(const OverlayGraph& a, const OverlayGraph& b) {
  std::size_t shared = 0, total_a = 0, total_b = 0;
  for (PeerId p = 0; p < a.size(); ++p) {
    for (PeerId q : a.neighbors(p)) {
      if (q < p) continue;
      ++total_a;
      if (b.has_edge(p, q)) ++shared;
    }
  }
  for (PeerId p = 0; p < b.size(); ++p)
    for (PeerId q : b.neighbors(p))
      if (q > p) ++total_b;
  const std::size_t union_size = total_a + total_b - shared;
  return union_size == 0 ? 1.0 : static_cast<double>(shared) / static_cast<double>(union_size);
}

TEST(IncrementalTest, FullKnowledgeReproducesEquilibrium) {
  // With I(P) = all peers, one-by-one insertion must land exactly on the
  // full-knowledge equilibrium after every insertion.
  util::Rng rng(61);
  const auto points = geometry::random_points(rng, 60, 2, 100.0);
  EmptyRectSelector selector;
  IncrementalConfig config;
  config.full_knowledge = true;
  IncrementalBuilder builder(selector, config, util::Rng(7));
  for (const auto& p : points) EXPECT_TRUE(builder.insert(p).has_value());
  EXPECT_EQ(builder.graph(), build_equilibrium(points, selector));
}

TEST(IncrementalTest, FullKnowledgeMatchesForOrthogonalK) {
  util::Rng rng(62);
  const auto points = geometry::random_points(rng, 50, 3, 100.0);
  const auto selector = HyperplaneKSelector::orthogonal(3, 2);
  IncrementalConfig config;
  config.full_knowledge = true;
  IncrementalBuilder builder(selector, config, util::Rng(8));
  for (const auto& p : points) builder.insert(p);
  EXPECT_EQ(builder.graph(), build_equilibrium(points, selector));
}

TEST(IncrementalTest, GossipScopedKnowledgeApproximatesEquilibrium) {
  // BR-hop knowledge: the paper expects "the same (or close to)" topology.
  util::Rng rng(63);
  const auto points = geometry::random_points(rng, 60, 2, 100.0);
  EmptyRectSelector selector;
  IncrementalConfig config;
  config.br = 3;
  IncrementalBuilder builder(selector, config, util::Rng(9));
  for (const auto& p : points) builder.insert(p);
  const auto gossip_graph = builder.graph();
  const auto oracle = build_equilibrium(points, selector);
  EXPECT_GE(edge_similarity(gossip_graph, oracle), 0.8)
      << "BR-scoped equilibrium strayed too far from the full-knowledge topology";
}

TEST(IncrementalTest, PaperProcedureLandsExactlyOnTheEquilibrium) {
  // The paper's procedure: peers join one at a time under BR = 2 gossip
  // and the overlay converges after each join. At N = 200 it lands on the
  // full-knowledge equilibrium exactly, not just close to it.
  for (const std::size_t dims : {2, 3}) {
    SCOPED_TRACE("D=" + std::to_string(dims));
    util::Rng rng(42);
    const auto points = geometry::random_points(rng, 200, dims);
    EmptyRectSelector selector;
    IncrementalConfig config;
    config.br = 2;
    IncrementalBuilder builder(selector, config, util::Rng(1));
    for (const auto& p : points) ASSERT_TRUE(builder.insert(p).has_value());
    EXPECT_EQ(builder.graph(), build_equilibrium(points, selector));
  }
}

TEST(IncrementalTest, ConvergesWithinRoundCap) {
  util::Rng rng(64);
  const auto points = geometry::random_points(rng, 80, 2, 100.0);
  EmptyRectSelector selector;
  IncrementalBuilder builder(selector, IncrementalConfig{}, util::Rng(10));
  for (const auto& p : points) {
    const auto rounds = builder.insert(p);
    ASSERT_TRUE(rounds.has_value());
    EXPECT_LE(*rounds, IncrementalConfig{}.max_rounds_per_insert);
  }
}

TEST(IncrementalTest, ProducesConnectedOverlay) {
  util::Rng rng(65);
  const auto points = geometry::random_points(rng, 70, 2, 100.0);
  EmptyRectSelector selector;
  IncrementalBuilder builder(selector, IncrementalConfig{}, util::Rng(11));
  for (const auto& p : points) builder.insert(p);
  EXPECT_TRUE(analysis::is_connected(builder.graph()));
}

TEST(IncrementalTest, SizeTracksInsertions) {
  EmptyRectSelector selector;
  IncrementalBuilder builder(selector, IncrementalConfig{}, util::Rng(12));
  EXPECT_EQ(builder.size(), 0u);
  builder.insert(geometry::Point({1.0, 1.0}));
  EXPECT_EQ(builder.size(), 1u);
  builder.insert(geometry::Point({2.0, 3.0}));
  EXPECT_EQ(builder.size(), 2u);
  EXPECT_TRUE(builder.graph().has_edge(0, 1));
}

TEST(IncrementalTest, RemoveWithFullKnowledgeLandsOnRemainingEquilibrium) {
  // §1: "If the peers enter or leave the system one at a time and the
  // topology converges between two such events, then the equilibrium
  // topology after every event should be the same as ... full knowledge."
  util::Rng rng(66);
  const auto points = geometry::random_points(rng, 40, 2, 100.0);
  EmptyRectSelector selector;
  IncrementalConfig config;
  config.full_knowledge = true;
  IncrementalBuilder builder(selector, config, util::Rng(13));
  for (const auto& p : points) builder.insert(p);

  // Remove peers 5, 17, 30 one at a time.
  std::vector<geometry::Point> remaining;
  std::vector<bool> removed(points.size(), false);
  for (PeerId victim : {5u, 17u, 30u}) {
    EXPECT_TRUE(builder.remove(victim).has_value());
    removed[victim] = true;
  }
  for (std::size_t i = 0; i < points.size(); ++i)
    if (!removed[i]) remaining.push_back(points[i]);

  EXPECT_EQ(builder.size(), points.size() - 3);
  EXPECT_EQ(builder.graph(), build_equilibrium(remaining, selector));
}

TEST(IncrementalTest, RemoveUnderGossipKnowledgeStaysConnected) {
  util::Rng rng(67);
  const auto points = geometry::random_points(rng, 50, 2, 100.0);
  EmptyRectSelector selector;
  IncrementalBuilder builder(selector, IncrementalConfig{}, util::Rng(14));
  for (const auto& p : points) builder.insert(p);
  for (PeerId victim : {1u, 2u, 3u, 4u, 5u}) builder.remove(victim);
  EXPECT_EQ(builder.size(), 45u);
  EXPECT_TRUE(analysis::is_connected(builder.graph()));
}

TEST(IncrementalTest, RemoveDeadPeerThrows) {
  EmptyRectSelector selector;
  IncrementalBuilder builder(selector, IncrementalConfig{}, util::Rng(15));
  builder.insert(geometry::Point({1.0, 1.0}));
  builder.insert(geometry::Point({2.0, 2.5}));
  builder.remove(0);
  EXPECT_THROW(builder.remove(0), std::invalid_argument);
  EXPECT_THROW(builder.remove(9), std::invalid_argument);
}

TEST(IncrementalTest, DenseMappingSkipsRemoved) {
  EmptyRectSelector selector;
  IncrementalConfig config;
  config.full_knowledge = true;
  IncrementalBuilder builder(selector, config, util::Rng(16));
  for (double x : {1.0, 2.0, 3.0, 4.0})
    builder.insert(geometry::Point({x, 10.0 - x}));
  builder.remove(1);
  const auto mapping = builder.dense_mapping();
  EXPECT_EQ(mapping[0], 0u);
  EXPECT_EQ(mapping[1], kInvalidPeer);
  EXPECT_EQ(mapping[2], 1u);
  EXPECT_EQ(mapping[3], 2u);
  EXPECT_FALSE(builder.alive(1));
  EXPECT_TRUE(builder.alive(2));
}

TEST(IncrementalTest, ChurnMixInsertAndRemove) {
  // Interleaved joins and leaves, the paper's full churn model.
  util::Rng rng(68);
  const auto points = geometry::random_points(rng, 60, 2, 100.0);
  EmptyRectSelector selector;
  IncrementalConfig config;
  config.full_knowledge = true;
  IncrementalBuilder builder(selector, config, util::Rng(17));
  std::vector<bool> removed(points.size(), false);
  for (std::size_t i = 0; i < 40; ++i) builder.insert(points[i]);
  for (PeerId victim : {0u, 10u, 20u}) {
    builder.remove(victim);
    removed[victim] = true;
  }
  for (std::size_t i = 40; i < points.size(); ++i) builder.insert(points[i]);

  std::vector<geometry::Point> remaining;
  for (std::size_t i = 0; i < points.size(); ++i)
    if (!removed[i]) remaining.push_back(points[i]);
  EXPECT_EQ(builder.graph(), build_equilibrium(remaining, selector));
}

}  // namespace
}  // namespace geomcast::overlay
