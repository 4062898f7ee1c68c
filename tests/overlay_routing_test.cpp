#include "overlay/routing.hpp"

#include <gtest/gtest.h>

#include "analysis/graph_metrics.hpp"
#include "geometry/random_points.hpp"
#include "overlay/empty_rect.hpp"
#include "overlay/equilibrium.hpp"
#include "overlay/k_closest.hpp"
#include "util/rng.hpp"

namespace geomcast::overlay {
namespace {

OverlayGraph make_overlay(std::size_t n, std::size_t dims, std::uint64_t seed) {
  util::Rng rng(seed);
  const auto points = geometry::random_points(rng, n, dims, 100.0);
  return build_equilibrium(points, EmptyRectSelector{});
}

TEST(RoutingTest, SourceEqualsDestination) {
  const auto graph = make_overlay(20, 2, 91);
  const auto result = route_greedy(graph, 4, 4);
  EXPECT_TRUE(result.delivered);
  EXPECT_EQ(result.hops(), 0u);
  EXPECT_EQ(result.path, (std::vector<PeerId>{4}));
}

TEST(RoutingTest, OutOfRangeThrows) {
  const auto graph = make_overlay(10, 2, 92);
  EXPECT_THROW(route_greedy(graph, 0, 10), std::invalid_argument);
  EXPECT_THROW(route_greedy(graph, 10, 0), std::invalid_argument);
}

// The headline property: greedy routing over empty-rectangle equilibria
// always delivers, for every source/destination pair, across dimensions.
class RoutingDeliveryTest
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(RoutingDeliveryTest, AlwaysDelivers) {
  const auto [dims, seed] = GetParam();
  const auto graph = make_overlay(80, static_cast<std::size_t>(dims), seed);
  for (PeerId s = 0; s < graph.size(); s += 7) {
    for (PeerId d = 0; d < graph.size(); d += 11) {
      const auto result = route_greedy(graph, s, d);
      ASSERT_TRUE(result.delivered) << "s=" << s << " d=" << d << " dims=" << dims;
      EXPECT_EQ(result.path.front(), s);
      EXPECT_EQ(result.path.back(), d);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RoutingDeliveryTest,
                         ::testing::Combine(::testing::Values(2, 3, 4, 5),
                                            ::testing::Values(93u, 94u)));

TEST(RoutingTest, AlwaysDeliversAt10kPeers) {
  // The exact full-knowledge overlay at a size the small sweeps above do
  // not reach: 2000 seeded random pairs, every one delivered.
  const auto graph = make_overlay(10000, 2, 90);
  util::Rng rng(90);
  std::size_t delivered = 0;
  for (int i = 0; i < 2000; ++i) {
    const auto s = static_cast<PeerId>(rng.next_below(graph.size()));
    const auto d = static_cast<PeerId>(rng.next_below(graph.size()));
    if (route_greedy(graph, s, d).delivered) ++delivered;
  }
  EXPECT_EQ(delivered, 2000u);
}

TEST(RoutingTest, EveryHopUsesAnOverlayEdgeAndShrinksL1) {
  const auto graph = make_overlay(100, 3, 95);
  const auto result = route_greedy(graph, 0, 99);
  ASSERT_TRUE(result.delivered);
  const auto& target = graph.point(99);
  for (std::size_t i = 0; i + 1 < result.path.size(); ++i) {
    EXPECT_TRUE(graph.has_edge(result.path[i], result.path[i + 1]));
    EXPECT_LT(geometry::l1_distance(graph.point(result.path[i + 1]), target),
              geometry::l1_distance(graph.point(result.path[i]), target));
  }
}

TEST(RoutingTest, NoPeerVisitedTwice) {
  const auto graph = make_overlay(100, 2, 96);
  for (PeerId d = 1; d < 20; ++d) {
    const auto result = route_greedy(graph, 0, d);
    ASSERT_TRUE(result.delivered);
    auto sorted = result.path;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
  }
}

TEST(RoutingTest, HopsAtLeastBfsDistance) {
  const auto graph = make_overlay(120, 2, 97);
  const auto bfs = analysis::bfs_depths(graph, 3);
  for (PeerId d = 0; d < graph.size(); d += 13) {
    const auto result = route_greedy(graph, 3, d);
    ASSERT_TRUE(result.delivered);
    EXPECT_GE(result.hops(), bfs[d]);
  }
}

TEST(RoutingTest, StrandsGracefullyOnNonCoveringOverlay) {
  // A K-closest overlay lacks the corridor guarantee: greedy must report
  // failure (empty progress set or hop budget), never loop forever.
  util::Rng rng(98);
  const auto points = geometry::random_points(rng, 100, 2, 100.0);
  const auto graph = build_equilibrium(points, KClosestSelector(2));
  std::size_t delivered = 0;
  for (PeerId s = 0; s < 20; ++s) {
    const auto result = route_greedy(graph, s, 99);
    if (result.delivered) ++delivered;
    EXPECT_LE(result.path.size(), 101u);  // never longer than the peer count
  }
  // With K=2 the overlay is fragmented corridors; most routes should fail.
  EXPECT_LT(delivered, 20u);
}

TEST(RoutingTest, MaxHopsBudgetRespected) {
  const auto graph = make_overlay(200, 2, 99);
  const auto result = route_greedy(graph, 0, 199, /*max_hops=*/1);
  // Either delivered in one hop (they happen to be adjacent) or cut off.
  if (!result.delivered) { EXPECT_LE(result.path.size(), 2u); }
}

}  // namespace
}  // namespace geomcast::overlay
