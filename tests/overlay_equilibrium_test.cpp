#include "overlay/equilibrium.hpp"

#include <gtest/gtest.h>

#include "analysis/graph_metrics.hpp"
#include "geometry/random_points.hpp"
#include "overlay/empty_rect.hpp"
#include "overlay/hyperplane_k.hpp"
#include "overlay/k_closest.hpp"
#include "util/rng.hpp"

namespace geomcast::overlay {
namespace {

/// build_equilibrium's out-lists must equal the per-peer selector run over
/// every other peer, whatever select_all does to share work.
void expect_matches_per_peer(const std::vector<geometry::Point>& points,
                             const NeighborSelector& selector, std::size_t threads) {
  const auto graph = build_equilibrium(points, selector, threads);
  ASSERT_EQ(graph.size(), points.size());
  for (PeerId p = 0; p < points.size(); ++p) {
    EXPECT_EQ(graph.selected(p), selector.select(points[p], candidates_excluding(points, p)))
        << selector.name() << " peer " << p << " of " << points.size() << ", threads "
        << threads;
  }
}

TEST(EquilibriumTest, SelectAllMatchesPerPeerSelect2D) {
  const EmptyRectSelector selector;
  for (std::size_t n : {0u, 1u, 2u, 3u, 64u, 1500u}) {
    util::Rng rng(40 + n);
    const auto points = geometry::random_points(rng, n, 2, 100.0);
    for (std::size_t threads : {1u, 8u}) expect_matches_per_peer(points, selector, threads);
  }
}

TEST(EquilibriumTest, SelectAllMatchesPerPeerSelectOnLattice) {
  // A 12x12 integer lattice with a few points removed: every x and y value
  // is shared by up to 12 peers, so the staircase must judge equal-x runs
  // as a group, and zero offsets must be kept.
  std::vector<geometry::Point> points;
  for (int i = 0; i < 144; ++i)
    if (i % 7 != 3) points.push_back(geometry::Point({double(i % 12), double(i / 12)}));
  const EmptyRectSelector selector;
  expect_matches_per_peer(points, selector, 1);
  expect_matches_per_peer(points, selector, 8);
  const auto graph = build_equilibrium(points, selector);
  for (PeerId p = 0; p < points.size(); ++p) {
    EXPECT_EQ(graph.selected(p),
              EmptyRectSelector::select_brute_force(points[p], candidates_excluding(points, p)))
        << "peer " << p;
  }
}

TEST(EquilibriumTest, SelectAllMatchesPerPeerSelectOtherDimsAndSelectors) {
  util::Rng rng(41);
  const auto points3 = geometry::random_points(rng, 200, 3, 100.0);
  expect_matches_per_peer(points3, EmptyRectSelector{}, 4);
  const auto points2 = geometry::random_points(rng, 200, 2, 100.0);
  expect_matches_per_peer(points2, KClosestSelector(4), 4);
}

TEST(EquilibriumTest, EmptyAndSingletonInputs) {
  EmptyRectSelector selector;
  EXPECT_EQ(build_equilibrium({}, selector).size(), 0u);
  const std::vector<geometry::Point> one{geometry::Point({1.0, 2.0})};
  const auto graph = build_equilibrium(one, selector);
  EXPECT_EQ(graph.size(), 1u);
  EXPECT_EQ(graph.degree(0), 0u);
}

TEST(EquilibriumTest, ResultIndependentOfThreadCount) {
  util::Rng rng(21);
  const auto points = geometry::random_points(rng, 300, 3, 100.0);
  EmptyRectSelector selector;
  const auto sequential = build_equilibrium(points, selector, 1);
  const auto parallel = build_equilibrium(points, selector, 8);
  EXPECT_EQ(sequential, parallel);
}

TEST(EquilibriumTest, EquilibriumIsAFixedPoint) {
  util::Rng rng(22);
  const auto points = geometry::random_points(rng, 150, 2, 100.0);
  EmptyRectSelector selector;
  const auto graph = build_equilibrium(points, selector);
  EXPECT_TRUE(is_equilibrium(graph, selector));
}

TEST(EquilibriumTest, FixedPointHoldsForAllSelectors) {
  util::Rng rng(23);
  const auto points = geometry::random_points(rng, 120, 3, 100.0);
  const EmptyRectSelector empty_rect;
  const auto ortho = HyperplaneKSelector::orthogonal(3, 2);
  const KClosestSelector k_closest(4);
  for (const NeighborSelector* selector :
       std::initializer_list<const NeighborSelector*>{&empty_rect, &ortho, &k_closest}) {
    const auto graph = build_equilibrium(points, *selector);
    EXPECT_TRUE(is_equilibrium(graph, *selector)) << selector->name();
  }
}

TEST(EquilibriumTest, NonEquilibriumDetected) {
  util::Rng rng(24);
  const auto points = geometry::random_points(rng, 30, 2, 100.0);
  // An arbitrary ring is (almost surely) not an empty-rect equilibrium.
  std::vector<std::vector<PeerId>> ring(points.size());
  for (std::size_t i = 0; i < points.size(); ++i)
    ring[i].push_back(static_cast<PeerId>((i + 1) % points.size()));
  const OverlayGraph graph(points, std::move(ring));
  EmptyRectSelector selector;
  EXPECT_FALSE(is_equilibrium(graph, selector));
}

TEST(EquilibriumTest, EmptyRectOverlayIsConnected) {
  // Follows from the coverage property; the multicast algorithm depends on it.
  for (std::uint64_t seed : {31u, 32u, 33u}) {
    util::Rng rng(seed);
    const auto points = geometry::random_points(rng, 200, 2, 100.0);
    const auto graph = build_equilibrium(points, EmptyRectSelector{});
    EXPECT_TRUE(analysis::is_connected(graph)) << "seed " << seed;
  }
}

TEST(EquilibriumTest, OrthogonalKOverlayIsConnected) {
  util::Rng rng(34);
  const auto points = geometry::random_points(rng, 200, 3, 100.0);
  const auto graph = build_equilibrium(points, HyperplaneKSelector::orthogonal(3, 1));
  EXPECT_TRUE(analysis::is_connected(graph));
}

TEST(EquilibriumTest, DegreeGrowsWithK) {
  util::Rng rng(35);
  const auto points = geometry::random_points(rng, 200, 2, 100.0);
  double prev_avg = 0.0;
  for (std::size_t k : {1u, 3u, 8u}) {
    const auto graph = build_equilibrium(points, HyperplaneKSelector::orthogonal(2, k));
    const auto stats = analysis::degree_stats(graph);
    EXPECT_GT(stats.avg, prev_avg);
    prev_avg = stats.avg;
  }
}

}  // namespace
}  // namespace geomcast::overlay
