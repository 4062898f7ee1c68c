#include "overlay/equilibrium.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>

#include "analysis/graph_metrics.hpp"
#include "geometry/random_points.hpp"
#include "overlay/empty_rect.hpp"
#include "overlay/hyperplane_k.hpp"
#include "overlay/k_closest.hpp"
#include "util/rng.hpp"

namespace geomcast::overlay {
namespace {

/// build_equilibrium's out-lists must equal the per-peer selector run over
/// every other peer, whatever the selector's equilibrium() does to share
/// work, and each neighbourhood the union of those selections.
void expect_matches_per_peer(const std::vector<geometry::Point>& points,
                             const NeighborSelector& selector, std::size_t threads) {
  const auto graph = build_equilibrium(points, selector, threads);
  ASSERT_EQ(graph.size(), points.size());
  std::vector<std::set<PeerId>> adjacent(points.size());
  for (PeerId p = 0; p < points.size(); ++p) {
    const auto chosen = selector.select(points[p], candidates_excluding(points, p));
    EXPECT_EQ(graph.selected(p), chosen)
        << selector.name() << " peer " << p << " of " << points.size() << ", threads "
        << threads;
    for (PeerId q : chosen) {
      adjacent[p].insert(q);
      adjacent[q].insert(p);
    }
  }
  for (PeerId p = 0; p < points.size(); ++p) {
    const auto neighbors = graph.neighbors(p);
    EXPECT_EQ(std::vector<PeerId>(neighbors.begin(), neighbors.end()),
              std::vector<PeerId>(adjacent[p].begin(), adjacent[p].end()))
        << selector.name() << " peer " << p << " of " << points.size() << ", threads "
        << threads;
  }
}

TEST(EquilibriumTest, SelectAllMatchesPerPeerSelect2D) {
  const EmptyRectSelector selector;
  for (std::size_t n : {0u, 1u, 2u, 3u, 64u, 1500u}) {
    util::Rng rng(40 + n);
    const auto points = geometry::random_points(rng, n, 2, 100.0);
    for (std::size_t threads : {1u, 2u, 8u}) expect_matches_per_peer(points, selector, threads);
  }
}

/// An integer lattice of side x side with every 7th point (from the 4th)
/// removed.
std::vector<geometry::Point> lattice_with_holes(int side) {
  std::vector<geometry::Point> points;
  for (int i = 0; i < side * side; ++i)
    if (i % 7 != 3) points.push_back(geometry::Point({double(i % side), double(i / side)}));
  return points;
}

struct TieSet {
  std::string name;
  std::vector<geometry::Point> points;
};

/// `uniform` points in [0, 1) x [0, 4) plus `far` points at y = 1e16 +
/// 2·(i mod 5). Doubles near 1e16 are 2 apart, so seen from a far ego the
/// near points' offsets y - ego_y collapse onto a few values, while their
/// coordinates stay distinct.
std::vector<geometry::Point> rounding_points(util::Rng& rng, int uniform, int far) {
  std::vector<geometry::Point> points;
  for (int i = 0; i < uniform; ++i)
    points.push_back(geometry::Point({rng.uniform(0.0, 1.0), rng.uniform(0.0, 4.0)}));
  for (int i = 0; i < far; ++i)
    points.push_back(geometry::Point({rng.uniform(0.0, 1.0), 1e16 + 2.0 * (i % 5)}));
  return points;
}

/// 2-D point sets full of ties: shared x and y values, coincident points,
/// sets that are a single equal-x or equal-y run, the smallest sizes, and
/// distinct y values whose offsets from far-away egos round together.
std::vector<TieSet> tie_battery() {
  std::vector<TieSet> sets;
  for (int side : {10, 12, 40})
    sets.push_back({"lattice " + std::to_string(side), lattice_with_holes(side)});
  for (double step : {0.1, 1.0, 10.0}) {  // 1e-3, 1e-2 and 1e-1 of the range
    util::Rng rng(42);
    auto points = geometry::random_points(rng, 300, 2, 100.0);
    for (auto& p : points)
      p = geometry::Point({std::round(p[0] / step) * step, std::round(p[1] / step) * step});
    sets.push_back({"rounded to " + std::to_string(step), std::move(points)});
  }
  util::Rng rng(43);
  auto duplicated = geometry::random_points(rng, 150, 2, 100.0);
  for (std::size_t i = 0; i < 150; i += 3) duplicated.push_back(duplicated[i]);
  duplicated.push_back(duplicated.front());
  sets.push_back({"duplicated", std::move(duplicated)});
  std::vector<geometry::Point> column, row;
  for (int i = 0; i < 60; ++i) {
    const double v = double(rng.uniform_int(0, 40));
    column.push_back(geometry::Point({5.0, v}));
    row.push_back(geometry::Point({v, 5.0}));
  }
  sets.push_back({"one column", std::move(column)});
  sets.push_back({"one row", std::move(row)});
  for (std::size_t n : {0u, 1u, 2u, 3u})
    sets.push_back({"random " + std::to_string(n), geometry::random_points(rng, n, 2, 100.0)});
  sets.push_back({"two coincident", std::vector<geometry::Point>(2, geometry::Point({1.0, 2.0}))});
  sets.push_back({"rounding", rounding_points(rng, 300, 200)});
  // Small enough for the literal check below.
  sets.push_back({"rounding 360", rounding_points(rng, 220, 140)});
  return sets;
}

TEST(EquilibriumTest, SelectAllMatchesPerPeerSelectOnLattice) {
  // Every set shares x and y values between many peers, so the staircase
  // must judge equal-x runs as a group, keep zero offsets, and treat
  // coincident points as never blocking each other.
  const EmptyRectSelector selector;
  for (const auto& [name, points] : tie_battery()) {
    SCOPED_TRACE(name);
    for (std::size_t threads : {1u, 2u, 8u}) expect_matches_per_peer(points, selector, threads);
    if (points.size() > 400) continue;  // the literal rule is cubic
    const auto graph = build_equilibrium(points, selector);
    for (PeerId p = 0; p < points.size(); ++p) {
      EXPECT_EQ(graph.selected(p),
                EmptyRectSelector::select_brute_force(points[p], candidates_excluding(points, p)))
          << "peer " << p;
    }
  }
}

TEST(EquilibriumTest, TwoDimensionalBuildIsSymmetric) {
  // The empty-rect relation is symmetric and the 2-D build finds each
  // edge once, from its left end: every neighbour is a selection, and no
  // row lists a neighbour twice.
  const EmptyRectSelector selector;
  for (const auto& [name, points] : tie_battery()) {
    SCOPED_TRACE(name);
    for (std::size_t threads : {1u, 2u, 8u}) {
      const auto graph = build_equilibrium(points, selector, threads);
      for (PeerId p = 0; p < points.size(); ++p) {
        const auto row = graph.neighbors(p);
        EXPECT_EQ(graph.selected(p), std::vector<PeerId>(row.begin(), row.end()))
            << "peer " << p << ", threads " << threads;
        EXPECT_EQ(std::adjacent_find(row.begin(), row.end()), row.end())
            << "peer " << p << ", threads " << threads;
      }
    }
  }
}

TEST(EquilibriumTest, SelectAllMatchesPerPeerSelectOtherDimsAndSelectors) {
  util::Rng rng(41);
  const auto points3 = geometry::random_points(rng, 200, 3, 100.0);
  expect_matches_per_peer(points3, EmptyRectSelector{}, 4);
  expect_matches_per_peer(points3, HyperplaneKSelector::orthogonal(3, 2), 4);
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
  EmptyRectSelector selector;
  for (std::size_t dims : {2u, 3u}) {
    util::Rng rng(21);
    const auto points = geometry::random_points(rng, dims == 2 ? 3000 : 300, dims, 100.0);
    const auto sequential = build_equilibrium(points, selector, 1);
    for (std::size_t threads : {2u, 3u, 8u}) {
      const auto parallel = build_equilibrium(points, selector, threads);
      for (PeerId p = 0; p < points.size(); ++p)
        ASSERT_EQ(sequential.selected(p), parallel.selected(p))
            << "dims " << dims << " threads " << threads << " peer " << p;
    }
  }
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
