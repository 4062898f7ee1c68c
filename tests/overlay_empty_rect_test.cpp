#include "overlay/empty_rect.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>

#include "geometry/orthant.hpp"
#include "geometry/random_points.hpp"
#include "util/rng.hpp"

namespace geomcast::overlay {
namespace {

std::vector<Candidate> to_candidates(const std::vector<geometry::Point>& points,
                                     std::size_t ego_index) {
  std::vector<Candidate> candidates;
  for (std::size_t i = 0; i < points.size(); ++i)
    if (i != ego_index) candidates.push_back({static_cast<PeerId>(i), points[i]});
  return candidates;
}

/// Point layouts for the agreement battery. kDistinct is random_points
/// (every per-dimension coordinate distinct); the other two tie on purpose.
enum class Layout { kDistinct, kLattice, kTied };

void PrintTo(Layout layout, std::ostream* os) {
  *os << (layout == Layout::kLattice ? "lattice" : layout == Layout::kTied ? "tied" : "distinct");
}

/// The full integer lattice {0..side-1}^dims, in a seed-shuffled order:
/// every point shares each coordinate with many others.
std::vector<geometry::Point> lattice_points(util::Rng& rng, std::size_t side, std::size_t dims) {
  std::size_t total = 1;
  for (std::size_t d = 0; d < dims; ++d) total *= side;
  std::vector<geometry::Point> points;
  points.reserve(total);
  for (std::size_t index = 0; index < total; ++index) {
    geometry::Point p(dims);
    std::size_t rest = index;
    for (std::size_t d = 0; d < dims; ++d) {
      p[d] = static_cast<double>(rest % side);
      rest /= side;
    }
    points.push_back(p);
  }
  rng.shuffle(points);
  return points;
}

/// `count` points with integer coordinates drawn from {0..levels-1}: ties
/// in single coordinates and whole coincident points are both common.
std::vector<geometry::Point> tied_points(util::Rng& rng, std::size_t count, std::size_t dims,
                                         std::uint64_t levels) {
  std::vector<geometry::Point> points(count, geometry::Point(dims));
  for (auto& p : points)
    for (std::size_t d = 0; d < dims; ++d) p[d] = static_cast<double>(rng.next_below(levels));
  return points;
}

TEST(EmptyRectTest, NoCandidatesNoNeighbors) {
  EmptyRectSelector selector;
  EXPECT_TRUE(selector.select(geometry::Point({1.0, 2.0}), {}).empty());
}

TEST(EmptyRectTest, SingleCandidateAlwaysNeighbor) {
  EmptyRectSelector selector;
  const std::vector<Candidate> candidates{{7, geometry::Point({3.0, 4.0})}};
  const auto result = selector.select(geometry::Point({0.0, 0.0}), candidates);
  EXPECT_EQ(result, (std::vector<PeerId>{7}));
}

TEST(EmptyRectTest, BlockedByPointInsideBox) {
  // R = (1,1) sits strictly inside the box spanned by P=(0,0) and Q=(2,2).
  EmptyRectSelector selector;
  const std::vector<Candidate> candidates{{1, geometry::Point({2.0, 2.2})},
                                          {2, geometry::Point({1.0, 1.1})}};
  const auto result = selector.select(geometry::Point({0.0, 0.0}), candidates);
  EXPECT_EQ(result, (std::vector<PeerId>{2}));
}

TEST(EmptyRectTest, DifferentQuadrantsDontBlock) {
  EmptyRectSelector selector;
  const std::vector<Candidate> candidates{{1, geometry::Point({2.0, 3.0})},
                                          {2, geometry::Point({-1.0, -1.5})},
                                          {3, geometry::Point({2.5, -0.5})},
                                          {4, geometry::Point({-2.0, 0.5})}};
  const auto result = selector.select(geometry::Point({0.0, 0.0}), candidates);
  EXPECT_EQ(result, (std::vector<PeerId>{1, 2, 3, 4}));
}

TEST(EmptyRectTest, StaircaseIn2D) {
  // All candidates in one quadrant forming a staircase: all are neighbours.
  EmptyRectSelector selector;
  const std::vector<Candidate> candidates{{1, geometry::Point({1.0, 5.0})},
                                          {2, geometry::Point({2.0, 3.0})},
                                          {3, geometry::Point({4.0, 2.0})},
                                          {4, geometry::Point({6.0, 1.0})}};
  const auto result = selector.select(geometry::Point({0.0, 0.0}), candidates);
  EXPECT_EQ(result, (std::vector<PeerId>{1, 2, 3, 4}));
}

TEST(EmptyRectTest, DominatedChainKeepsOnlyClosest) {
  // Candidates along the diagonal: each dominates the next.
  EmptyRectSelector selector;
  const std::vector<Candidate> candidates{{1, geometry::Point({1.0, 1.5})},
                                          {2, geometry::Point({2.0, 2.5})},
                                          {3, geometry::Point({3.0, 3.5})}};
  const auto result = selector.select(geometry::Point({0.0, 0.0}), candidates);
  EXPECT_EQ(result, (std::vector<PeerId>{1}));
}

// ------------------------------------------------------------------ property
// The fast selector must agree exactly with the literal O(n^2) paper rule.
// `count` is the point count, or the side length for kLattice.
class EmptyRectAgreementTest
    : public ::testing::TestWithParam<std::tuple<int, int, std::uint64_t, Layout>> {};

TEST_P(EmptyRectAgreementTest, FastMatchesBruteForce) {
  const auto [dims, count, seed, layout] = GetParam();
  util::Rng rng(seed);
  const auto n = static_cast<std::size_t>(count);
  const auto d = static_cast<std::size_t>(dims);
  const auto points = layout == Layout::kLattice ? lattice_points(rng, n, d)
                      : layout == Layout::kTied  ? tied_points(rng, n, d, 5)
                                                 : geometry::random_points(rng, n, d, 100.0);
  EmptyRectSelector selector;
  for (std::size_t ego = 0; ego < points.size(); ++ego) {
    const auto candidates = to_candidates(points, ego);
    const auto fast = selector.select(points[ego], candidates);
    const auto brute = EmptyRectSelector::select_brute_force(points[ego], candidates);
    EXPECT_EQ(fast, brute) << "ego=" << ego << " dims=" << dims;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EmptyRectAgreementTest,
    ::testing::Combine(::testing::Values(2, 3, 4, 5, 6), ::testing::Values(40, 120),
                       ::testing::Values(1u, 2u, 3u), ::testing::Values(Layout::kDistinct)));

// Tied coordinates: the fast paths must still equal the literal
// strict-interior rule (zero offsets always kept, equal-|dx| runs judged
// as a group, coincident candidates both kept).
INSTANTIATE_TEST_SUITE_P(
    Lattice, EmptyRectAgreementTest,
    ::testing::Values(std::make_tuple(2, 12, 1u, Layout::kLattice),
                      std::make_tuple(3, 5, 2u, Layout::kLattice),
                      std::make_tuple(4, 4, 3u, Layout::kLattice)));

INSTANTIATE_TEST_SUITE_P(
    Tied, EmptyRectAgreementTest,
    ::testing::Combine(::testing::Values(2, 3, 4), ::testing::Values(60),
                       ::testing::Values(4u, 5u, 6u, 7u), ::testing::Values(Layout::kTied)));

// Symmetry: the box spanned by {P,Q} is the same from both ends, so under
// full knowledge the neighbour relation is symmetric.
class EmptyRectSymmetryTest : public ::testing::TestWithParam<int> {};

TEST_P(EmptyRectSymmetryTest, NeighborRelationSymmetric) {
  const auto dims = static_cast<std::size_t>(GetParam());
  util::Rng rng(77 + dims);
  const auto points = geometry::random_points(rng, 80, dims, 100.0);
  EmptyRectSelector selector;
  std::vector<std::vector<PeerId>> selections(points.size());
  for (std::size_t ego = 0; ego < points.size(); ++ego)
    selections[ego] = selector.select(points[ego], to_candidates(points, ego));
  for (std::size_t p = 0; p < points.size(); ++p) {
    for (PeerId q : selections[p]) {
      EXPECT_TRUE(std::binary_search(selections[q].begin(), selections[q].end(),
                                     static_cast<PeerId>(p)))
          << p << " selected " << q << " but not vice versa";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, EmptyRectSymmetryTest, ::testing::Values(2, 3, 4, 5));

// Coverage property (the §2 delivery argument relies on it): for every
// orthant of every peer that contains at least one known peer, the selector
// keeps at least one neighbour in that orthant.
class EmptyRectCoverageTest : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(EmptyRectCoverageTest, NonEmptyOrthantsHaveANeighbor) {
  const auto [dims_int, seed] = GetParam();
  const auto dims = static_cast<std::size_t>(dims_int);
  util::Rng rng(seed);
  const auto points = geometry::random_points(rng, 100, dims, 100.0);
  EmptyRectSelector selector;
  for (std::size_t ego = 0; ego < points.size(); ++ego) {
    const auto candidates = to_candidates(points, ego);
    const auto neighbors = selector.select(points[ego], candidates);
    std::vector<bool> orthant_has_candidate(geometry::orthant_count(dims), false);
    std::vector<bool> orthant_has_neighbor(geometry::orthant_count(dims), false);
    for (const auto& c : candidates)
      orthant_has_candidate[geometry::orthant_of(points[ego], c.point)] = true;
    for (PeerId q : neighbors)
      orthant_has_neighbor[geometry::orthant_of(points[ego], points[q])] = true;
    for (std::size_t o = 0; o < orthant_has_candidate.size(); ++o) {
      if (orthant_has_candidate[o]) {
        EXPECT_TRUE(orthant_has_neighbor[o]) << "orthant " << o;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, EmptyRectCoverageTest,
                         ::testing::Combine(::testing::Values(2, 3, 4, 5),
                                            ::testing::Values(10u, 20u, 30u)));

TEST(EmptyRectTest, OrderInvariance) {
  util::Rng rng(5);
  const auto points = geometry::random_points(rng, 60, 3, 100.0);
  EmptyRectSelector selector;
  auto candidates = to_candidates(points, 0);
  const auto baseline = selector.select(points[0], candidates);
  util::Rng shuffle_rng(6);
  for (int trial = 0; trial < 5; ++trial) {
    shuffle_rng.shuffle(candidates);
    EXPECT_EQ(selector.select(points[0], candidates), baseline);
  }

  // Coincident candidates never block each other: both are neighbours,
  // whichever comes first, in 2-D and n-D alike.
  for (std::size_t dims : {2u, 3u}) {
    auto diagonal = [dims](double v) {
      geometry::Point p(dims);
      for (std::size_t d = 0; d < dims; ++d) p[d] = v;
      return p;
    };
    const geometry::Point ego = diagonal(0.0), same = diagonal(1.0), beyond = diagonal(2.0);
    std::vector<Candidate> coincident{{5, same}, {6, same}, {7, beyond}};
    for (int order = 0; order < 2; ++order) {
      EXPECT_EQ(selector.select(ego, coincident), (std::vector<PeerId>{5, 6})) << dims;
      EXPECT_EQ(EmptyRectSelector::select_brute_force(ego, coincident),
                (std::vector<PeerId>{5, 6}));
      std::swap(coincident[0], coincident[1]);
    }
  }
}

TEST(EmptyRectTest, NameIsStable) {
  EXPECT_EQ(EmptyRectSelector{}.name(), "empty-rect");
}

}  // namespace
}  // namespace geomcast::overlay
