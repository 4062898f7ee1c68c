// Direct unit tests of partition_step — the §2 local forwarding rule —
// without going through the tree builders.
#include "multicast/local_rule.hpp"

#include <gtest/gtest.h>

#include "geometry/orthant.hpp"
#include "geometry/random_points.hpp"
#include "multicast/space_partition.hpp"
#include "multicast/zone.hpp"
#include "overlay/empty_rect.hpp"
#include "overlay/equilibrium.hpp"
#include "util/rng.hpp"

namespace geomcast::multicast {
namespace {

using overlay::Candidate;
using overlay::PeerId;

TEST(LocalRuleTest, NoNeighborsNoAssignments) {
  const auto assignments =
      partition_step(geometry::Point({1.0, 2.0}), initiator_zone(2), {});
  EXPECT_TRUE(assignments.empty());
}

TEST(LocalRuleTest, NeighborsOutsideZoneIgnored) {
  const geometry::Point ego{50.0, 50.0};
  const auto zone = geometry::Rect::cube(2, 40.0, 60.0);
  const std::vector<Candidate> neighbors{{1, geometry::Point({70.0, 70.0})},
                                         {2, geometry::Point({10.0, 55.0})}};
  EXPECT_TRUE(partition_step(ego, zone, neighbors).empty());
}

TEST(LocalRuleTest, ZoneBoundaryIsExclusive) {
  // Zones are strict interiors: a neighbour exactly on the boundary is out.
  const geometry::Point ego{50.0, 50.0};
  const auto zone = geometry::Rect::cube(2, 40.0, 60.0);
  const std::vector<Candidate> neighbors{{1, geometry::Point({60.0, 55.0})}};
  EXPECT_TRUE(partition_step(ego, zone, neighbors).empty());
}

TEST(LocalRuleTest, OneDelegatePerOccupiedRegion) {
  const geometry::Point ego{50.0, 50.0};
  // Two neighbours in the (+,+) quadrant, one in (-,-).
  const std::vector<Candidate> neighbors{{1, geometry::Point({60.0, 60.0})},
                                         {2, geometry::Point({55.0, 70.0})},
                                         {3, geometry::Point({40.0, 30.0})}};
  const auto assignments = partition_step(ego, initiator_zone(2), neighbors);
  EXPECT_EQ(assignments.size(), 2u);
}

TEST(LocalRuleTest, MedianPickIsLowerMedian) {
  // L1 distances in one quadrant: 4 < 8 < 20; median (lower, index (3-1)/2=1)
  // must be the distance-8 neighbour.
  const geometry::Point ego{0.0, 0.0};
  const std::vector<Candidate> neighbors{{1, geometry::Point({1.0, 3.0})},     // L1=4
                                         {2, geometry::Point({5.0, 3.5})},     // L1=8.5
                                         {3, geometry::Point({10.0, 10.5})}};  // L1=20.5
  const auto assignments = partition_step(ego, initiator_zone(2), neighbors);
  ASSERT_EQ(assignments.size(), 1u);
  EXPECT_EQ(assignments[0].child, 2u);
}

TEST(LocalRuleTest, EvenCountLowerMedian) {
  // Four neighbours: lower median = index 1 of the sorted order.
  const geometry::Point ego{0.0, 0.0};
  const std::vector<Candidate> neighbors{{1, geometry::Point({1.0, 1.5})},
                                         {2, geometry::Point({2.0, 2.5})},
                                         {3, geometry::Point({3.0, 3.5})},
                                         {4, geometry::Point({4.0, 4.5})}};
  const auto assignments = partition_step(ego, initiator_zone(2), neighbors);
  ASSERT_EQ(assignments.size(), 1u);
  EXPECT_EQ(assignments[0].child, 2u);
}

TEST(LocalRuleTest, PoliciesSelectExpectedRanks) {
  const geometry::Point ego{0.0, 0.0};
  const std::vector<Candidate> neighbors{{1, geometry::Point({1.0, 1.5})},
                                         {2, geometry::Point({2.0, 2.5})},
                                         {3, geometry::Point({3.0, 3.5})}};
  auto pick = [&](PickPolicy policy) {
    const auto a = partition_step(ego, initiator_zone(2), neighbors, policy);
    return a.at(0).child;
  };
  EXPECT_EQ(pick(PickPolicy::kClosest), 1u);
  EXPECT_EQ(pick(PickPolicy::kMedian), 2u);
  EXPECT_EQ(pick(PickPolicy::kFarthest), 3u);
}

TEST(LocalRuleTest, RandomPolicyWithoutRngThrows) {
  const std::vector<Candidate> neighbors{{1, geometry::Point({1.0, 1.5})}};
  EXPECT_THROW(partition_step(geometry::Point({0.0, 0.0}), initiator_zone(2), neighbors,
                              PickPolicy::kRandom, geometry::Metric::kL1, nullptr),
               std::invalid_argument);
}

TEST(LocalRuleTest, DelegateZoneMatchesPaperFormula) {
  const geometry::Point ego{50.0, 50.0};
  const auto zone = geometry::Rect::cube(2, 0.0, 100.0);
  const std::vector<Candidate> neighbors{{1, geometry::Point({30.0, 80.0})}};
  const auto assignments = partition_step(ego, zone, neighbors);
  ASSERT_EQ(assignments.size(), 1u);
  // x(Q,1) < x(P,1): side (-inf, 50) clipped to (0, 50);
  // x(Q,2) > x(P,2): side (50, +inf) clipped to (50, 100).
  EXPECT_EQ(assignments[0].zone.lo(0), 0.0);
  EXPECT_EQ(assignments[0].zone.hi(0), 50.0);
  EXPECT_EQ(assignments[0].zone.lo(1), 50.0);
  EXPECT_EQ(assignments[0].zone.hi(1), 100.0);
}

// Structural invariants of a single step over random inputs.
class LocalRuleInvariantTest : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(LocalRuleInvariantTest, AssignmentsPartitionCleanly) {
  const auto [dims, seed] = GetParam();
  util::Rng rng(seed);
  const auto points =
      geometry::random_points(rng, 60, static_cast<std::size_t>(dims), 100.0);
  const geometry::Point& ego = points[0];
  std::vector<Candidate> neighbors;
  for (std::size_t i = 1; i < points.size(); ++i)
    neighbors.push_back({static_cast<PeerId>(i), points[i]});

  const auto zone = geometry::Rect::cube(static_cast<std::size_t>(dims), 10.0, 90.0);
  if (!zone.contains_interior(ego)) return;  // step assumes the ego holds the zone
  const auto assignments = partition_step(ego, zone, neighbors);

  for (std::size_t i = 0; i < assignments.size(); ++i) {
    const auto& a = assignments[i];
    // Delegate inside its zone; ego outside it; zone nested in parent zone.
    EXPECT_TRUE(a.zone.contains_interior(points[a.child]));
    EXPECT_FALSE(a.zone.contains_interior(ego));
    EXPECT_TRUE(a.zone.interior_subset_of(zone));
    for (std::size_t j = i + 1; j < assignments.size(); ++j)
      EXPECT_TRUE(a.zone.interior_disjoint(assignments[j].zone));
  }
  // Every in-zone neighbour is covered by exactly one delegate zone.
  for (const auto& c : neighbors) {
    if (!zone.contains_interior(c.point)) continue;
    int covering = 0;
    for (const auto& a : assignments)
      if (a.zone.contains_interior(c.point)) ++covering;
    EXPECT_EQ(covering, 1) << "neighbour " << c.id;
  }
  // At most one delegate per orthant.
  EXPECT_LE(assignments.size(), geometry::orthant_count(static_cast<std::size_t>(dims)));
}

INSTANTIATE_TEST_SUITE_P(Sweep, LocalRuleInvariantTest,
                         ::testing::Combine(::testing::Values(1, 2, 3, 5, 8),
                                            ::testing::Values(81u, 82u, 83u)));

// ------------------------------------------------------------ D=1 degeneracy
// On a line, the empty-rectangle overlay is exactly the sorted path, and the
// §2 construction on it splits the line into two rays per step.

TEST(LocalRuleTest, OneDimensionalOverlayIsSortedPath) {
  util::Rng rng(84);
  const auto points = geometry::random_points(rng, 50, 1, 100.0);
  const auto graph =
      overlay::build_equilibrium(points, overlay::EmptyRectSelector{});
  std::vector<std::pair<double, PeerId>> order;
  for (PeerId p = 0; p < graph.size(); ++p) order.push_back({points[p][0], p});
  std::sort(order.begin(), order.end());
  for (std::size_t i = 0; i < order.size(); ++i) {
    const PeerId p = order[i].second;
    std::size_t expected = (i == 0 || i + 1 == order.size()) ? 1 : 2;
    EXPECT_EQ(graph.degree(p), expected) << "rank " << i;
    if (i + 1 < order.size()) { EXPECT_TRUE(graph.has_edge(p, order[i + 1].second)); }
  }
}

TEST(LocalRuleTest, OneDimensionalMulticastInvariants) {
  util::Rng rng(85);
  const auto points = geometry::random_points(rng, 50, 1, 100.0);
  const auto graph =
      overlay::build_equilibrium(points, overlay::EmptyRectSelector{});
  const auto result = build_multicast_tree(graph, 7);
  EXPECT_EQ(result.tree.reached_count(), graph.size());
  EXPECT_EQ(result.request_messages, graph.size() - 1);
  EXPECT_LE(result.tree.max_children(), 2u);  // 2^1 orthants
}

}  // namespace
}  // namespace geomcast::multicast
