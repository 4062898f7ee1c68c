// Direct unit tests of partition_step — the §2 local forwarding rule —
// without going through the tree builders. Each candidate set is a star
// overlay around the stepping peer.
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

using overlay::OverlayGraph;
using overlay::PeerId;

/// The candidate set of one step as a star overlay: peer 0 sits at `ego`
/// and selects every other peer; peer i sits at `neighbors[i - 1]`.
OverlayGraph star(const geometry::Point& ego, const std::vector<geometry::Point>& neighbors) {
  std::vector<geometry::Point> points{ego};
  points.insert(points.end(), neighbors.begin(), neighbors.end());
  std::vector<std::vector<PeerId>> out(points.size());
  for (PeerId q = 1; q < points.size(); ++q) out[0].push_back(q);
  return OverlayGraph(std::move(points), std::move(out));
}

/// partition_step at the star's centre, everyone up.
std::vector<ZoneAssignment> step(const OverlayGraph& graph, const geometry::Rect& zone,
                                 PickPolicy policy = PickPolicy::kMedian,
                                 util::Rng* rng = nullptr) {
  std::vector<ZoneAssignment> out;
  StepScratch scratch;
  partition_step(graph, 0, zone.bounds(), {}, policy, geometry::Metric::kL1, rng, out, scratch);
  return out;
}

/// The slice a step at the star's centre delegates with `a`.
geometry::Rect slice(const OverlayGraph& graph, const geometry::Rect& zone,
                     const ZoneAssignment& a) {
  geometry::Rect child = zone;
  child_zone(zone.bounds(), graph.coords(0), a.orthant, child.bounds());
  return child;
}

TEST(LocalRuleTest, NoNeighborsNoAssignments) {
  EXPECT_TRUE(step(star(geometry::Point({1.0, 2.0}), {}), initiator_zone(2)).empty());
}

TEST(LocalRuleTest, NeighborsOutsideZoneIgnored) {
  const auto graph = star({50.0, 50.0}, {{70.0, 70.0}, {10.0, 55.0}});
  EXPECT_TRUE(step(graph, geometry::Rect::cube(2, 40.0, 60.0)).empty());
}

TEST(LocalRuleTest, ZoneBoundaryIsExclusive) {
  // Zones are strict interiors: a neighbour exactly on the boundary is out.
  const auto graph = star({50.0, 50.0}, {{60.0, 55.0}});
  EXPECT_TRUE(step(graph, geometry::Rect::cube(2, 40.0, 60.0)).empty());
}

TEST(LocalRuleTest, OneDelegatePerOccupiedRegion) {
  // Two neighbours in the (+,+) quadrant, one in (-,-).
  const auto graph = star({50.0, 50.0}, {{60.0, 60.0}, {55.0, 70.0}, {40.0, 30.0}});
  EXPECT_EQ(step(graph, initiator_zone(2)).size(), 2u);
}

TEST(LocalRuleTest, DeadNeighborsIgnored) {
  // The alive mask removes candidates before the regions form: with the
  // distance-8.5 peer down, the lower median of {4, 20.5} is peer 1.
  const auto graph = star({0.0, 0.0}, {{1.0, 3.0}, {5.0, 3.5}, {10.0, 10.5}});
  std::vector<ZoneAssignment> out;
  StepScratch scratch;
  partition_step(graph, 0, initiator_zone(2).bounds(), {true, true, false, true},
                 PickPolicy::kMedian, geometry::Metric::kL1, nullptr, out, scratch);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].child, 1u);
}

TEST(LocalRuleTest, MedianPickIsLowerMedian) {
  // L1 distances in one quadrant: 4 < 8 < 20; median (lower, index (3-1)/2=1)
  // must be the distance-8 neighbour.
  const auto graph = star({0.0, 0.0}, {{1.0, 3.0},      // L1=4
                                       {5.0, 3.5},      // L1=8.5
                                       {10.0, 10.5}});  // L1=20.5
  const auto assignments = step(graph, initiator_zone(2));
  ASSERT_EQ(assignments.size(), 1u);
  EXPECT_EQ(assignments[0].child, 2u);
}

TEST(LocalRuleTest, EvenCountLowerMedian) {
  // Four neighbours: lower median = index 1 of the sorted order.
  const auto graph =
      star({0.0, 0.0}, {{1.0, 1.5}, {2.0, 2.5}, {3.0, 3.5}, {4.0, 4.5}});
  const auto assignments = step(graph, initiator_zone(2));
  ASSERT_EQ(assignments.size(), 1u);
  EXPECT_EQ(assignments[0].child, 2u);
}

TEST(LocalRuleTest, PoliciesSelectExpectedRanks) {
  const auto graph = star({0.0, 0.0}, {{1.0, 1.5}, {2.0, 2.5}, {3.0, 3.5}});
  auto pick = [&](PickPolicy policy) { return step(graph, initiator_zone(2), policy).at(0).child; };
  EXPECT_EQ(pick(PickPolicy::kClosest), 1u);
  EXPECT_EQ(pick(PickPolicy::kMedian), 2u);
  EXPECT_EQ(pick(PickPolicy::kFarthest), 3u);
}

TEST(LocalRuleTest, RandomPolicyWithoutRngThrows) {
  const auto graph = star({0.0, 0.0}, {{1.0, 1.5}});
  EXPECT_THROW((void)step(graph, initiator_zone(2), PickPolicy::kRandom, nullptr),
               std::invalid_argument);
}

TEST(LocalRuleTest, DelegateZoneMatchesPaperFormula) {
  const auto graph = star({50.0, 50.0}, {{30.0, 80.0}});
  const auto zone = geometry::Rect::cube(2, 0.0, 100.0);
  const auto assignments = step(graph, zone);
  ASSERT_EQ(assignments.size(), 1u);
  EXPECT_EQ(assignments[0].orthant, 0b10u);
  // x(Q,1) < x(P,1): side (-inf, 50) clipped to (0, 50);
  // x(Q,2) > x(P,2): side (50, +inf) clipped to (50, 100).
  const geometry::Rect delegated = slice(graph, zone, assignments[0]);
  EXPECT_EQ(delegated.lo(0), 0.0);
  EXPECT_EQ(delegated.hi(0), 50.0);
  EXPECT_EQ(delegated.lo(1), 50.0);
  EXPECT_EQ(delegated.hi(1), 100.0);
}

// Structural invariants of a single step over random inputs.
class LocalRuleInvariantTest : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(LocalRuleInvariantTest, AssignmentsPartitionCleanly) {
  const auto [dims, seed] = GetParam();
  util::Rng rng(seed);
  const auto points =
      geometry::random_points(rng, 60, static_cast<std::size_t>(dims), 100.0);
  const geometry::Point& ego = points[0];
  const auto graph = star(ego, std::vector<geometry::Point>(points.begin() + 1, points.end()));

  const auto zone = geometry::Rect::cube(static_cast<std::size_t>(dims), 10.0, 90.0);
  if (!zone.contains_interior(ego)) return;  // step assumes the ego holds the zone
  const auto assignments = step(graph, zone);
  std::vector<geometry::Rect> slices;
  for (const auto& a : assignments) slices.push_back(slice(graph, zone, a));

  for (std::size_t i = 0; i < assignments.size(); ++i) {
    const auto& a = assignments[i];
    // Delegate inside its zone; ego outside it; zone nested in parent zone.
    EXPECT_EQ(a.orthant, geometry::orthant_of(ego, points[a.child]));
    EXPECT_TRUE(slices[i].contains_interior(points[a.child]));
    EXPECT_FALSE(slices[i].contains_interior(ego));
    EXPECT_TRUE(slices[i].interior_subset_of(zone));
    for (std::size_t j = i + 1; j < assignments.size(); ++j)
      EXPECT_TRUE(slices[i].interior_disjoint(slices[j]));
  }
  // Every in-zone neighbour is covered by exactly one delegate zone, the
  // one of its orthant.
  for (PeerId q = 1; q < points.size(); ++q) {
    if (!zone.contains_interior(points[q])) continue;
    int covering = 0;
    for (std::size_t i = 0; i < assignments.size(); ++i) {
      const bool in_slice = slices[i].contains_interior(points[q]);
      EXPECT_EQ(in_slice, in_orthant(graph.coords(0), graph.coords(q), assignments[i].orthant));
      covering += in_slice ? 1 : 0;
    }
    EXPECT_EQ(covering, 1) << "neighbour " << q;
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
