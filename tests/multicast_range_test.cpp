#include "multicast/range_multicast.hpp"

#include <gtest/gtest.h>

#include "geometry/random_points.hpp"
#include "overlay/empty_rect.hpp"
#include "overlay/equilibrium.hpp"
#include "util/rng.hpp"

namespace geomcast::multicast {
namespace {

overlay::OverlayGraph make_overlay(std::size_t n, std::size_t dims, std::uint64_t seed) {
  util::Rng rng(seed);
  const auto points = geometry::random_points(rng, n, dims, 100.0);
  return overlay::build_equilibrium(points, overlay::EmptyRectSelector{});
}

TEST(RangeMulticastTest, WholeSpaceTargetEqualsRegularMulticast) {
  const auto graph = make_overlay(100, 2, 61);
  const auto ranged =
      build_range_multicast(graph, 0, geometry::Rect::whole_space(2));
  const auto regular = build_multicast_tree(graph, 0);
  EXPECT_EQ(ranged.delivered, graph.size());
  EXPECT_EQ(ranged.relays, 0u);
  EXPECT_EQ(ranged.request_messages, regular.request_messages);
  for (overlay::PeerId p = 0; p < graph.size(); ++p)
    EXPECT_EQ(ranged.tree.parent(p), regular.tree.parent(p));
}

TEST(RangeMulticastTest, EmptyTargetDeliversNothing) {
  const auto graph = make_overlay(80, 2, 62);
  // A target beyond every coordinate: peer-free, but zone slices toward the
  // corner still intersect it, so the recursion probes a relay chain in
  // that direction before running out of candidates.
  const auto target = geometry::Rect::cube(2, 200.0, 201.0);
  const auto result = build_range_multicast(graph, 0, target);
  EXPECT_EQ(result.delivered, 0u);
  EXPECT_EQ(result.duplicate_deliveries, 0u);
  EXPECT_GE(result.relays, 1u);  // at least the initiator processed it
  EXPECT_LT(result.relays, graph.size() / 2);  // ...but most peers never see it
  EXPECT_EQ(result.request_messages, result.relays - 1);
}

TEST(RangeMulticastTest, DimensionMismatchThrows) {
  const auto graph = make_overlay(20, 2, 63);
  EXPECT_THROW(build_range_multicast(graph, 0, geometry::Rect::whole_space(3)),
               std::invalid_argument);
  EXPECT_THROW(build_range_multicast(graph, 20, geometry::Rect::whole_space(2)),
               std::invalid_argument);
}

// Coverage: every peer strictly inside the target is delivered, regardless
// of where the initiator sits — swept over dims, target size and seed.
class RangeCoverageTest
    : public ::testing::TestWithParam<std::tuple<int, double, std::uint64_t>> {};

TEST_P(RangeCoverageTest, AllTargetPeersDeliveredNoDuplicates) {
  const auto [dims, extent, seed] = GetParam();
  const auto graph = make_overlay(150, static_cast<std::size_t>(dims), seed);
  util::Rng rng(seed ^ 0xabcdef);
  for (int trial = 0; trial < 8; ++trial) {
    geometry::Rect target(static_cast<std::size_t>(dims));
    for (std::size_t d = 0; d < static_cast<std::size_t>(dims); ++d) {
      const double lo = rng.uniform(0.0, 100.0 - extent);
      target.set_lo(d, lo);
      target.set_hi(d, lo + extent);
    }
    const auto root = static_cast<overlay::PeerId>(rng.next_below(graph.size()));
    const auto result = build_range_multicast(graph, root, target);

    EXPECT_EQ(result.delivered, peers_inside(graph, target));
    EXPECT_EQ(result.duplicate_deliveries, 0u);
    for (overlay::PeerId p = 0; p < graph.size(); ++p) {
      const bool inside = target.contains_interior(graph.point(p));
      if (p == root) continue;
      if (inside) { EXPECT_TRUE(result.tree.reached(p)) << "missed target peer " << p; }
      EXPECT_EQ(result.is_delivery[p], inside && result.tree.reached(p));
    }
    // Messages = reached peers minus the initiator.
    EXPECT_EQ(result.request_messages, result.delivered + result.relays - 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RangeCoverageTest,
                         ::testing::Combine(::testing::Values(2, 3, 4),
                                            ::testing::Values(20.0, 50.0, 90.0),
                                            ::testing::Values(71u, 72u)));

TEST(RangeMulticastTest, SmallTargetCheaperThanFullMulticast) {
  const auto graph = make_overlay(300, 2, 64);
  const auto target = geometry::Rect::cube(2, 10.0, 30.0);  // 4% of the area
  const auto ranged = build_range_multicast(graph, 0, target);
  const auto full = build_multicast_tree(graph, 0);
  EXPECT_GT(ranged.delivered, 0u);
  EXPECT_LT(ranged.request_messages, full.request_messages / 2)
      << "pruning should skip most of the overlay for a small target";
}

TEST(RangeMulticastTest, RelayCountBounded) {
  // Relays exist (the initiator may be outside the target) but the pruned
  // recursion should not touch the whole overlay for a small zone.
  const auto graph = make_overlay(300, 2, 65);
  const auto target = geometry::Rect::cube(2, 70.0, 90.0);
  const auto result = build_range_multicast(graph, 0, target);
  EXPECT_LT(result.relays, graph.size() / 2);
}

TEST(RangeMulticastTest, DeterministicAcrossRuns) {
  const auto graph = make_overlay(100, 3, 66);
  const auto target = geometry::Rect::cube(3, 20.0, 60.0);
  const auto a = build_range_multicast(graph, 5, target);
  const auto b = build_range_multicast(graph, 5, target);
  EXPECT_EQ(a.request_messages, b.request_messages);
  EXPECT_EQ(a.delivered, b.delivered);
  for (overlay::PeerId p = 0; p < graph.size(); ++p)
    EXPECT_EQ(a.tree.parent(p), b.tree.parent(p));
}

}  // namespace
}  // namespace geomcast::multicast
