#include "multicast/space_partition.hpp"

#include <gtest/gtest.h>

#include "geometry/orthant.hpp"
#include "geometry/random_points.hpp"
#include "multicast/validator.hpp"
#include "multicast/zone.hpp"
#include "overlay/empty_rect.hpp"
#include "overlay/equilibrium.hpp"
#include "scenario/scenario.hpp"
#include "util/rng.hpp"

namespace geomcast::multicast {
namespace {

TEST(SpacePartitionTest, SingletonOverlay) {
  util::Rng rng(1);
  const auto points = geometry::random_points(rng, 1, 2, 100.0);
  const overlay::OverlayGraph graph(points, {{}});
  const auto result = build_multicast_tree(graph, 0);
  EXPECT_EQ(result.tree.reached_count(), 1u);
  EXPECT_EQ(result.request_messages, 0u);
}

TEST(SpacePartitionTest, RootOutOfRangeThrows) {
  const auto graph = scenario::make_overlay(10, 2, 2).graph;
  EXPECT_THROW(build_multicast_tree(graph, 10), std::invalid_argument);
}

TEST(SpacePartitionTest, TwoPeers) {
  util::Rng rng(3);
  const auto points = geometry::random_points(rng, 2, 2, 100.0);
  const auto graph = overlay::build_equilibrium(points, overlay::EmptyRectSelector{});
  const auto result = build_multicast_tree(graph, 0);
  EXPECT_EQ(result.tree.reached_count(), 2u);
  EXPECT_EQ(result.request_messages, 1u);
  EXPECT_EQ(result.tree.parent(1), 0u);
}

// The headline §2 claims, swept over dimension, root and seed.
class SpacePartitionPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(SpacePartitionPropertyTest, AllInvariantsHold) {
  const auto [dims, seed] = GetParam();
  const auto graph = scenario::make_overlay(120, static_cast<std::size_t>(dims), seed).graph;
  for (overlay::PeerId root : {0u, 7u, 63u, 119u}) {
    const auto result = build_multicast_tree(graph, root);
    const auto report = validate_build(graph, result);
    EXPECT_TRUE(report.valid()) << "dims=" << dims << " root=" << root << ": "
                                << report.summary();
    EXPECT_EQ(result.request_messages, graph.size() - 1);
    EXPECT_EQ(result.duplicate_deliveries, 0u);
    EXPECT_EQ(result.tree.reached_count(), graph.size());
    EXPECT_LE(result.tree.max_children(), geometry::orthant_count(graph.dims()));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SpacePartitionPropertyTest,
                         ::testing::Combine(::testing::Values(2, 3, 4, 5),
                                            ::testing::Values(11u, 22u, 33u)));

TEST(SpacePartitionTest, DeterministicForFixedInputs) {
  const auto graph = scenario::make_overlay(80, 3, 4).graph;
  const auto a = build_multicast_tree(graph, 5);
  const auto b = build_multicast_tree(graph, 5);
  EXPECT_EQ(a.request_messages, b.request_messages);
  for (overlay::PeerId p = 0; p < graph.size(); ++p) {
    EXPECT_EQ(a.tree.parent(p), b.tree.parent(p));
    EXPECT_EQ(a.zones[p], b.zones[p]);
  }
}

TEST(SpacePartitionTest, EveryPolicyCoversEverything) {
  // Median is the paper's choice, but the coverage argument only needs
  // *some* neighbour per non-empty region — any policy must still reach all.
  const auto graph = scenario::make_overlay(100, 2, 5).graph;
  for (auto policy : {PickPolicy::kMedian, PickPolicy::kClosest, PickPolicy::kFarthest,
                      PickPolicy::kRandom}) {
    MulticastConfig config;
    config.policy = policy;
    config.rng_seed = 99;
    const auto result = build_multicast_tree(graph, 0, config);
    EXPECT_EQ(result.tree.reached_count(), graph.size()) << to_string(policy);
    EXPECT_EQ(result.request_messages, graph.size() - 1) << to_string(policy);
  }
}

TEST(SpacePartitionTest, RandomPolicySeedControlsShape) {
  const auto graph = scenario::make_overlay(100, 2, 6).graph;
  MulticastConfig config;
  config.policy = PickPolicy::kRandom;
  config.rng_seed = 1;
  const auto a = build_multicast_tree(graph, 0, config);
  const auto a_again = build_multicast_tree(graph, 0, config);
  config.rng_seed = 2;
  const auto b = build_multicast_tree(graph, 0, config);

  auto parents = [&](const BuildResult& r) {
    std::vector<overlay::PeerId> out;
    for (overlay::PeerId p = 0; p < graph.size(); ++p) out.push_back(r.tree.parent(p));
    return out;
  };
  EXPECT_EQ(parents(a), parents(a_again));
  EXPECT_NE(parents(a), parents(b));
}

TEST(SpacePartitionTest, RootZoneIsWholeSpace) {
  const auto graph = scenario::make_overlay(50, 2, 7).graph;
  const auto result = build_multicast_tree(graph, 3);
  EXPECT_EQ(result.zones[3], initiator_zone(2));
}

TEST(SpacePartitionTest, EveryNonRootZoneIsBoundedOnOneSide) {
  // Each non-root zone was clipped at least once, so at least one side per
  // delegation is finite; spot-check that zones are not the whole space.
  const auto graph = scenario::make_overlay(50, 2, 8).graph;
  const auto result = build_multicast_tree(graph, 3);
  for (overlay::PeerId p = 0; p < graph.size(); ++p) {
    if (p == 3) continue;
    EXPECT_NE(result.zones[p], initiator_zone(2)) << "peer " << p;
  }
}

TEST(SpacePartitionTest, L2MetricAlsoValid) {
  // The paper sorts by L1, but the invariants are metric-independent.
  const auto graph = scenario::make_overlay(90, 3, 9).graph;
  MulticastConfig config;
  config.metric = geometry::Metric::kL2;
  const auto result = build_multicast_tree(graph, 0, config);
  const auto report = validate_build(graph, result);
  EXPECT_TRUE(report.valid()) << report.summary();
}

}  // namespace
}  // namespace geomcast::multicast
