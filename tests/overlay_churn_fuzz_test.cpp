// Randomised churn stress: long interleaved sequences of joins and leaves
// against the incremental builder, checking after every event that the
// topology is exactly the full-knowledge equilibrium of the live peers
// (the paper's §1 convergence requirement) and that the §2 construction
// still covers everyone.
#include <gtest/gtest.h>

#include "analysis/graph_metrics.hpp"
#include "geometry/random_points.hpp"
#include "multicast/space_partition.hpp"
#include "overlay/empty_rect.hpp"
#include "overlay/equilibrium.hpp"
#include "overlay/hyperplane_k.hpp"
#include "overlay/incremental.hpp"
#include "util/rng.hpp"

namespace geomcast::overlay {
namespace {

class ChurnFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChurnFuzzTest, EquilibriumMaintainedThroughRandomChurn) {
  const std::uint64_t seed = GetParam();
  util::Rng rng(seed);
  util::Rng op_rng = rng.derive(1);

  const EmptyRectSelector selector;
  IncrementalConfig config;
  config.full_knowledge = true;
  IncrementalBuilder builder(selector, config, rng.derive(2));

  // Track live points in builder id order so graph() comparisons line up.
  std::vector<geometry::Point> all_points;
  std::vector<bool> alive;

  const auto live_points = [&] {
    std::vector<geometry::Point> live;
    for (std::size_t i = 0; i < all_points.size(); ++i)
      if (alive[i]) live.push_back(all_points[i]);
    return live;
  };

  for (int step = 0; step < 80; ++step) {
    const std::size_t live_count = builder.size();
    const bool join = live_count < 5 || (live_count < 40 && op_rng.chance(0.7));
    if (join) {
      // Fresh coordinates, re-drawn on (never-seen) per-dimension clashes.
      geometry::Point p{op_rng.uniform(0.0, 1000.0), op_rng.uniform(0.0, 1000.0)};
      all_points.push_back(p);
      alive.push_back(true);
      ASSERT_TRUE(builder.insert(p).has_value()) << "step " << step;
    } else {
      // Remove a uniformly random live peer.
      auto nth = op_rng.next_below(live_count);
      for (PeerId p = 0; p < all_points.size(); ++p) {
        if (!alive[p]) continue;
        if (nth == 0) {
          alive[p] = false;
          ASSERT_TRUE(builder.remove(p).has_value()) << "step " << step;
          break;
        }
        --nth;
      }
    }

    // §1 requirement: post-event equilibrium == full-knowledge topology.
    const auto graph = builder.graph();
    ASSERT_EQ(graph, build_equilibrium(live_points(), selector)) << "step " << step;
    ASSERT_TRUE(is_equilibrium(graph, selector)) << "step " << step;

    // §2 still works over the current overlay.
    if (graph.size() >= 2 && step % 10 == 0) {
      const auto result = multicast::build_multicast_tree(graph, 0);
      ASSERT_EQ(result.tree.reached_count(), graph.size()) << "step " << step;
      ASSERT_EQ(result.request_messages, graph.size() - 1) << "step " << step;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChurnFuzzTest,
                         ::testing::Values(1001u, 1002u, 1003u, 1004u, 1005u));

TEST(ChurnFuzzTest, OrthogonalKSelectorUnderChurn) {
  // Same stress with the §3 overlay family; weaker check (connectivity +
  // fixed point) since multicast coverage is not guaranteed there.
  util::Rng op_rng(2001);
  const auto selector = HyperplaneKSelector::orthogonal(3, 2);
  IncrementalConfig config;
  config.full_knowledge = true;
  IncrementalBuilder builder(selector, config, util::Rng(2002));

  std::size_t live = 0;
  std::size_t total = 0;
  for (int step = 0; step < 60; ++step) {
    if (live < 4 || op_rng.chance(0.65)) {
      geometry::Point p{op_rng.uniform(0.0, 1000.0), op_rng.uniform(0.0, 1000.0),
                        op_rng.uniform(0.0, 1000.0)};
      ASSERT_TRUE(builder.insert(p).has_value());
      ++live;
      ++total;
    } else {
      // Remove the lowest-id live peer (deterministic, exercises compaction).
      for (PeerId p = 0; p < total; ++p) {
        if (builder.alive(p)) {
          builder.remove(p);
          --live;
          break;
        }
      }
    }
    const auto graph = builder.graph();
    ASSERT_EQ(graph.size(), live);
    if (live >= 2) { ASSERT_TRUE(analysis::is_connected(graph)) << "step " << step; }
  }
}

}  // namespace
}  // namespace geomcast::overlay
