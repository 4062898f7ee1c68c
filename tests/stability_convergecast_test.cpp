#include "stability/convergecast.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "overlay/orthant_sweep.hpp"
#include "stability/lifetime.hpp"
#include "util/rng.hpp"

namespace geomcast::stability {
namespace {

struct Workload {
  std::vector<geometry::Point> points;
  std::vector<double> departure_times;
  StableTree tree;
};

Workload make_workload(std::size_t n, std::size_t dims, std::size_t k,
                       std::uint64_t seed) {
  util::Rng rng(seed);
  Workload w;
  w.points = lifetime_points(rng, n, dims, 1000.0, w.departure_times);
  const overlay::OrthantSweepIndex index(w.points);
  w.tree = build_stable_tree(index.graph_for_k(k), w.departure_times);
  return w;
}

TEST(ConvergecastTest, RootReceivesSumOfAllContributions) {
  const auto w = make_workload(200, 3, 3, 501);
  std::vector<double> values(w.tree.size());
  std::iota(values.begin(), values.end(), 1.0);  // 1..N
  const auto result = run_convergecast(w.tree, values);
  const double expected = 200.0 * 201.0 / 2.0;
  EXPECT_DOUBLE_EQ(result.root_value, expected);
  EXPECT_EQ(result.contributions, w.tree.size());
}

TEST(ConvergecastTest, ExactlyNMinus1Messages) {
  // Every non-root peer sends exactly one aggregate upward — the collection
  // mirror of the §2 N-1 dissemination claim.
  const auto w = make_workload(150, 2, 2, 502);
  const std::vector<double> values(w.tree.size(), 1.0);
  const auto result = run_convergecast(w.tree, values);
  EXPECT_EQ(result.messages, w.tree.size() - 1);
  EXPECT_DOUBLE_EQ(result.root_value, 150.0);  // count aggregate
}

TEST(ConvergecastTest, CompletionTimeEqualsTreeHeightUnderUnitLatency) {
  const auto w = make_workload(150, 2, 1, 503);
  const std::vector<double> values(w.tree.size(), 0.0);
  const auto result = run_convergecast(w.tree, values, sim::LatencyModel::constant(1.0));
  // Depth of the deepest leaf = number of hops the slowest partial travels.
  std::size_t max_depth = 0;
  for (PeerId p = 0; p < w.tree.size(); ++p) {
    std::size_t depth = 0;
    for (PeerId cursor = p; w.tree.parent[cursor] != kInvalidPeer;
         cursor = w.tree.parent[cursor])
      ++depth;
    max_depth = std::max(max_depth, depth);
  }
  EXPECT_DOUBLE_EQ(result.completion_time, static_cast<double>(max_depth));
}

TEST(ConvergecastTest, SingleNodeTree) {
  std::vector<geometry::Point> points{geometry::Point({5.0, 5.0})};
  StableTree tree;
  tree.parent = {kInvalidPeer};
  tree.children = {{}};
  tree.roots = {0};
  tree.departure_time = {1.0};
  const auto result = run_convergecast(tree, {42.0});
  EXPECT_DOUBLE_EQ(result.root_value, 42.0);
  EXPECT_EQ(result.contributions, 1u);
  EXPECT_EQ(result.messages, 0u);
}

TEST(ConvergecastTest, RejectsForestsAndBadSizes) {
  StableTree forest;
  forest.parent = {kInvalidPeer, kInvalidPeer};
  forest.children = {{}, {}};
  forest.roots = {0, 1};
  forest.departure_time = {1.0, 2.0};
  EXPECT_THROW((void)run_convergecast(forest, {1.0, 2.0}), std::invalid_argument);

  const auto w = make_workload(20, 2, 2, 504);
  EXPECT_THROW((void)run_convergecast(w.tree, std::vector<double>(5, 1.0)),
               std::invalid_argument);
}

TEST(ConvergecastTest, DeterministicWithJitteredLatency) {
  const auto w = make_workload(100, 2, 3, 505);
  std::vector<double> values(w.tree.size());
  std::iota(values.begin(), values.end(), 0.0);
  const auto a = run_convergecast(w.tree, values, sim::LatencyModel::uniform(0.01, 0.2), 9);
  const auto b = run_convergecast(w.tree, values, sim::LatencyModel::uniform(0.01, 0.2), 9);
  EXPECT_DOUBLE_EQ(a.root_value, b.root_value);
  EXPECT_DOUBLE_EQ(a.completion_time, b.completion_time);
  // Aggregation is order-independent: jitter cannot change the result.
  const auto c = run_convergecast(w.tree, values, sim::LatencyModel::uniform(0.01, 0.2), 77);
  EXPECT_DOUBLE_EQ(a.root_value, c.root_value);
}

}  // namespace
}  // namespace geomcast::stability
