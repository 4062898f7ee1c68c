#include "multicast/dissemination.hpp"

#include <gtest/gtest.h>

#include "geometry/random_points.hpp"
#include "multicast/space_partition.hpp"
#include "overlay/empty_rect.hpp"
#include "overlay/equilibrium.hpp"
#include "util/rng.hpp"

namespace geomcast::multicast {
namespace {

MulticastTree make_tree(std::size_t n, std::size_t dims, std::uint64_t seed,
                        overlay::PeerId root = 0) {
  util::Rng rng(seed);
  const auto points = geometry::random_points(rng, n, dims, 100.0);
  const auto graph = overlay::build_equilibrium(points, overlay::EmptyRectSelector{});
  return build_multicast_tree(graph, root).tree;
}

TEST(DisseminationTest, LosslessDeliversWithNMinus1DataMessages) {
  const auto tree = make_tree(120, 2, 71);
  const auto result = run_dissemination(tree);
  EXPECT_TRUE(result.all_delivered(tree.peer_count()));
  EXPECT_EQ(result.data_messages, tree.peer_count() - 1);
  EXPECT_EQ(result.ack_messages, tree.peer_count() - 1);
  EXPECT_EQ(result.retransmissions, 0u);
  EXPECT_EQ(result.duplicate_data, 0u);
  EXPECT_EQ(result.abandoned_hops, 0u);
}

TEST(DisseminationTest, DeliveryTimesMatchDepthUnderConstantLatency) {
  const auto tree = make_tree(100, 2, 72);
  const auto result = run_dissemination(tree, {}, sim::LatencyModel::constant(1.0));
  const auto depths = tree.depths();
  for (PeerId p = 0; p < tree.peer_count(); ++p) {
    ASSERT_NE(depths[p], MulticastTree::kUnreachedDepth);
    EXPECT_DOUBLE_EQ(result.delivery_time[p], static_cast<double>(depths[p]));
  }
  EXPECT_DOUBLE_EQ(result.completion_time,
                   static_cast<double>(tree.max_root_to_leaf_path()));
}

TEST(DisseminationTest, SurvivesHeavyLossWithRetries) {
  const auto tree = make_tree(100, 2, 73);
  DisseminationConfig config;
  config.max_retries = 25;
  config.ack_timeout = 0.05;
  sim::LossModel loss;
  loss.drop_probability = 0.3;
  const auto result =
      run_dissemination(tree, config, sim::LatencyModel::constant(0.01), loss, 7);
  EXPECT_TRUE(result.all_delivered(tree.peer_count()))
      << "only " << result.delivered << "/" << tree.peer_count();
  EXPECT_GT(result.retransmissions, 0u);
  EXPECT_EQ(result.abandoned_hops, 0u);
}

TEST(DisseminationTest, FireAndForgetLosesSubtreesUnderLoss) {
  const auto tree = make_tree(100, 2, 74);
  DisseminationConfig config;
  config.max_retries = 0;  // no reliability
  sim::LossModel loss;
  loss.drop_probability = 0.3;
  const auto result =
      run_dissemination(tree, config, sim::LatencyModel::constant(0.01), loss, 8);
  EXPECT_LT(result.delivered, tree.peer_count());
  EXPECT_GT(result.abandoned_hops, 0u);
  // Never-reached peers keep the sentinel delivery time.
  bool missing_sentinel = false;
  for (PeerId p = 0; p < tree.peer_count(); ++p)
    if (result.delivery_time[p] < 0.0) missing_sentinel = true;
  EXPECT_TRUE(missing_sentinel);
}

TEST(DisseminationTest, DuplicatesAreAckedButNotReforwarded) {
  // Drop every first ack: the sender retransmits, the receiver sees a
  // duplicate, re-acks, and the payload still reaches everyone exactly as
  // one logical copy.
  const auto tree = make_tree(60, 2, 75);
  DisseminationConfig config;
  config.max_retries = 10;
  config.ack_timeout = 0.05;
  std::uint64_t acks_seen = 0;
  sim::LossModel loss;
  loss.drop_if = [&acks_seen](const sim::Envelope& e) {
    if (e.kind != kAckKind) return false;
    return (acks_seen++ % 2) == 0;  // every other ack vanishes
  };
  const auto result =
      run_dissemination(tree, config, sim::LatencyModel::constant(0.01), loss, 9);
  EXPECT_TRUE(result.all_delivered(tree.peer_count()));
  EXPECT_GT(result.duplicate_data, 0u);
  EXPECT_EQ(result.abandoned_hops, 0u);
}

TEST(DisseminationTest, TargetedLinkFailureAbandonsOneSubtree) {
  const auto tree = make_tree(80, 2, 76);
  // Pick a child of the root and kill its incoming data link entirely.
  ASSERT_FALSE(tree.children(tree.root()).empty());
  const PeerId victim = *tree.children(tree.root()).begin();
  DisseminationConfig config;
  config.max_retries = 3;
  config.ack_timeout = 0.05;
  sim::LossModel loss;
  loss.drop_if = [victim](const sim::Envelope& e) {
    return e.kind == kDataKind && e.to == victim;
  };
  const auto result =
      run_dissemination(tree, config, sim::LatencyModel::constant(0.01), loss, 10);
  EXPECT_FALSE(result.all_delivered(tree.peer_count()));
  EXPECT_LT(result.delivery_time[victim], 0.0);
  EXPECT_EQ(result.retransmissions, config.max_retries);  // only that hop retried
  EXPECT_EQ(result.abandoned_hops, 1u);
}

TEST(DisseminationTest, DeterministicUnderSeededLoss) {
  const auto tree = make_tree(80, 3, 77);
  DisseminationConfig config;
  config.max_retries = 5;
  sim::LossModel loss;
  loss.drop_probability = 0.2;
  const auto a = run_dissemination(tree, config, sim::LatencyModel::constant(0.01), loss, 4);
  const auto b = run_dissemination(tree, config, sim::LatencyModel::constant(0.01), loss, 4);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.data_messages, b.data_messages);
  EXPECT_EQ(a.delivery_time, b.delivery_time);
}

}  // namespace
}  // namespace geomcast::multicast
