#include "groups/pubsub.hpp"

#include <gtest/gtest.h>

#include "scenario/scenario.hpp"
#include "util/rng.hpp"

namespace geomcast::groups {
namespace {

using scenario::make_overlay;

TEST(PubSubSystemTest, LosslessDeliveryReachesEverySubscriber) {
  const auto graph = make_overlay(60, 2, 301).graph;
  PubSubSystem system(graph);
  const std::vector<GroupId> gs{5, 6, 7};
  std::map<GroupId, std::vector<PeerId>> members;
  for (GroupId g : gs) {
    util::Rng rng(40 + g);
    members[g] = scenario::subscribe_drawn(system, graph.size(), rng, g, 8);
  }
  for (GroupId g : gs) {
    system.publish_at(2.0, members[g].front(), g);
    system.publish_at(3.0, members[g].back(), g);
  }
  system.run();

  for (GroupId g : gs) {
    const auto& stats = system.stats(g);
    EXPECT_EQ(stats.subscribes, 8u) << "group " << g;
    EXPECT_EQ(stats.publishes, 2u) << "group " << g;
    EXPECT_EQ(stats.expected_deliveries, 16u) << "group " << g;
    EXPECT_EQ(stats.deliveries, 16u) << "group " << g;
    EXPECT_EQ(stats.duplicate_deliveries, 0u) << "group " << g;
    EXPECT_GT(stats.control_messages, 0u) << "group " << g;
    EXPECT_GT(stats.payload_messages, 0u) << "group " << g;
    EXPECT_EQ(stats.stranded_messages, 0u) << "group " << g;
    EXPECT_DOUBLE_EQ(stats.delivery_ratio(), 1.0) << "group " << g;
  }
  // The pruned trees beat whole-overlay dissemination per publish.
  const auto total = system.total_stats();
  EXPECT_LT(total.payload_messages / total.publishes, graph.size() - 1);
}

TEST(PubSubSystemTest, DeterministicUnderFixedSeed) {
  const auto graph = make_overlay(50, 2, 302).graph;
  auto run_once = [&]() {
    PubSubConfig config;
    config.seed = 9;
    config.loss.drop_probability = 0.1;
    PubSubSystem system(graph, config);
    util::Rng rng(77);
    const auto members = scenario::subscribe_drawn(system, graph.size(), rng, 1, 10);
    system.publish_at(2.0, members[0], 1);
    system.publish_at(2.5, members[5], 1);
    system.run();
    return std::make_tuple(system.stats(1).deliveries, system.stats(1).payload_messages,
                           system.stats(1).control_messages,
                           system.simulator().stats().dropped);
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(PubSubSystemTest, LossSurfacesAsMissingDeliveries) {
  const auto graph = make_overlay(60, 2, 303).graph;
  PubSubConfig config;
  config.seed = 4;
  config.loss.drop_probability = 0.25;
  PubSubSystem system(graph, config);
  util::Rng rng(55);
  const auto members = scenario::subscribe_drawn(system, graph.size(), rng, 2, 12);
  for (int i = 0; i < 6; ++i)
    system.publish_at(2.0 + 0.5 * i, members[static_cast<std::size_t>(i)], 2);
  system.run();

  EXPECT_GT(system.simulator().stats().dropped, 0u);
  const auto& stats = system.stats(2);
  // Lost subscribes shrink the expected set; lost payload hops shrink
  // deliveries below it. Either way the accounting must stay consistent.
  EXPECT_LE(stats.deliveries, stats.expected_deliveries);
  EXPECT_LT(stats.delivery_ratio(), 1.0);
}

TEST(PubSubSystemTest, ChurnRepairsAndKeepsDelivering) {
  const auto graph = make_overlay(80, 2, 304).graph;
  PubSubSystem system(graph);
  const GroupId g = 3;
  util::Rng rng(66);
  const auto members = scenario::subscribe_drawn(system, graph.size(), rng, g, 10);
  system.publish_at(2.0, members[0], g);
  system.depart_at(3.0, members[1]);
  system.publish_at(4.0, members[2], g);
  system.run();

  EXPECT_FALSE(system.manager().alive(members[1]));
  EXPECT_EQ(system.manager().subscriber_count(g), 9u);
  const auto& stats = system.stats(g);
  EXPECT_EQ(stats.expected_deliveries, 19u);  // 10 then 9
  EXPECT_EQ(stats.deliveries, 19u);
  EXPECT_DOUBLE_EQ(stats.delivery_ratio(), 1.0);
  EXPECT_GE(stats.repairs + stats.tree_builds, 2u);  // mended or rebuilt after churn
}

TEST(PubSubSystemTest, SubscribeInFlightWhenOriginDepartsIsIgnored) {
  // The subscribe envelope outlives its sender: it must be discarded at
  // the root, not crash the run or register a dead subscriber.
  const auto graph = make_overlay(60, 2, 306).graph;
  PubSubSystem system(graph);
  const GroupId g = 4;
  const PeerId root = system.manager().root_of(g);
  const PeerId peer = root == 0 ? 1 : 0;
  system.subscribe_at(0.0, peer, g);
  system.depart_at(0.005, peer);  // before the first 0.01-latency hop lands
  EXPECT_NO_THROW(system.run());
  EXPECT_EQ(system.manager().subscriber_count(g), 0u);
}

TEST(PubSubSystemTest, RootDepartingUnderAnInFlightPublishIgnoresIt) {
  // The publish envelope is already addressed to the root when the root
  // departs: the dead root must not process it (no publish counted, no
  // rebuild triggered, accounting stays at ratio 1).
  const auto graph = make_overlay(60, 2, 307).graph;
  PubSubSystem system(graph);
  const GroupId g = 9;
  util::Rng rng(88);
  const auto members = scenario::subscribe_drawn(system, graph.size(), rng, g, 6);
  system.publish_at(2.0, members[0], g);

  const PeerId root = system.manager().root_of(g);
  const PeerId adjacent = graph.neighbors(root).front();
  system.publish_at(5.0, adjacent, g);  // one hop: lands at 5.01
  system.depart_at(5.005, root);        // root dies with the envelope in flight
  system.run();

  const auto& stats = system.stats(g);
  EXPECT_EQ(stats.publishes, 1u);  // only the warm publish
  EXPECT_EQ(stats.root_migrations, 1u);
  EXPECT_DOUBLE_EQ(stats.delivery_ratio(), 1.0);
}

TEST(PubSubSystemTest, PublishToEmptyGroupIsHarmless) {
  const auto graph = make_overlay(40, 2, 305).graph;
  PubSubSystem system(graph);
  system.publish_at(1.0, 0, 8);
  system.run();
  const auto& stats = system.stats(8);
  EXPECT_EQ(stats.publishes, 1u);
  EXPECT_EQ(stats.deliveries, 0u);
  EXPECT_DOUBLE_EQ(stats.delivery_ratio(), 1.0);
}

}  // namespace
}  // namespace geomcast::groups
