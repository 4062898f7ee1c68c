// Quiescence invariants: what a drained pub/sub run must no longer hold.
// Every hop the reliability layers carried ends acked, abandoned, or
// dropped with its dead sender, so once the simulator is idle no layer
// (data, graft, replica, coord) may still hold a pending hop. The cells
// cross the QoS ladder with data-plane loss, churn and a warm root kill:
// loss drives retransmission and budget exhaustion, churn and the kill
// leave senders dead with hops in flight.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "groups/failure_injection.hpp"
#include "groups/pubsub.hpp"
#include "groups_test_util.hpp"
#include "util/rng.hpp"

namespace geomcast::groups {
namespace {

using testutil::make_overlay;
using testutil::subscribe_members;

struct Cell {
  multicast::QoS qos;
  bool lossy;
  bool churn;
  bool root_kill;  // warm failover on, and group 0's root killed mid-wave

  [[nodiscard]] std::string name() const {
    return "qos=" + std::to_string(static_cast<int>(qos)) + " loss=" + (lossy ? "5%" : "0") +
           " churn=" + (churn ? "on" : "off") + " root_kill=" + (root_kill ? "warm" : "off");
  }
};

TEST(GroupsQuiescenceTest, NoPendingHopsOnceTheRunDrains) {
  const auto graph = make_overlay(150, 2, 1402);
  for (const auto qos : {multicast::QoS::kFireAndForget, multicast::QoS::kAcked,
                         multicast::QoS::kEndToEnd}) {
    for (const bool lossy : {false, true}) {
      for (const bool churn : {false, true}) {
        for (const bool root_kill : {false, true}) {
          const Cell cell{qos, lossy, churn, root_kill};
          SCOPED_TRACE(cell.name());
          PubSubConfig config;
          config.seed = 73;
          config.reliability.qos = qos;
          config.reliability.ack_timeout = 0.05;
          config.reliability.max_retries = 3;
          config.loss.drop_probability = lossy ? 0.05 : 0.0;
          config.warm_failover = root_kill;
          PubSubSystem system(graph, config);

          std::vector<bool> member_anywhere(graph.size(), false);
          std::vector<PeerId> members;
          for (const GroupId g : {GroupId{0}, GroupId{1}})
            for (const PeerId m : subscribe_members(system, graph, g, 12, 73 + g)) {
              member_anywhere[m] = true;
              members.push_back(m);
            }
          // Group 0 as in the failover battery: root publishes around the
          // kill at 5.0, then a member publishes to the promoted root.
          const PeerId root = system.manager().root_of(0);
          for (const double t : {2.0, 2.3, 5.0}) system.publish_at(t, root, 0);
          for (const double t : {6.0, 6.3}) system.publish_at(t, members[0], 0);
          for (const double t : {2.1, 4.0, 6.1})
            system.publish_at(t, system.manager().root_of(1), 1);
          if (root_kill) {
            schedule_root_kill(system, 0, 5.0, member_anywhere,
                               [](PeerId, PeerId, std::size_t) {});
          }
          if (churn) {
            // Non-member, non-root departures spread over the publishes,
            // so relays die with hops pending toward and from them.
            util::Rng rng(7);
            for (int i = 0; i < 6; ++i) {
              PeerId victim;
              do {
                victim = static_cast<PeerId>(rng.next_below(graph.size()));
              } while (member_anywhere[victim] || victim == root ||
                       victim == system.manager().root_of(1));
              system.depart_at(2.0 + 0.7 * i, victim);
            }
          }
          system.run();

          // The cell exercised what it names...
          EXPECT_GT(system.hop_stats().data_messages, 0u);
          if (lossy && multicast::requires_ack(qos)) {
            EXPECT_GT(system.hop_stats().retransmissions, 0u);
          }
          if (root_kill) {
            EXPECT_EQ(system.total_stats().warm_promotions, 1u);
          }
          // ...and left nothing pending.
          EXPECT_EQ(system.pending_hops(), 0u);
          for (PeerId p = 0; p < graph.size(); ++p)
            ASSERT_EQ(system.data_hops().pending_to(p), 0u) << "receiver " << p;
        }
      }
    }
  }
}

}  // namespace
}  // namespace geomcast::groups
