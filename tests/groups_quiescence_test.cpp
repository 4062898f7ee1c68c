// Quiescence invariants: what a drained pub/sub run must no longer hold.
// Every hop the reliability layers carried ends acked, abandoned, or
// dropped with its dead sender, so once the simulator is idle no layer
// (data, graft, replica, coord) may still hold a pending hop. The cells
// cross the QoS ladder with data-plane loss, churn and a warm root kill:
// loss drives retransmission and budget exhaustion, churn and the kill
// leave senders dead with hops in flight.
//
// The same holds for QoS 2 gap state: at quiescence every gap a live
// subscriber detected was repaired or abandoned, and no gap timer is
// armed. A gap stays open only in the window of a subscriber that departed
// with it open: its timer fired once, found the peer dead and stopped.
// (perfbench's repair_qos2 ends each of seeds 1-3 with exactly one such
// window, one gap each; AGapStaysOpenOnlyInADepartedSubscribersWindow
// builds one on purpose.)
#include <gtest/gtest.h>

#include <any>
#include <string>
#include <vector>

#include "groups/failure_injection.hpp"
#include "groups/pubsub.hpp"
#include "scenario/scenario.hpp"
#include "util/rng.hpp"

namespace geomcast::groups {
namespace {

using scenario::make_overlay;
using scenario::subscribe_members;

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
  const auto graph = make_overlay(150, 2, 1402).graph;
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
          std::vector<bool> member_anywhere(graph.size(), false);  // read in run()
          const auto schedule = [&](PubSubSystem& system) {
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
          };
          // What the drained run must no longer hold.
          const auto drained = [&](PubSubSystem& system) {
            EXPECT_EQ(system.pending_hops(), 0u);
            for (PeerId p = 0; p < graph.size(); ++p)
              ASSERT_EQ(system.data_hops().pending_to(p), 0u) << "receiver " << p;
            for (const auto& open : system.open_gap_windows()) {
              EXPECT_FALSE(system.manager().alive(open.peer))
                  << "peer " << open.peer << " group " << open.group << " holds "
                  << open.gaps << " open gaps";
              EXPECT_FALSE(open.timer_armed)
                  << "peer " << open.peer << " group " << open.group;
            }
          };
          const scenario::CellResult run =
              scenario::run_cell(graph, config, schedule, {.harvest = drained});

          // The cell exercised what it names.
          EXPECT_GT(run.hop.data_messages, 0u);
          if (lossy && multicast::requires_ack(qos)) {
            EXPECT_GT(run.hop.retransmissions, 0u);
          }
          if (root_kill) {
            EXPECT_EQ(run.total.warm_promotions, 1u);
          }
        }
      }
    }
  }
}

/// The open gap the invariant allows, made on purpose: seq 1 never reaches
/// a leaf subscriber, seq 2's arrival opens the gap, and the subscriber
/// departs while per-hop recovery still owns it. At quiescence its window
/// is the only one with a gap open: one seq, no timer armed, and the gap
/// counts detected = repaired + abandoned + 1.
TEST(GroupsQuiescenceTest, AGapStaysOpenOnlyInADepartedSubscribersWindow) {
  const auto graph = make_overlay(120, 2, 1201).graph;
  const GroupId g = 0;
  const std::uint64_t seed = 37;
  const std::size_t publishes = 4;
  const PeerId victim = scenario::find_leaf_subscriber(graph, g, 10, seed, publishes);
  ASSERT_NE(victim, kInvalidPeer);
  PubSubConfig config;
  config.seed = seed;
  config.reliability.qos = multicast::QoS::kEndToEnd;
  config.reliability.ack_timeout = 0.05;
  config.reliability.max_retries = 5;
  config.loss.drop_if = [victim](const sim::Envelope& e) {
    return e.kind == kDeliverKind && e.to == victim &&
           std::any_cast<const DeliveryPtr&>(e.payload)->seq == 1;
  };
  PubSubSystem system(graph, config);
  const auto members = subscribe_members(system, graph, g, 10, seed);
  for (std::size_t i = 0; i < publishes; ++i)
    system.publish_at(2.0 + 0.1 * static_cast<double>(i), members[0], g);
  system.depart_at(2.45, victim);  // gap open from ~2.33 until ~2.55
  system.run();

  EXPECT_EQ(system.pending_hops(), 0u);
  const auto open = system.open_gap_windows();
  ASSERT_EQ(open.size(), 1u);
  EXPECT_EQ(open[0].peer, victim);
  EXPECT_EQ(open[0].group, g);
  EXPECT_EQ(open[0].gaps, 1u);
  EXPECT_FALSE(open[0].timer_armed);
  EXPECT_FALSE(system.manager().alive(victim));
  const GroupStats& stats = system.stats(g);
  EXPECT_EQ(stats.gap_seqs_detected, stats.gap_seqs_repaired + stats.gap_seqs_abandoned + 1);
}

}  // namespace
}  // namespace geomcast::groups
