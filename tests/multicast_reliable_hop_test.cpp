#include "multicast/reliable_hop.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "sim/node.hpp"
#include "util/rng.hpp"

namespace geomcast::multicast {
namespace {

constexpr sim::MessageKind kTestDataKind = 41;
constexpr sim::MessageKind kTestAckKind = 42;

class Harness;

/// Minimal receiver: counts arrivals per seq, re-acks every one (the
/// protocol's receiver obligation) unless told not to, and reports
/// client-side duplicate suppression like a real payload path would.
class HopNode final : public sim::Node {
 public:
  HopNode(sim::NodeId id, Harness& harness) : sim::Node(id), harness_(harness) {}
  void on_message(sim::Simulator& sim, const sim::Envelope& envelope) override;

  bool auto_ack = true;
  std::map<std::uint64_t, int> arrivals;  // copies seen per seq

 private:
  Harness& harness_;
};

class Harness {
 public:
  Harness(std::size_t n, ReliabilityConfig config, ReliableHopLayer::Hooks hooks = {},
          std::uint64_t seed = 1)
      : sim(seed) {
    for (sim::NodeId i = 0; i < n; ++i) {
      nodes.push_back(std::make_unique<HopNode>(i, *this));
      sim.add_node(*nodes[i]);
    }
    layer = std::make_unique<ReliableHopLayer>(sim, kTestDataKind, kTestAckKind, config,
                                               std::move(hooks));
  }

  sim::Simulator sim;
  std::vector<std::unique_ptr<HopNode>> nodes;
  std::unique_ptr<ReliableHopLayer> layer;
};

void HopNode::on_message(sim::Simulator&, const sim::Envelope& envelope) {
  if (envelope.kind == kTestAckKind) {
    harness_.layer->on_ack(envelope);
    return;
  }
  ASSERT_EQ(envelope.kind, kTestDataKind);
  const auto seq = std::any_cast<std::uint64_t>(envelope.payload);
  ++arrivals[seq];
  if (auto_ack) harness_.layer->acknowledge(id(), envelope.from, seq);
}

TEST(ReliableHopTest, AckBeforeTimeoutMeansNoRetransmission) {
  Harness h(2, ReliabilityConfig{QoS::kAcked, 0.25, 5});
  h.sim.schedule_at(0.0, [&]() { h.layer->send(0, 1, 7, std::uint64_t{7}); });
  h.sim.run_until_idle();

  EXPECT_EQ(h.nodes[1]->arrivals[7], 1);
  const auto& stats = h.layer->stats();
  EXPECT_EQ(stats.data_messages, 1u);
  EXPECT_EQ(stats.ack_messages, 1u);
  EXPECT_EQ(stats.retransmissions, 0u);
  EXPECT_EQ(stats.abandoned_hops, 0u);
  EXPECT_EQ(h.layer->pending(), 0u);
  // The ack cancelled the timer, so the run ends at the ack's arrival.
  EXPECT_DOUBLE_EQ(h.sim.now(), 0.02);
}

TEST(ReliableHopTest, PendingSeqCannotBeSentTwiceUntilItsAckRetiresIt) {
  Harness h(2, ReliabilityConfig{QoS::kAcked, 0.25, 5});
  h.sim.schedule_at(0.0, [&]() {
    h.layer->send(0, 1, 7, std::uint64_t{7});
    EXPECT_THROW(h.layer->send(0, 1, 7, std::uint64_t{7}), std::logic_error);
    EXPECT_EQ(h.layer->pending(), 1u);
  });
  h.sim.run_until_idle();
  EXPECT_EQ(h.nodes[1]->arrivals[7], 1);
  EXPECT_EQ(h.layer->pending(), 0u);

  // The ack retired (0, 1, 7): the same key is a fresh hop again.
  h.sim.schedule_at(h.sim.now(), [&]() {
    EXPECT_NO_THROW(h.layer->send(0, 1, 7, std::uint64_t{7}));
    EXPECT_EQ(h.layer->pending(), 1u);
  });
  h.sim.run_until_idle();
  EXPECT_EQ(h.nodes[1]->arrivals[7], 2);
  EXPECT_EQ(h.layer->pending(), 0u);
  EXPECT_EQ(h.layer->stats().data_messages, 2u);
  EXPECT_EQ(h.layer->stats().retransmissions, 0u);
}

TEST(ReliableHopTest, LostDataIsRetransmittedUntilDelivered) {
  Harness h(2, ReliabilityConfig{QoS::kAcked, 0.05, 5});
  std::uint64_t data_seen = 0;
  sim::LossModel loss;
  loss.drop_if = [&data_seen](const sim::Envelope& e) {
    return e.kind == kTestDataKind && data_seen++ == 0;  // first copy vanishes
  };
  h.sim.network().set_loss(std::move(loss));
  h.sim.schedule_at(0.0, [&]() { h.layer->send(0, 1, 1, std::uint64_t{1}); });
  h.sim.run_until_idle();

  EXPECT_EQ(h.nodes[1]->arrivals[1], 1);
  EXPECT_EQ(h.layer->stats().data_messages, 2u);
  EXPECT_EQ(h.layer->stats().retransmissions, 1u);
  EXPECT_EQ(h.layer->stats().abandoned_hops, 0u);
  // The transport saw both copies and dropped the first.
  EXPECT_EQ(h.sim.stats().sent_by_kind.at(kTestDataKind), 2u);
  EXPECT_EQ(h.sim.stats().dropped, 1u);
}

TEST(ReliableHopTest, DuplicateFromLostAckIsReackedAndSenderStops) {
  // The data gets through but the first ack is lost: the retransmission
  // arrives as a duplicate, the receiver re-acks it, and the sender stops
  // well inside its budget.
  Harness h(2, ReliabilityConfig{QoS::kAcked, 0.05, 5});
  std::uint64_t acks_seen = 0;
  sim::LossModel loss;
  loss.drop_if = [&acks_seen](const sim::Envelope& e) {
    return e.kind == kTestAckKind && acks_seen++ == 0;
  };
  h.sim.network().set_loss(std::move(loss));
  h.sim.schedule_at(0.0, [&]() { h.layer->send(0, 1, 3, std::uint64_t{3}); });
  h.sim.run_until_idle();

  EXPECT_EQ(h.nodes[1]->arrivals[3], 2);  // original + retransmission
  const auto& stats = h.layer->stats();
  EXPECT_EQ(stats.data_messages, 2u);
  EXPECT_EQ(stats.retransmissions, 1u);
  EXPECT_EQ(stats.ack_messages, 2u);  // every arrival acked, duplicate included
  EXPECT_EQ(stats.abandoned_hops, 0u);
  EXPECT_EQ(h.layer->pending(), 0u);
  EXPECT_EQ(h.sim.stats().sent_by_kind.at(kTestAckKind), 2u);
  EXPECT_EQ(h.sim.stats().dropped, 1u);
}

TEST(ReliableHopTest, RetryBudgetExhaustionAbandonsTheHop) {
  std::size_t abandoned_calls = 0;
  ReliableHopLayer::Hooks hooks;
  hooks.on_abandon = [&abandoned_calls](sim::NodeId from, sim::NodeId to,
                                        std::uint64_t seq, const std::any& payload) {
    ++abandoned_calls;
    EXPECT_EQ(from, 0u);
    EXPECT_EQ(to, 1u);
    EXPECT_EQ(seq, 9u);
    EXPECT_EQ(std::any_cast<std::uint64_t>(payload), 9u);
  };
  Harness h(2, ReliabilityConfig{QoS::kAcked, 0.05, 3}, std::move(hooks));
  sim::LossModel loss;
  loss.drop_if = [](const sim::Envelope& e) { return e.kind == kTestDataKind; };
  h.sim.network().set_loss(std::move(loss));
  h.sim.schedule_at(0.0, [&]() { h.layer->send(0, 1, 9, std::uint64_t{9}); });
  h.sim.run_until_idle();

  EXPECT_EQ(h.nodes[1]->arrivals.count(9), 0u);
  const auto& stats = h.layer->stats();
  EXPECT_EQ(stats.data_messages, 4u);  // first try + 3 retries
  EXPECT_EQ(stats.retransmissions, 3u);
  EXPECT_EQ(stats.abandoned_hops, 1u);
  EXPECT_EQ(abandoned_calls, 1u);
  EXPECT_EQ(h.layer->pending(), 0u);
  EXPECT_EQ(h.sim.stats().sent_by_kind.at(kTestDataKind), 4u);
  EXPECT_EQ(h.sim.stats().dropped, 4u);
}

TEST(ReliableHopTest, QoSZeroIsExactlyOnePlainSend) {
  Harness h(2, ReliabilityConfig{QoS::kFireAndForget, 0.05, 5});
  h.sim.schedule_at(0.0, [&]() { h.layer->send(0, 1, 5, std::uint64_t{5}); });
  h.sim.run_until_idle();

  EXPECT_EQ(h.nodes[1]->arrivals[5], 1);
  EXPECT_EQ(h.sim.stats().sent, 1u);  // no ack ever crossed the network
  EXPECT_EQ(h.sim.stats().sent_by_kind.count(kTestAckKind), 0u);
  const auto& stats = h.layer->stats();
  EXPECT_EQ(stats.data_messages, 1u);
  EXPECT_EQ(stats.ack_messages, 0u);  // acknowledge() was a no-op
  EXPECT_EQ(stats.retransmissions, 0u);
  EXPECT_EQ(stats.abandoned_hops, 0u);
  EXPECT_EQ(h.layer->pending(), 0u);
  // No timers were armed: the simulation ends the instant the data lands.
  EXPECT_DOUBLE_EQ(h.sim.now(), 0.01);
}

TEST(ReliableHopTest, LateAckAfterAbandonmentIsIgnored) {
  Harness h(2, ReliabilityConfig{QoS::kAcked, 0.05, 1});
  sim::LossModel loss;
  loss.drop_if = [](const sim::Envelope& e) { return e.kind == kTestAckKind; };
  h.sim.network().set_loss(std::move(loss));
  h.sim.schedule_at(0.0, [&]() { h.layer->send(0, 1, 2, std::uint64_t{2}); });
  h.sim.run_until_idle();
  ASSERT_EQ(h.layer->stats().abandoned_hops, 1u);
  ASSERT_EQ(h.layer->pending(), 0u);

  // An ack for the retired hop straggles in after the fact.
  sim::Envelope late{1, 0, kTestAckKind, HopAck{2}};
  EXPECT_NO_THROW(h.layer->on_ack(late));
  EXPECT_EQ(h.layer->pending(), 0u);
  EXPECT_EQ(h.layer->stats().abandoned_hops, 1u);
}

TEST(ReliableHopTest, DistinctSeqsOnTheSameLinkDoNotInterfere) {
  Harness h(2, ReliabilityConfig{QoS::kAcked, 0.05, 5});
  std::uint64_t data_seen = 0;
  sim::LossModel loss;
  loss.drop_if = [&data_seen](const sim::Envelope& e) {
    return e.kind == kTestDataKind && data_seen++ == 0;  // seq 1's first copy only
  };
  h.sim.network().set_loss(std::move(loss));
  h.sim.schedule_at(0.0, [&]() {
    h.layer->send(0, 1, 1, std::uint64_t{1});
    h.layer->send(0, 1, 2, std::uint64_t{2});
  });
  h.sim.run_until_idle();

  // seq 2's ack must not cancel seq 1's retransmission cycle.
  EXPECT_EQ(h.nodes[1]->arrivals[1], 1);
  EXPECT_EQ(h.nodes[1]->arrivals[2], 1);
  EXPECT_EQ(h.layer->stats().retransmissions, 1u);
  EXPECT_EQ(h.layer->stats().abandoned_hops, 0u);
  EXPECT_EQ(h.layer->pending(), 0u);
}

TEST(ReliableHopTest, DeadSenderStopsRetransmittingWithoutAbandonment) {
  bool alive = true;
  ReliableHopLayer::Hooks hooks;
  hooks.sender_alive = [&alive](sim::NodeId) { return alive; };
  Harness h(2, ReliabilityConfig{QoS::kAcked, 0.05, 5}, std::move(hooks));
  sim::LossModel loss;
  loss.drop_if = [](const sim::Envelope& e) { return e.kind == kTestDataKind; };
  h.sim.network().set_loss(std::move(loss));
  h.sim.schedule_at(0.0, [&]() { h.layer->send(0, 1, 4, std::uint64_t{4}); });
  h.sim.schedule_at(0.03, [&]() { alive = false; });  // dies before the timeout
  h.sim.run_until_idle();

  const auto& stats = h.layer->stats();
  EXPECT_EQ(stats.data_messages, 1u);
  EXPECT_EQ(stats.retransmissions, 0u);
  EXPECT_EQ(stats.abandoned_hops, 0u);  // churn, not budget exhaustion
  EXPECT_EQ(h.layer->pending(), 0u);
}

TEST(ReliableHopTest, ReusingAPendingSeqOnTheSameHopThrows) {
  Harness h(2, ReliabilityConfig{QoS::kAcked, 0.25, 5});
  h.sim.schedule_at(0.0, [&]() {
    h.layer->send(0, 1, 6, std::uint64_t{6});
    EXPECT_THROW(h.layer->send(0, 1, 6, std::uint64_t{6}), std::logic_error);
  });
  h.sim.run_until_idle();
  EXPECT_EQ(h.layer->stats().data_messages, 1u);
}

// ---------------------------------------------------------------------------
// Differential battery: the layer's slab + index against a std::map model.
// The model is fed by the client's own actions and by the layer's hooks,
// and every hook checks the hop it names against the model: the hop is
// pending, its payload is its own, and its timer fires exactly one
// ack_timeout after its last transmission. A timer or retire that reaches
// the wrong slab cell breaks one of those checks or the per-step counts.
// ---------------------------------------------------------------------------

constexpr sim::MessageKind kTestOverrideKind = 43;

class SlabModelTest {
 public:
  static constexpr std::size_t kNodes = 16;
  static constexpr std::uint64_t kSeqs = 2;  // 16 * 15 * 2 = 480 keys
  static constexpr double kTimeout = 0.05;
  static constexpr std::size_t kRetries = 2;

  using Key = std::tuple<sim::NodeId, sim::NodeId, std::uint64_t>;
  struct Hop {
    sim::MessageKind wire = kTestDataKind;
    std::size_t attempt = 0;
    double deadline = 0.0;
    std::uint64_t armed = 0;  // arming order: same-delay timers fire in it
  };

  class Node final : public sim::Node {
   public:
    Node(sim::NodeId id, SlabModelTest& test) : sim::Node(id), test_(test) {}
    void on_message(sim::Simulator&, const sim::Envelope& envelope) override {
      test_.on_message(envelope);
    }

   private:
    SlabModelTest& test_;
  };

  explicit SlabModelTest(std::uint64_t seed) : sim(seed), rng(seed) {
    for (sim::NodeId i = 0; i < kNodes; ++i) {
      nodes.push_back(std::make_unique<Node>(i, *this));
      sim.add_node(*nodes.back());
    }
    alive.assign(kNodes, true);
    deaf.assign(kNodes, false);
    deaf[3] = deaf[11] = true;  // never ack: their hops exhaust the budget
    sim::LossModel loss;
    loss.drop_if = [this](const sim::Envelope& e) {
      return rng.next_double() < (e.kind == kTestAckKind ? 0.15 : 0.2);
    };
    sim.network().set_loss(std::move(loss));
    ReliableHopLayer::Hooks hooks;
    hooks.on_retransmit = [this](sim::NodeId from, sim::NodeId to, std::uint64_t seq,
                                 const std::any& payload) {
      Hop& hop = expect_due(from, to, seq, payload);
      EXPECT_LT(hop.attempt, kRetries);
      ++hop.attempt;
      ++model_stats.retransmissions;
      transmitted(hop);
    };
    hooks.on_abandon = [this](sim::NodeId from, sim::NodeId to, std::uint64_t seq,
                              const std::any& payload) {
      EXPECT_EQ(expect_due(from, to, seq, payload).attempt, kRetries);
      ++model_stats.abandoned_hops;
      model.erase(Key{from, to, seq});
      retired.push_back(Key{from, to, seq});
    };
    hooks.sender_alive = [this](sim::NodeId from) {
      if (alive[from]) return true;
      // A dead sender's earliest-armed hop is the one whose timer fired.
      auto first = model.end();
      for (auto it = model.begin(); it != model.end(); ++it)
        if (std::get<0>(it->first) == from &&
            (first == model.end() || it->second.armed < first->second.armed))
          first = it;
      EXPECT_NE(first, model.end()) << "timer fired for no pending hop of " << from;
      if (first != model.end()) {
        EXPECT_EQ(first->second.deadline, sim.now());
        retired.push_back(first->first);
        model.erase(first);
      }
      return false;
    };
    layer = std::make_unique<ReliableHopLayer>(
        sim, kTestDataKind, kTestAckKind,
        ReliabilityConfig{QoS::kAcked, kTimeout, kRetries}, std::move(hooks));
  }

  void on_message(const sim::Envelope& envelope) {
    if (envelope.kind == kTestAckKind) {
      model_ack(envelope);
      layer->on_ack(envelope);
      return;
    }
    if (deaf[envelope.to]) return;
    layer->acknowledge(envelope.to, envelope.from,
                       std::any_cast<std::uint64_t>(envelope.payload));
    ++model_stats.ack_messages;
    ++model_sent[kTestAckKind];
  }

  /// An ack reaching the sender retires the hop iff it is still pending.
  void model_ack(const sim::Envelope& envelope) {
    const Key key{envelope.to, envelope.from,
                  std::any_cast<const HopAck&>(envelope.payload).seq};
    if (model.erase(key) != 0) retired.push_back(key);
  }

  void send(sim::NodeId from, sim::NodeId to, std::uint64_t seq, bool override_kind) {
    const Key key{from, to, seq};
    const sim::MessageKind kind =
        override_kind ? kTestOverrideKind : ReliableHopLayer::kInvalidKind;
    if (model.count(key) != 0) {
      EXPECT_THROW(layer->send(from, to, seq, seq, kind), std::logic_error);
      return;
    }
    Hop& hop = model[key];
    hop.wire = override_kind ? kTestOverrideKind : kTestDataKind;
    transmitted(hop);
    layer->send(from, to, seq, seq, kind);
    ++sends;
  }

  /// An ack delivered straight to on_ack: a duplicate for a pending hop,
  /// or a late one for a hop already acked, abandoned or dropped.
  void inject_ack(const Key& key) {
    const auto [from, to, seq] = key;
    const sim::Envelope ack{to, from, kTestAckKind, HopAck{seq}};
    model_ack(ack);
    layer->on_ack(ack);
  }

  void check() const {
    ASSERT_EQ(layer->pending(), model.size());
    std::vector<std::size_t> to_count(kNodes, 0);
    for (const auto& [key, hop] : model) ++to_count[std::get<1>(key)];
    for (sim::NodeId r = 0; r < kNodes; ++r) ASSERT_EQ(layer->pending_to(r), to_count[r]);
    const HopStats& stats = layer->stats();
    ASSERT_EQ(stats.data_messages, model_stats.data_messages);
    ASSERT_EQ(stats.ack_messages, model_stats.ack_messages);
    ASSERT_EQ(stats.retransmissions, model_stats.retransmissions);
    ASSERT_EQ(stats.abandoned_hops, model_stats.abandoned_hops);
    ASSERT_EQ(sim.stats().sent_by_kind, model_sent);
  }

  sim::Simulator sim;
  util::Rng rng;
  std::vector<std::unique_ptr<Node>> nodes;
  std::unique_ptr<ReliableHopLayer> layer;
  std::vector<bool> alive, deaf;
  std::map<Key, Hop> model;
  std::vector<Key> retired;  // every hop the model saw leave, in order
  HopStats model_stats;
  std::map<sim::MessageKind, std::uint64_t> model_sent;
  std::size_t sends = 0;

 private:
  /// A hop the layer just (re)sent; its timer is armed next.
  void transmitted(Hop& hop) {
    hop.deadline = sim.now() + kTimeout;
    hop.armed = arms_++;
    ++model_stats.data_messages;
    ++model_sent[hop.wire];
  }
  /// The hook's hop: pending, carrying its own payload, its timer due now.
  Hop& expect_due(sim::NodeId from, sim::NodeId to, std::uint64_t seq,
                  const std::any& payload) {
    EXPECT_TRUE(alive[from]);
    EXPECT_EQ(std::any_cast<std::uint64_t>(payload), seq);
    auto it = model.find(Key{from, to, seq});
    if (it == model.end()) {
      ADD_FAILURE() << "hook for a hop that is not pending: " << from << "->" << to
                    << " seq " << seq;
      it = model.emplace(Key{from, to, seq}, Hop{}).first;  // keep going
    }
    EXPECT_EQ(it->second.deadline, sim.now()) << from << "->" << to << " seq " << seq;
    return it->second;
  }

  std::uint64_t arms_ = 0;
};

TEST(ReliableHopTest, PendingSlabMatchesAMapModel) {
  SlabModelTest t(29);
  std::size_t peak = 0;
  std::size_t late_acks = 0;
  for (int step = 0; step < 8000; ++step) {
    const std::uint64_t roll = t.rng.next_below(100);
    if (roll < 30 || (roll < 60 && t.sim.idle())) {
      // A burst of sends early on builds concurrency (index growth); later
      // steps trickle, so retired slots are reused.
      const int burst = step < 200 ? 4 : 1;
      for (int i = 0; i < burst; ++i) {
        const auto from = static_cast<sim::NodeId>(t.rng.next_below(t.kNodes));
        auto to = static_cast<sim::NodeId>(t.rng.next_below(t.kNodes - 1));
        if (to >= from) ++to;
        t.send(from, to, t.rng.next_below(t.kSeqs), t.rng.next_below(2) == 0);
      }
    } else if (roll < 34 && !t.model.empty()) {
      // Duplicate ack for a pending hop (its real ack, if any, arrives late).
      auto it = t.model.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(t.rng.next_below(t.model.size())));
      t.inject_ack(it->first);
    } else if (roll < 38 && !t.retired.empty()) {
      // Late ack for a retired hop: acked, abandoned or dropped dead.
      const SlabModelTest::Key key = t.retired[t.rng.next_below(t.retired.size())];
      late_acks += t.model.count(key) == 0 ? 1 : 0;
      t.inject_ack(key);
    } else if (roll == 38 && step > 1500 && t.rng.next_below(8) == 0) {
      t.alive[t.rng.next_below(t.kNodes)] = false;  // sender death, for good
    } else {
      t.sim.run_until_idle(1);
    }
    t.check();
    if (::testing::Test::HasFatalFailure()) return;
    peak = std::max(peak, t.layer->pending());
  }
  t.sim.run_until_idle();
  t.check();

  // The mix reached every path it is meant to cover.
  const HopStats& stats = t.layer->stats();
  EXPECT_GT(stats.retransmissions, 300u);
  EXPECT_GT(stats.abandoned_hops, 50u);
  EXPECT_GT(late_acks, 100u);
  EXPECT_GT(t.sim.stats().sent_by_kind.at(kTestOverrideKind), 500u);
  EXPECT_LT(std::count(t.alive.begin(), t.alive.end(), true), 16);
  // More than 32 pending at once grows the index 16 -> 32 -> 64 -> 128,
  // and many more sends than the peak means retired cells were reused.
  EXPECT_GT(peak, 32u);
  EXPECT_GT(t.sends, 5 * peak);
  EXPECT_EQ(t.layer->pending(), 0u);
}

}  // namespace
}  // namespace geomcast::multicast
