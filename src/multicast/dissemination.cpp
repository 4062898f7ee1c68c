#include "multicast/dissemination.hpp"

#include <memory>
#include <stdexcept>

#include "multicast/reliable_hop.hpp"
#include "sim/node.hpp"
#include "sim/simulator.hpp"

namespace geomcast::multicast {

namespace {

struct DataMsg {
  std::uint64_t seq = 0;
};

/// Thin client of the shared per-hop reliability layer: the layer owns the
/// ack/timeout/retransmit cycle, the node owns what dissemination adds —
/// the "payload held" dedup bit, delivery bookkeeping, and forwarding down
/// the tree.
class DisseminationNode final : public sim::Node {
 public:
  DisseminationNode(PeerId id, const MulticastTree& tree, ReliableHopLayer& hop,
                    DisseminationResult& shared)
      : sim::Node(id), tree_(tree), hop_(hop), shared_(shared) {}

  void on_message(sim::Simulator& sim, const sim::Envelope& envelope) override {
    switch (envelope.kind) {
      case kDataKind:
        handle_data(sim, envelope.from, std::any_cast<const DataMsg&>(envelope.payload));
        break;
      case kAckKind:
        hop_.on_ack(envelope);
        break;
      default:
        throw std::logic_error("DisseminationNode: unexpected message kind");
    }
  }

  /// Kicks off delivery at the root (no network hop for the root's copy).
  void deliver_locally(sim::Simulator& sim) {
    if (has_payload_) return;
    has_payload_ = true;
    ++shared_.delivered;
    shared_.delivery_time[id()] = sim.now();
    shared_.completion_time = sim.now();
    forward_to_children();
  }

 private:
  void handle_data(sim::Simulator& sim, PeerId from, const DataMsg& msg) {
    // Always (re-)ack: the previous ack may have been the lost message.
    hop_.acknowledge(id(), from, msg.seq);
    if (has_payload_) {
      ++shared_.duplicate_data;
      return;
    }
    deliver_locally(sim);
  }

  void forward_to_children() {
    for (PeerId child : tree_.children(id())) {
      // One transfer per tree edge, so the edge itself is the sequence.
      const std::uint64_t seq = (static_cast<std::uint64_t>(id()) << 32) | child;
      hop_.send(id(), child, seq, DataMsg{seq});
    }
  }

  const MulticastTree& tree_;
  ReliableHopLayer& hop_;
  DisseminationResult& shared_;
  bool has_payload_ = false;
};

}  // namespace

DisseminationResult run_dissemination(const MulticastTree& tree,
                                      const DisseminationConfig& config,
                                      sim::LatencyModel latency, sim::LossModel loss,
                                      std::uint64_t seed) {
  const std::size_t n = tree.peer_count();
  if (n == 0 || tree.root() == kInvalidPeer)
    throw std::invalid_argument("run_dissemination: tree has no root");

  DisseminationResult result;
  result.delivery_time.assign(n, -1.0);

  sim::Simulator sim(seed);
  sim.network().set_latency(latency);
  sim.network().set_loss(std::move(loss));

  ReliableHopLayer hop(sim, kDataKind, kAckKind,
                       ReliabilityConfig{QoS::kAcked, config.ack_timeout,
                                         config.max_retries});

  std::vector<std::unique_ptr<DisseminationNode>> nodes;
  nodes.reserve(n);
  for (PeerId p = 0; p < n; ++p) {
    nodes.push_back(std::make_unique<DisseminationNode>(p, tree, hop, result));
    sim.add_node(*nodes[p]);
  }
  sim.schedule_at(0.0, [&]() { nodes[tree.root()]->deliver_locally(sim); });
  sim.run_until_idle();

  const HopStats& hops = hop.stats();
  result.data_messages = hops.data_messages;
  result.ack_messages = hops.ack_messages;
  result.retransmissions = hops.retransmissions;
  result.abandoned_hops = hops.abandoned_hops;
  return result;
}

}  // namespace geomcast::multicast
