#include "multicast/reliable_hop.hpp"

#include <stdexcept>
#include <utility>

namespace geomcast::multicast {

ReliableHopLayer::ReliableHopLayer(sim::Simulator& sim, sim::MessageKind data_kind,
                                   sim::MessageKind ack_kind, ReliabilityConfig config,
                                   Hooks hooks)
    : sim_(sim),
      data_kind_(data_kind),
      ack_kind_(ack_kind),
      config_(config),
      hooks_(std::move(hooks)) {}

void ReliableHopLayer::send(sim::NodeId from, sim::NodeId to, std::uint64_t seq,
                            std::any payload, sim::MessageKind kind) {
  const sim::MessageKind wire_kind = kind == kInvalidKind ? data_kind_ : kind;
  if (config_.qos == QoS::kFireAndForget) {
    if (trace_.on_transmit) trace_.on_transmit(from, to, seq, /*attempt=*/0, payload);
    sim_.send(from, to, wire_kind, std::move(payload));
    ++stats_.data_messages;
    return;
  }
  const Key key{from, to, seq};
  const auto [it, inserted] = pending_.try_emplace(key);
  if (!inserted)
    throw std::logic_error("ReliableHopLayer::send: seq already pending on this hop");
  it->second.key = key;
  it->second.payload = std::move(payload);
  it->second.kind = kind;
  if (pending_by_receiver_.size() <= to)
    pending_by_receiver_.resize(static_cast<std::size_t>(to) + 1, 0);
  ++pending_by_receiver_[to];
  transmit(it->second, /*attempt=*/0);
}

void ReliableHopLayer::retire(Key key) {
  --pending_by_receiver_[key.to];
  pending_.erase(key);
}

void ReliableHopLayer::transmit(Pending& entry, std::size_t attempt) {
  const auto [from, to, seq] = entry.key;
  sim_.send(from, to, entry.kind == kInvalidKind ? data_kind_ : entry.kind,
            entry.payload);
  ++stats_.data_messages;
  if (attempt > 0) {
    ++stats_.retransmissions;
    sim_.network().note_retransmission();
    if (hooks_.on_retransmit) hooks_.on_retransmit(from, to, seq, entry.payload);
  }
  if (trace_.on_transmit) trace_.on_transmit(from, to, seq, attempt, entry.payload);
  entry.attempt = attempt;
  // Arm the retransmission timer; on_ack cancels it. The node pointer is
  // stable and outlives any timer that can still fire (see Pending), so
  // the event is a raw (thunk, this, node*) triple — the queue's
  // allocation-free fast path.
  entry.timer = sim_.schedule_after(
      config_.ack_timeout, &ReliableHopLayer::timeout_thunk, this,
      reinterpret_cast<std::uint64_t>(&entry));
}

void ReliableHopLayer::timeout_thunk(void* ctx, std::uint64_t arg) {
  static_cast<ReliableHopLayer*>(ctx)->on_timeout(
      *reinterpret_cast<Pending*>(arg));
}

void ReliableHopLayer::on_timeout(Pending& entry) {
  const auto [from, to, seq] = entry.key;
  if (hooks_.sender_alive && !hooks_.sender_alive(from)) {
    retire(entry.key);
    return;
  }
  if (entry.attempt < config_.max_retries) {
    transmit(entry, entry.attempt + 1);
    return;
  }
  ++stats_.abandoned_hops;
  sim_.network().note_abandoned();
  if (hooks_.on_abandon) hooks_.on_abandon(from, to, seq, entry.payload);
  retire(entry.key);
}

void ReliableHopLayer::acknowledge(sim::NodeId self, sim::NodeId sender,
                                   std::uint64_t seq) {
  if (config_.qos == QoS::kFireAndForget) return;
  sim_.send(self, sender, ack_kind_, HopAck{seq});
  ++stats_.ack_messages;
  if (trace_.on_ack_sent) trace_.on_ack_sent(self, sender, seq);
}

void ReliableHopLayer::on_ack(const sim::Envelope& envelope) {
  // The acker is the hop's receiver, the addressee its sender.
  const auto& ack = std::any_cast<const HopAck&>(envelope.payload);
  const auto it = pending_.find(Key{envelope.to, envelope.from, ack.seq});
  if (it == pending_.end()) return;  // late ack: hop already retired
  sim_.cancel(it->second.timer);
  retire(it->first);
}

}  // namespace geomcast::multicast
