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
  // The cell this hop takes: the last one freed, else a new one.
  const util::PeerKey key = key_of(from, to, seq);
  const auto slot =
      static_cast<std::uint32_t>(free_slots_.empty() ? slots_.size() : free_slots_.back());
  if (!index_.try_emplace(key, slot).second)
    throw std::logic_error("ReliableHopLayer::send: seq already pending on this hop");
  if (slot == slots_.size())
    slots_.emplace_back();
  else
    free_slots_.pop_back();
  Pending& entry = slots_[slot];
  entry.key = key;
  entry.payload = std::move(payload);
  entry.kind = kind;
  if (pending_by_receiver_.size() <= to)
    pending_by_receiver_.resize(static_cast<std::size_t>(to) + 1, 0);
  ++pending_by_receiver_[to];
  transmit(slot, /*attempt=*/0);
}

void ReliableHopLayer::retire(std::uint32_t slot) {
  Pending& entry = slots_[slot];
  --pending_by_receiver_[entry.key.slot];
  index_.erase(entry.key);
  entry.payload.reset();
  free_slots_.push_back(slot);
}

void ReliableHopLayer::transmit(std::uint32_t slot, std::size_t attempt) {
  const Pending& entry = slots_[slot];
  const sim::NodeId from = entry.key.peer;
  const sim::NodeId to = entry.key.slot;
  const std::uint64_t seq = entry.key.id;
  sim_.send(from, to, entry.kind == kInvalidKind ? data_kind_ : entry.kind,
            entry.payload);
  ++stats_.data_messages;
  if (attempt > 0) {
    ++stats_.retransmissions;
    if (hooks_.on_retransmit) hooks_.on_retransmit(from, to, seq, entry.payload);
  }
  if (trace_.on_transmit) trace_.on_transmit(from, to, seq, attempt, entry.payload);
  // Arm the retransmission timer; on_ack cancels it. The event is a raw
  // (thunk, this, slot) triple — the queue's allocation-free fast path.
  slots_[slot].attempt = attempt;
  slots_[slot].timer = sim_.schedule_after(config_.ack_timeout,
                                           &ReliableHopLayer::timeout_thunk, this, slot);
}

void ReliableHopLayer::timeout_thunk(void* ctx, std::uint64_t arg) {
  static_cast<ReliableHopLayer*>(ctx)->on_timeout(static_cast<std::uint32_t>(arg));
}

void ReliableHopLayer::on_timeout(std::uint32_t slot) {
  const util::PeerKey key = slots_[slot].key;
  if (hooks_.sender_alive && !hooks_.sender_alive(key.peer)) {
    retire(slot);
    return;
  }
  if (slots_[slot].attempt < config_.max_retries) {
    transmit(slot, slots_[slot].attempt + 1);
    return;
  }
  ++stats_.abandoned_hops;
  if (hooks_.on_abandon) {
    // The hook may re-send on this layer (coord re-dispatch), which can
    // grow the slab: hand it a payload that lives outside the slab.
    const std::any payload = std::move(slots_[slot].payload);
    hooks_.on_abandon(key.peer, key.slot, key.id, payload);
  }
  retire(slot);
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
  const std::uint32_t* found = index_.find(key_of(envelope.to, envelope.from, ack.seq));
  if (found == nullptr) return;  // late ack: hop already retired
  const std::uint32_t slot = *found;
  sim_.cancel(slots_[slot].timer);
  retire(slot);
}

}  // namespace geomcast::multicast
