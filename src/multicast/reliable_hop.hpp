// Per-hop reliability for payload traffic on the simulated network — the
// ack/timeout/retransmit/duplicate-suppression core that every acked path
// (the groups pub/sub data plane, its graft, replica-sync and shard
// coordination planes) shares as one protocol.
//
// The protocol is the standard per-hop one (MQTT-SN QoS 1 style): each
// data envelope is acknowledged by its receiver; the sender retransmits
// after `ack_timeout` until the ack arrives or `max_retries` copies have
// been resent, at which point the hop is abandoned. Receivers must re-ack
// every arrival — duplicates included — because the duplicate's existence
// means the previous ack may have been the lost message; duplicate
// *detection* stays with the client (it owns the dedup key: (group, seq)
// for pub/sub), which counts suppressed copies itself (GroupStats
// duplicate_deliveries).
//
// Under QoS 0 the layer degrades to a plain send: no acks, no timers, no
// retransmissions — bit-for-bit the fire-and-forget path, so clients can
// route all payload sends through it unconditionally.
//
// One layer instance serves every peer of a simulation: pending
// retransmission state is keyed by (sender, receiver, seq), so `seq` must
// be unique per logical transfer (e.g. per wave on the pub/sub data
// plane). A transfer is whatever the client puts in
// one payload — pub/sub's coalesced range waves ride a single wave-id
// `seq`, so one pending entry, one ack, and one timeout/retransmit cycle
// cover the whole [seq_lo, seq_hi] batch; the layer's per-hop cost is
// amortised by the batch factor with no range awareness here. Aggregate
// counters land in HopStats, their only home: the simulator's NetworkStats
// counts envelopes by kind and cannot tell a retransmission from a first
// copy. Per-client attribution (e.g. per-group stats) goes through Hooks.
//
// Every acked hop costs one insert, one ack lookup and one erase, so the
// pending state is flat: a slab of Pending records recycled through a free
// list, and a PeerTable index from (from, to, seq) to the record's slot.
// The retransmit timer carries the slot index, not a pointer, so the slab
// may grow while timers are armed.
#pragma once

#include <any>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/simulator.hpp"
#include "util/peer_table.hpp"
#include "util/stats_fields.hpp"

namespace geomcast::multicast {

/// Delivery guarantee for a payload hop (the MQTT QoS ladder). The hop
/// layer itself only distinguishes "acked" from "not": kEndToEnd runs the
/// same per-hop ack/retransmit cycle as kAcked — the end-to-end NACK/gap-
/// repair plane that makes it QoS 2 lives with the client (groups/pubsub),
/// layered ON TOP of the per-hop recovery rather than replacing it.
enum class QoS : int {
  kFireAndForget = 0,  ///< one send, no acks, no timers
  kAcked = 1,          ///< per-hop ack + timeout/retransmit
  kEndToEnd = 2,       ///< kAcked hops + client-side NACK/gap repair
};

/// True for every rung that acks hops (everything above fire-and-forget).
[[nodiscard]] inline constexpr bool requires_ack(QoS qos) noexcept {
  return qos != QoS::kFireAndForget;
}

struct ReliabilityConfig {
  QoS qos = QoS::kAcked;
  /// Time a sender waits for an ack before retransmitting.
  double ack_timeout = 0.25;
  /// Retransmissions allowed per hop; 0 = single try (still acked, and
  /// abandonment is still counted when the ack never arrives).
  std::size_t max_retries = 5;
};

/// Ack payload: the receiver echoes the transfer's `seq`; together with
/// the envelope's (from, to) it identifies the pending hop.
struct HopAck {
  std::uint64_t seq = 0;
};

/// HopStats' counters, in declaration and JSON order (see
/// util/stats_fields.hpp).
#define GEOMCAST_HOP_STATS_FIELDS(X)                                                   \
  X(std::uint64_t, data_messages) /* sends, retransmissions included */                \
  X(std::uint64_t, ack_messages)                                                       \
  X(std::uint64_t, retransmissions)                                                    \
  X(std::uint64_t, abandoned_hops) /* retry budgets exhausted */

/// Aggregate accounting across every hop the layer carried.
struct HopStats {
  GEOMCAST_HOP_STATS_FIELDS(GEOMCAST_STATS_MEMBER)
};

class ReliableHopLayer {
 public:
  /// Per-event callbacks for client-side attribution (the stored payload is
  /// passed back so e.g. pub/sub can charge the right group's stats).
  /// on_abandon may send on this layer (the hop is retired right after);
  /// on_retransmit must not — its payload reference points into the slab.
  struct Hooks {
    std::function<void(sim::NodeId from, sim::NodeId to, std::uint64_t seq,
                       const std::any& payload)>
        on_retransmit;
    std::function<void(sim::NodeId from, sim::NodeId to, std::uint64_t seq,
                       const std::any& payload)>
        on_abandon;
    /// Consulted when a timer fires: a dead sender's pending hops are
    /// dropped silently (no retransmission from beyond the grave, and no
    /// abandonment charged — churn accounting lives elsewhere).
    std::function<bool(sim::NodeId)> sender_alive;
  };

  /// Observability taps, installable after construction (tracing attaches
  /// to a running system) and strictly passive: they fire after the
  /// transmission/ack they describe, mutate nothing, and cost one empty-
  /// std::function test when absent. `attempt` > 0 marks a retransmission.
  struct TraceHooks {
    std::function<void(sim::NodeId from, sim::NodeId to, std::uint64_t seq,
                       std::size_t attempt, const std::any& payload)>
        on_transmit;
    std::function<void(sim::NodeId self, sim::NodeId sender, std::uint64_t seq)>
        on_ack_sent;
  };
  void set_trace_hooks(TraceHooks hooks) { trace_ = std::move(hooks); }

  /// The layer sends data as `data_kind` and expects acks as `ack_kind`
  /// carrying a HopAck payload. `sim` must outlive the layer.
  ReliableHopLayer(sim::Simulator& sim, sim::MessageKind data_kind,
                   sim::MessageKind ack_kind, ReliabilityConfig config = {},
                   Hooks hooks = {});
  ReliableHopLayer(const ReliableHopLayer&) = delete;
  ReliableHopLayer& operator=(const ReliableHopLayer&) = delete;

  /// Sender half: transmits `payload` from -> to and, under QoS 1, arms the
  /// ack-timeout/retransmit cycle. `seq` must be unique per logical
  /// (from, to) transfer and must not collide with one still pending.
  ///
  /// `kind` overrides the envelope kind for this transfer (retransmissions
  /// reuse it); kInvalidKind means the layer's data_kind. Lets one layer
  /// instance — one pending table, one ack kind, one timeout discipline —
  /// carry a small family of related kinds (e.g. the routed-graft
  /// request/accept/reject trio) whose seqs share a key space.
  static constexpr sim::MessageKind kInvalidKind =
      static_cast<sim::MessageKind>(-1);
  void send(sim::NodeId from, sim::NodeId to, std::uint64_t seq, std::any payload,
            sim::MessageKind kind = kInvalidKind);

  /// Receiver half: acknowledge a data arrival back to its sender. Call for
  /// EVERY arrival, duplicates included — the previous ack may have been
  /// the lost message, and an unacked sender retransmits until its budget
  /// dies on a hop that already delivered. No-op under QoS 0.
  void acknowledge(sim::NodeId self, sim::NodeId sender, std::uint64_t seq);

  /// Dispatch an `ack_kind` envelope: cancels the matching pending
  /// retransmission. Late acks (hop already retired) are ignored.
  void on_ack(const sim::Envelope& envelope);

  [[nodiscard]] const HopStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const ReliabilityConfig& config() const noexcept { return config_; }
  /// Hops still awaiting an ack (0 once the simulation drained).
  [[nodiscard]] std::size_t pending() const noexcept { return index_.size(); }
  /// Pending hops addressed to `to` — i.e. senders still retransmitting
  /// toward that receiver. The QoS 2 gap-repair plane consults this before
  /// NACKing: while per-hop recovery is in flight the gap may heal on its
  /// own, so end-to-end repair defers instead of double-repairing.
  [[nodiscard]] std::size_t pending_to(sim::NodeId to) const noexcept {
    return to < pending_by_receiver_.size() ? pending_by_receiver_[to] : 0;
  }

 private:
  /// Index key of a pending hop: {peer = sender, slot = receiver, id = seq}.
  [[nodiscard]] static util::PeerKey key_of(sim::NodeId from, sim::NodeId to,
                                            std::uint64_t seq) noexcept {
    return util::PeerKey{from, to, seq};
  }
  /// One pending hop, in a slab cell. A cell is live from send() until
  /// retire(); its timer is always cancelled (on_ack) or already fired
  /// (on_timeout) by then, so a firing timer's slot index names a live
  /// cell. Code holds a slot index, not a Pending&, across a hook that may
  /// send on this layer: the send may grow the slab.
  struct Pending {
    util::PeerKey key;
    std::any payload;
    std::size_t attempt = 0;
    sim::EventId timer = 0;
    sim::MessageKind kind = kInvalidKind;  // per-transfer override
  };

  void transmit(std::uint32_t slot, std::size_t attempt);
  void on_timeout(std::uint32_t slot);
  static void timeout_thunk(void* ctx, std::uint64_t arg);
  void retire(std::uint32_t slot);

  sim::Simulator& sim_;
  sim::MessageKind data_kind_;
  sim::MessageKind ack_kind_;
  ReliabilityConfig config_;
  Hooks hooks_;
  TraceHooks trace_;
  /// The slab, its free cells (reused last-freed first) and the ack index.
  std::vector<Pending> slots_;
  std::vector<std::uint32_t> free_slots_;
  util::PeerTable<std::uint32_t> index_;
  /// Per-receiver pending-hop counts, maintained alongside `index_` so
  /// pending_to() — polled by every QoS 2 gap timer — needs no scan.
  /// Node ids are dense, so this is a flat vector, not a map.
  std::vector<std::size_t> pending_by_receiver_;
  HopStats stats_;
};

}  // namespace geomcast::multicast
