// Per-hop reliability for payload traffic on the simulated network — the
// ack/timeout/retransmit/duplicate-suppression core that run_dissemination
// pioneered, extracted so every payload path (single-shot dissemination,
// the groups pub/sub data plane, future subsystems) shares one protocol.
//
// The protocol is the standard per-hop one (MQTT-SN QoS 1 style): each
// data envelope is acknowledged by its receiver; the sender retransmits
// after `ack_timeout` until the ack arrives or `max_retries` copies have
// been resent, at which point the hop is abandoned. Receivers must re-ack
// every arrival — duplicates included — because the duplicate's existence
// means the previous ack may have been the lost message; duplicate
// *detection* stays with the client (it owns the dedup key: "payload held"
// for dissemination, (group, seq) for pub/sub), which reports suppressed
// copies through Network::note_duplicate().
//
// Under QoS 0 the layer degrades to a plain send: no acks, no timers, no
// retransmissions — bit-for-bit the fire-and-forget path, so clients can
// route all payload sends through it unconditionally.
//
// One layer instance serves every peer of a simulation: pending
// retransmission state is keyed by (sender, receiver, seq), so `seq` must
// be unique per logical transfer (per wave in pub/sub, per edge in
// single-shot dissemination). A transfer is whatever the client puts in
// one payload — pub/sub's coalesced range waves ride a single wave-id
// `seq`, so one pending entry, one ack, and one timeout/retransmit cycle
// cover the whole [seq_lo, seq_hi] batch; the layer's per-hop cost is
// amortised by the batch factor with no range awareness here. Aggregate
// counters land in HopStats and are mirrored into the simulator's
// NetworkStats via the note_* hooks; per-client attribution (e.g.
// per-group stats) goes through Hooks.
#pragma once

#include <any>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "sim/simulator.hpp"
#include "util/pool.hpp"
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
  [[nodiscard]] std::size_t pending() const noexcept { return pending_.size(); }
  /// Pending hops addressed to `to` — i.e. senders still retransmitting
  /// toward that receiver. The QoS 2 gap-repair plane consults this before
  /// NACKing: while per-hop recovery is in flight the gap may heal on its
  /// own, so end-to-end repair defers instead of double-repairing.
  [[nodiscard]] std::size_t pending_to(sim::NodeId to) const noexcept {
    return to < pending_by_receiver_.size() ? pending_by_receiver_[to] : 0;
  }

 private:
  /// Pending-table key. Never iterated in order, so the table is an
  /// unordered_map — O(1) on the per-hop hot path instead of a red-black
  /// walk per send/ack.
  struct Key {
    sim::NodeId from = sim::kInvalidNode;
    sim::NodeId to = sim::kInvalidNode;
    std::uint64_t seq = 0;
    [[nodiscard]] bool operator==(const Key&) const noexcept = default;
  };
  struct KeyHash {
    [[nodiscard]] std::size_t operator()(const Key& k) const noexcept {
      std::uint64_t h = (static_cast<std::uint64_t>(k.from) << 32) | k.to;
      h ^= k.seq * 0x9e3779b97f4a7c15ULL;
      h ^= h >> 29;
      h *= 0xbf58476d1ce4e5b9ULL;
      return static_cast<std::size_t>(h ^ (h >> 32));
    }
  };
  /// The key lives inside the node so a timer closure only captures
  /// {this, node*} — 16 trivially-copyable bytes, which libstdc++'s
  /// std::function stores inline: arming a retransmit timer allocates
  /// nothing. unordered_map nodes are pointer-stable, and a pending hop's
  /// timer is always cancelled (on_ack) or already fired (on_timeout)
  /// before its node is erased, so a firing timer's pointer is valid.
  struct Pending {
    Key key;
    std::any payload;
    std::size_t attempt = 0;
    sim::EventId timer = 0;
    sim::MessageKind kind = kInvalidKind;  // per-transfer override
  };

  void transmit(Pending& entry, std::size_t attempt);
  void on_timeout(Pending& entry);
  static void timeout_thunk(void* ctx, std::uint64_t arg);
  // By value: callers pass the key living inside the node being erased.
  void retire(Key key);

  sim::Simulator& sim_;
  sim::MessageKind data_kind_;
  sim::MessageKind ack_kind_;
  ReliabilityConfig config_;
  Hooks hooks_;
  TraceHooks trace_;
  /// Free-list node allocator: a QoS 1 hop inserts and erases one node
  /// per transfer, so steady-state ack churn recycles instead of hitting
  /// the global heap.
  std::unordered_map<Key, Pending, KeyHash, std::equal_to<Key>,
                     util::FreeListAllocator<std::pair<const Key, Pending>>>
      pending_;
  /// Per-receiver pending-hop counts, maintained alongside `pending_` so
  /// pending_to() — polled by every QoS 2 gap timer — needs no scan.
  /// Node ids are dense, so this is a flat vector, not a map.
  std::vector<std::size_t> pending_by_receiver_;
  HopStats stats_;
};

}  // namespace geomcast::multicast
