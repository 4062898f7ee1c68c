// Simulated message-passing network.
//
// The paper's peers exchange two kinds of traffic: periodic gossip
// announcements and multicast-tree build requests. The Network models
// point-to-point delivery with a pluggable latency model, optional loss
// injection (for failure tests), and per-kind message accounting — the §2
// "exactly N-1 messages" claim is verified against these counters.
#pragma once

#include <any>
#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "sim/time.hpp"
#include "util/rng.hpp"
#include "util/stats_fields.hpp"

namespace geomcast::sim {

/// Dense node identifier (index into the driver's node vector).
using NodeId = std::uint32_t;
inline constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();

/// Application-defined message kind; used for accounting and tracing.
using MessageKind = std::uint32_t;

/// A message in flight. Payload is type-erased; receivers any_cast it back
/// based on `kind`.
struct Envelope {
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  MessageKind kind = 0;
  std::any payload;
};

/// Per-link latency. Deterministic given the (seeded) rng.
class LatencyModel {
 public:
  /// Every message takes exactly `delay` seconds.
  [[nodiscard]] static LatencyModel constant(SimTime delay);
  /// Uniform in [lo, hi) per message.
  [[nodiscard]] static LatencyModel uniform(SimTime lo, SimTime hi);

  [[nodiscard]] SimTime sample(util::Rng& rng) const noexcept;

 private:
  SimTime lo_ = 0.0;
  SimTime hi_ = 0.0;  // lo == hi => constant
};

/// Message-loss injection for failure testing.
struct LossModel {
  /// Probability that any given message is dropped.
  double drop_probability = 0.0;
  /// If set, messages for which this returns true are always dropped
  /// (targeted failure injection, e.g. "partition node 7").
  std::function<bool(const Envelope&)> drop_if;
};

/// NetworkStats' scalar counters, in declaration and JSON order (see
/// util/stats_fields.hpp).
#define GEOMCAST_NETWORK_STATS_FIELDS(X)                                               \
  X(std::uint64_t, sent)                                                               \
  X(std::uint64_t, delivered)                                                          \
  X(std::uint64_t, dropped)                                                            \
  /* Reliability-protocol accounting, reported through the note_* hooks by             \
     the per-hop ack/retransmit layer (multicast/reliable_hop.hpp) and its             \
     clients — the transport itself cannot tell a retransmission from a                \
     first copy or a duplicate from fresh data. */                                     \
  X(std::uint64_t, retransmitted)  /* copies resent after an ack timeout */            \
  X(std::uint64_t, duplicate_data) /* duplicate arrivals receivers suppressed */       \
  X(std::uint64_t, abandoned_hops) /* hops whose retry budget ran out */               \
  /* End-to-end gap-repair accounting (QoS 2), reported by the pub/sub                 \
     repair plane: receiver-driven NACKs for missing sequence numbers and              \
     the retained-payload repairs that answered them. */                               \
  X(std::uint64_t, nacks)          /* batched gap NACK envelopes sent */               \
  X(std::uint64_t, repairs_served) /* retained payloads resent to a NACKer */          \
  /* Wave-coalescing accounting (groups/pubsub batching): range waves the              \
     rendezvous roots flushed and the per-edge envelopes (payload, plus                \
     acks at QoS 1+) those ranges avoided versus one wave per publish. */              \
  X(std::uint64_t, batched_waves)   /* coalesced range waves flushed */                \
  X(std::uint64_t, envelopes_saved) /* envelopes amortised away by batching */         \
  /* Control-plane cost attribution (groups routed control + graft plane):             \
     the envelopes that find/maintain trees, as opposed to the payload                 \
     envelopes that traverse them. Reported by the pub/sub layer so the                \
     "tree construction costs real messages" claim is measurable here, not             \
     just in per-group bookkeeping. */                                                 \
  X(std::uint64_t, control_envelopes) /* routed control + graft envelopes sent */      \
  X(std::uint64_t, graft_hops)        /* kGraftRequestKind descent hops sent */        \
  X(std::uint64_t, graft_retries)     /* graft control envelopes retransmitted */      \
  X(std::uint64_t, graft_aborts)      /* in-flight grafts given up (resubscribed) */   \
  /* Warm-failover accounting (groups replica plane): root->replica state              \
     replication, the per-migration bootstrap subset of it, and the idle               \
     heartbeat beacons. All three are control traffic and also count into              \
     control_envelopes. */                                                             \
  X(std::uint64_t, replica_sync_envelopes) /* kReplicaSyncKind deltas sent */          \
  X(std::uint64_t, migration_envelopes)    /* syncs re-establishing a replica */       \
  X(std::uint64_t, heartbeats)             /* kHeartbeatKind beacon hops sent */

/// Counters the experiments read back.
struct NetworkStats {
  GEOMCAST_NETWORK_STATS_FIELDS(GEOMCAST_STATS_MEMBER)
  std::map<MessageKind, std::uint64_t> sent_by_kind;
  std::vector<std::uint64_t> sent_by_node;
  std::vector<std::uint64_t> received_by_node;
};

/// The transport. Owned by the Simulator; applications call send() through
/// the Simulator facade.
class Network {
 public:
  explicit Network(util::Rng rng) : rng_(rng) {}

  void set_latency(LatencyModel model) noexcept { latency_ = model; }
  void set_loss(LossModel model) { loss_ = std::move(model); }

  /// Decides fate and delay of a message. Returns the delivery delay, or
  /// nothing if the message is dropped. Updates counters either way.
  [[nodiscard]] std::optional<SimTime> admit(const Envelope& envelope);

  void note_delivered(const Envelope& envelope);

  // Reliability-layer reporting (see NetworkStats).
  void note_retransmission() noexcept { ++stats_.retransmitted; }
  void note_duplicate() noexcept { ++stats_.duplicate_data; }
  void note_abandoned() noexcept { ++stats_.abandoned_hops; }
  void note_nack() noexcept { ++stats_.nacks; }
  void note_repair_served() noexcept { ++stats_.repairs_served; }
  void note_batched_wave(std::uint64_t envelopes_saved) noexcept {
    ++stats_.batched_waves;
    stats_.envelopes_saved += envelopes_saved;
  }
  void note_control_envelope() noexcept { ++stats_.control_envelopes; }
  void note_graft_hop() noexcept {
    ++stats_.graft_hops;
    ++stats_.control_envelopes;
  }
  void note_graft_retry() noexcept { ++stats_.graft_retries; }
  void note_graft_abort() noexcept { ++stats_.graft_aborts; }
  void note_replica_sync() noexcept {
    ++stats_.replica_sync_envelopes;
    ++stats_.control_envelopes;
  }
  void note_migration_envelope() noexcept { ++stats_.migration_envelopes; }
  void note_heartbeat() noexcept {
    ++stats_.heartbeats;
    ++stats_.control_envelopes;
  }

  /// Materialises the per-kind map from the dense hot-path counters before
  /// returning — callers see exactly the map they always did.
  [[nodiscard]] const NetworkStats& stats() const;

 private:
  void bump(std::vector<std::uint64_t>& counters, NodeId id);

  /// Message kinds are small dense integers (see groups/message_kinds.hpp),
  /// so the per-send kind accounting is an array increment, not a map
  /// lookup; anything past the dense range falls back to the map.
  static constexpr std::size_t kDenseKinds = 64;

  util::Rng rng_;
  LatencyModel latency_ = LatencyModel::constant(0.01);
  LossModel loss_;
  mutable NetworkStats stats_;
  std::array<std::uint64_t, kDenseKinds> kind_counts_{};
  std::map<MessageKind, std::uint64_t> high_kind_counts_;
};

}  // namespace geomcast::sim
