// Simulated message-passing network.
//
// The paper's peers exchange two kinds of traffic: periodic gossip
// announcements and multicast-tree build requests. The Network models
// point-to-point delivery with a pluggable latency model, optional loss
// injection (for failure tests), and per-kind message accounting — the §2
// "exactly N-1 messages" claim is verified against these counters.
//
// NetworkStats holds only what the transport itself observes: envelopes
// admitted (per kind and per sender), delivered (per receiver) and dropped.
// It cannot tell a retransmission from a first copy or a duplicate from
// fresh data, so those counts live with the layer that can:
//   - hop retransmissions / abandons: each ReliableHopLayer's HopStats
//     (multicast/reliable_hop.hpp) and the client's per-group tallies
//     (GroupStats retransmissions, abandoned_hops, graft_retries,
//     replica_sync_retries);
//   - duplicate arrivals: GroupStats duplicate_deliveries;
//   - NACKs, repairs, grafts, replica syncs, migrations, batching savings:
//     GroupStats (groups/group_stats.hpp);
//   - heartbeat hops: sent_by_kind[kHeartbeatKind].
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
#define GEOMCAST_NETWORK_STATS_FIELDS(X) \
  X(std::uint64_t, sent)                 \
  X(std::uint64_t, delivered)            \
  X(std::uint64_t, dropped)

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
