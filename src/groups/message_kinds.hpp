// Message-kind registry for the groups subsystem — every envelope kind the
// pub/sub control and data planes put on the simulated network, in one
// place, with a compile-time uniqueness check.
//
// The registry holds the multicast construction protocol's
// kBuildRequestKind = 10 and the groups kinds in the 20+ band; the groups
// kinds share a Simulator with each other (and conceptually with the §2
// build wave), so a collision would silently misroute dispatch. Other
// subsystems run their own simulations in their own bands (overlay
// gossip: 1–3, stability convergecast: 20 — never co-resident with a
// PubSubSystem).
//
// | kind | value | plane   | payload          | reliability            |
// |------|-------|---------|------------------|------------------------|
// | kSubscribeKind    | 20 | control | GroupRequest  | best-effort routed |
// | kUnsubscribeKind  | 21 | control | GroupRequest  | best-effort routed |
// | kPublishKind      | 22 | control | GroupRequest  | best-effort routed |
// | kDeliverKind      | 23 | data    | GroupDelivery | PubSubConfig QoS   |
// | kDeliverAckKind   | 24 | data    | HopAck        | (ack of 23)        |
// | kNackKind         | 25 | repair  | GapNack       | best-effort unicast|
// | kRepairKind       | 26 | repair  | GroupDelivery | best-effort unicast|
// | kRepairMissKind   | 27 | repair  | GapRepairMiss | best-effort unicast|
// | kGraftRequestKind | 28 | graft   | GraftEnvelope | QoS 1 (acked)      |
// | kGraftAcceptKind  | 29 | graft   | GraftEnvelope | QoS 1 (acked)      |
// | kGraftRejectKind  | 30 | graft   | GraftEnvelope | QoS 1 (acked)      |
// | kGraftAckKind     | 31 | graft   | HopAck        | (ack of 28–30)     |
// | kReplicaSyncKind  | 32 | failover| ReplicaSync   | QoS 1 (acked)      |
// | kReplicaAckKind   | 33 | failover| HopAck        | (ack of 32)        |
// | kHeartbeatKind    | 34 | failover| GroupHeartbeat| best-effort tree   |
// | kSeqLeaseKind     | 35 | shard   | SeqLease      | QoS 1 (acked)      |
// | kSeqGrantKind     | 36 | shard   | SeqGrant      | QoS 1 (acked)      |
// | kShardWaveKind    | 37 | shard   | ShardWave     | QoS 1 (acked)      |
// | kCoordAckKind     | 38 | shard   | HopAck        | (ack of 35–37)     |
// | kGraftBatchKind   | 39 | reserved| —             | never sent         |
//
// README.md carries the same table for readers who never open headers.
#pragma once

#include <cstddef>
#include <iterator>

#include "sim/network.hpp"

namespace geomcast::groups {

// -- control plane (greedy-routed toward the group's rendezvous root) ------
inline constexpr sim::MessageKind kSubscribeKind = 20;
inline constexpr sim::MessageKind kUnsubscribeKind = 21;
inline constexpr sim::MessageKind kPublishKind = 22;

// -- data plane (tree waves + their per-hop acks) --------------------------
inline constexpr sim::MessageKind kDeliverKind = 23;
inline constexpr sim::MessageKind kDeliverAckKind = 24;

// -- QoS 2 repair plane. NACK/repair traffic is unicast peer-to-peer (the
// underlay, not the tree): repair conversations are point-to-point between
// a subscriber and one ancestor, exactly the case direct unicast serves in
// deployed NACK multicast schemes.
inline constexpr sim::MessageKind kNackKind = 25;        // batched gap request
inline constexpr sim::MessageKind kRepairKind = 26;      // retained wave resent
inline constexpr sim::MessageKind kRepairMissKind = 27;  // "not retained here"

// -- routed graft control plane (the distributed zone descent). Request
// envelopes hop peer-to-peer down the descent path; accept/reject report
// the outcome to the initiating root. All three ride one shared
// ReliableHopLayer at QoS 1 (acked as kGraftAckKind, retransmitted on
// timeout) so a lost control envelope cannot strand the subscriber.
inline constexpr sim::MessageKind kGraftRequestKind = 28;  // one descent step
inline constexpr sim::MessageKind kGraftAcceptKind = 29;   // subscriber -> root
inline constexpr sim::MessageKind kGraftRejectKind = 30;   // failing peer -> root
inline constexpr sim::MessageKind kGraftAckKind = 31;      // per-hop graft ack

// -- warm root failover plane (PubSubConfig::warm_failover). Each group's
// rendezvous root streams its bookkeeping — membership deltas, retained
// range inserts, pending-batch joins — to the group's replica (the
// next-nearest alive peer to the rendezvous point) as kReplicaSyncKind
// unicasts on a dedicated ReliableHopLayer at QoS 1, so root death promotes
// a warm successor instead of rebuilding from nothing. kHeartbeatKind is
// the root-driven idle beacon (highest flushed seq, forwarded down the
// current tree, fire-and-forget — repeated rounds are its redundancy) that
// closes the QoS 2 final-wave blind spot.
inline constexpr sim::MessageKind kReplicaSyncKind = 32;  // root -> replica delta
inline constexpr sim::MessageKind kReplicaAckKind = 33;   // per-hop replica ack
inline constexpr sim::MessageKind kHeartbeatKind = 34;    // idle seq beacon

// -- replica-shard coordination plane (silent when root_replicas is 1).
// The R slot roots of a group coordinate over a dedicated ReliableHopLayer
// at QoS 1 (acked as kCoordAckKind): a non-authority slot root leases a
// dense (group, seq) range from the slot-0 authority (kSeqLeaseKind ->
// kSeqGrantKind) so sequence assignment stays globally unique and dense,
// then hands the committed range to every peer slot root (kShardWaveKind),
// each of which drives the wave over its own shard tree. kGraftBatchKind
// is reserved and never sent: it named a retired same-instant graft
// carrier, and per-kind traffic reports still list it (always 0).
inline constexpr sim::MessageKind kSeqLeaseKind = 35;   // slot root -> authority
inline constexpr sim::MessageKind kSeqGrantKind = 36;   // authority -> slot root
inline constexpr sim::MessageKind kShardWaveKind = 37;  // committed-range handoff
inline constexpr sim::MessageKind kCoordAckKind = 38;   // per-hop ack of 35–37
inline constexpr sim::MessageKind kGraftBatchKind = 39; // reserved, never sent

namespace detail {
/// The full registry this simulation family dispatches on: the multicast
/// build request (protocol.hpp pins 10) plus every groups kind above, each
/// with its canonical snake_case name (the key observability exports —
/// bench --json sent_by_kind, snapshot JSON — report per-kind traffic
/// under). Compile-time-checked pairwise distinct
/// so a future kind cannot silently shadow an existing dispatch arm.
struct KindEntry {
  sim::MessageKind kind;
  const char* name;
};
inline constexpr KindEntry kRegistry[] = {
    // multicast construction (protocol.hpp)
    {10, "build_request"},
    {kSubscribeKind, "subscribe"},
    {kUnsubscribeKind, "unsubscribe"},
    {kPublishKind, "publish"},
    {kDeliverKind, "deliver"},
    {kDeliverAckKind, "deliver_ack"},
    {kNackKind, "nack"},
    {kRepairKind, "repair"},
    {kRepairMissKind, "repair_miss"},
    {kGraftRequestKind, "graft_request"},
    {kGraftAcceptKind, "graft_accept"},
    {kGraftRejectKind, "graft_reject"},
    {kGraftAckKind, "graft_ack"},
    {kReplicaSyncKind, "replica_sync"},
    {kReplicaAckKind, "replica_ack"},
    {kHeartbeatKind, "heartbeat"},
    {kSeqLeaseKind, "seq_lease"},
    {kSeqGrantKind, "seq_grant"},
    {kShardWaveKind, "shard_wave"},
    {kCoordAckKind, "coord_ack"},
    {kGraftBatchKind, "graft_batch"},
};

constexpr bool registry_unique() {
  for (std::size_t i = 0; i < std::size(kRegistry); ++i)
    for (std::size_t j = i + 1; j < std::size(kRegistry); ++j)
      if (kRegistry[i].kind == kRegistry[j].kind) return false;
  return true;
}
static_assert(registry_unique(), "message-kind registry has a duplicate value");
}  // namespace detail

/// The registry name of `kind`, or nullptr for a kind outside this
/// simulation family (callers fall back to the numeric value).
[[nodiscard]] constexpr const char* kind_name(sim::MessageKind kind) noexcept {
  for (const auto& entry : detail::kRegistry)
    if (entry.kind == kind) return entry.name;
  return nullptr;
}

}  // namespace geomcast::groups
