// Message-driven publish/subscribe over the geometric overlay — the
// protocol layer of the groups subsystem, running on the discrete-event
// Simulator with real latency/loss, alongside the §2 construction protocol
// (multicast/protocol.hpp) whose kBuildRequestKind these kinds extend.
//
// Control plane: subscribe/unsubscribe/publish envelopes are forwarded hop
// by hop toward the group's rendezvous root with greedy geometric routing
// (overlay/routing.hpp); each hop uses only local information plus the
// group id carried by the envelope. Every control envelope is a real
// transport envelope, counted per kind in NetworkStats::sent_by_kind like
// data traffic (and per group in GroupStats control_messages / graft_hops),
// so finding and maintaining a tree costs measurable messages, not free
// root-side work.
//
// Routed graft (PubSubConfig::routed_graft, default on): a subscribe that
// lands at a root holding a clean cached tree does NOT splice the
// newcomer in locally. The zone descent itself becomes messages — the
// decentralized construction the paper claims, applied to maintenance:
//
//            subscriber --kSubscribeKind-->  root
//                                             | graft_begin (cursor @ root)
//                                             v
//        +----------------- kGraftRequestKind, one DESCENT hop ---------+
//        |  each peer on the path replays ITS partition step against    |
//        |  the zone the request carries, follows/creates the slice     |
//        |  edge holding the subscriber's point, and forwards the       |
//        |  request, with that slice as its zone, to that child         |
//        |  (GroupManager::graft_advance — one decision per             |
//        |  envelope, counted as graft_hops in GroupStats)              |
//        +---------------------------------------------------------+---+
//              |                            |                      |
//          reaches the                no slice fits /          peer died /
//          subscriber                 cursor invalidated       envelope lost
//              |                            |                      |
//              v                            v                      v
//      kGraftAcceptKind -> root     kGraftRejectKind -> root   QoS 1 retransmit,
//      (graft_finish: booked        (graft_abort: cache        then abandon ->
//      as stats.grafts)             dirtied, resubscribe)      abort + resubscribe
//
// All three graft kinds ride one shared ReliableHopLayer at QoS 1
// (kGraftAckKind acks, ack-timeout retransmits) regardless of the data
// plane's QoS, so a lost control envelope retries instead of stranding
// the subscriber; retransmitted requests are deduped per (peer, graft id)
// and never replay a descent decision. An abort dirties the group's cache
// (the next publish rebuilds, spanning the surviving membership — any
// half-grafted relay path is discarded with the stale tree) and re-issues
// the subscribe from the subscriber (graft_resubscribes), so a root or
// relay dying mid-graft degrades to one extra round trip, never to a
// silently unsubscribed peer. The subscriber's delivery flag is set only
// by the final descent step, so a publish wave racing the graft sees the
// newcomer as (at most) a relay chain and cannot deliver to — or count —
// a half-attached subscriber. With routed_graft off, subscribe falls back
// to GroupManager::subscribe's synchronous local descent: the golden
// oracle the routed path is pinned bit-identical against on lossless
// seeds (tests/groups_routed_graft_test.cpp).
//
// Publish pipeline (one path for every PubSubConfig::root_replicas = R):
//
//   publisher --kPublishKind--> owner slot root   shard_publish
//                                  | coalesce      (per-(group, slot) buffer)
//                                  v
//                               shard_commit      slot 0 assigns seqs; any
//                                  |              other slot leases them
//                                  v              (kSeqLeaseKind/kSeqGrantKind)
//                               launch_wave       kShardWaveKind handoff to
//                                  |              every other slot root
//                                  v
//                               drive_shard_wave  one wave over the slot's
//                                  |              shard tree
//                                  v
//                               disseminate       hop by hop down the tree
//
// R = 1 is the one-slot case: slot 0 is the group's rendezvous root and
// its own seq authority, so the lease plane and the handoffs stay silent
// and each commit drives one wave over the whole group tree.
//
// Data plane: the slot root resolves its cached pruned shard tree through
// the GroupManager and pushes the payload down it, one kDeliverKind
// envelope per tree edge; every peer forwards to its tree children (the
// forwarding state the build wave installed) and consumes the payload iff
// subscribed, with per-(group, slot, seq) duplicate suppression.
//
// Wave coalescing (PubSubConfig::batch_window / max_batch): back-to-back
// publishes to the same group are buffered at the slot root and flushed
// as ONE tree wave whose envelope carries the dense sequence range
// [seq, seq_hi] — one envelope, one ack, one pending-retransmit entry, and
// one retained-buffer slot per tree edge per batch instead of per publish,
// amortising the whole QoS ladder by the batch factor. The buffer flushes
// when the window expires or max_batch publishes have joined; delivery
// stays per-seq at the subscribers (the window splits ranges), so the
// delivered (group, seq) set is identical to unbatched.
//
// The data plane has a QoS ladder (PubSubConfig::reliability): QoS 0 is
// fire-and-forget, QoS 1 runs every kDeliverKind hop through the shared
// per-hop reliability layer (multicast/reliable_hop.hpp) — each hop is
// acked with kDeliverAckKind, the forwarding peer retransmits to its tree
// children on timeout up to a retry budget, and per-(group, seq) dedup
// suppresses retransmission duplicates (re-acked, never re-delivered or
// re-forwarded). QoS 2 layers an end-to-end, receiver-driven repair plane
// on top of those same acked hops: each subscriber runs a per-group
// SubscriberWindow over the dense publish seqs, holds out-of-order waves
// back for in-order release, and — after a gap timeout that defers to
// still-in-flight per-hop recovery (ReliableHopLayer::pending_to) — sends
// batched kNackKind requests up its wave-snapshot ancestor chain: tree
// parent first, escalating ancestor-by-ancestor to the root on a timeout
// or an explicit kRepairMissKind. Responders (the root and forwarders)
// serve kRepairKind from a bounded per-(peer, group) RetainedBuffer
// (GroupManager::retain_payload); a gap no ancestor can serve is abandoned
// after a bounded number of rounds and the window skips past it, so an
// evicted seq degrades delivery instead of stalling the subscriber.
//
// Ordering guarantee per QoS rung (see also the per-QoS assertions in
// tests/groups_reliability_test.cpp):
//  * QoS 0: none. Waves follow the tree snapshot current at publish time,
//    so a graft/repair between publishes can shorten or lengthen a
//    subscriber's path and reorder arrivals (with a static tree and
//    symmetric latency, order happens to hold — that is luck, not
//    contract). Lost waves are simply gone.
//  * QoS 1: none. Per-hop retransmission delays individual waves by whole
//    ack-timeout cycles, so a later publish routinely overtakes an earlier
//    one on the same subscriber (the regression the ordering tests pin).
//  * QoS 2: per-(group, subscriber) in-order release from the window head
//    onward. The head initializes at the first wave a subscriber receives;
//    a wave older than the head (possible only when a subscriber's very
//    first waves race, or after the window abandoned the seq) is released
//    immediately out of band and counted as pre_window_deliveries rather
//    than silently dropped. Gaps the repair plane gives up on are skipped
//    (gap_seqs_abandoned), bounding how long ordering can stall delivery.
//
// Session heartbeats (PubSubConfig::heartbeat_interval, QoS 2 only): the
// classic NACK-scheme tail is that a gap is only detectable from later
// traffic, so a subtree severed during a group's final wave would have
// nothing to trigger its NACKs. Root-driven idle beacons close it: after
// each flush the group re-arms a bounded round of kHeartbeatKind beacons,
// one per slot root, carrying the slot's highest driven seq down its
// current shard tree; a subscriber whose window is behind that horizon
// opens gaps and NACKs as if a later wave had revealed them. Beacons are
// fire-and-forget — the repeated rounds are their redundancy. Residual
// blind spot: a subscriber severed on the group's ONLY wave has an
// uninitialized window, and a beacon must not owe a late joiner the whole
// history, so it stays silent.
//
// Warm root failover (PubSubConfig::warm_failover): each group's root
// (slot 0, the seq authority) streams its bookkeeping — membership
// deltas, retained-range inserts, pending-batch joins — to the group's
// replica (the next-nearest alive peer to the rendezvous point,
// recomputable by anyone) as kReplicaSyncKind envelopes on a dedicated
// QoS 1 ReliableHopLayer. On
// root death the recomputed rendezvous root IS that replica, so the
// migration path promotes a warm successor: it keeps the synced
// subscriber set, serves post-migration NACKs from its own RetainedBuffer
// (the replica retains every synced range), and adopts the dead root's
// pending batch from its copy instead of dropping it. Every sync envelope
// is counted (replica_sync_envelopes; the re-bootstrap after a promotion
// or replica death additionally as migration_envelopes), so the handoff
// has a measured price, not a free pointer swap. Off (the default), the
// historic cold rebuild runs bit-identically — the oracle the warm path
// is compared against.
//
// Departures take effect immediately: the network drops envelopes
// addressed to departed peers, greedy forwarding routes around them, and
// the GroupManager repairs or invalidates the affected trees. Tree
// build/repair accounting stays in GroupStats (control-plane bookkeeping);
// the simulator's NetworkStats count only what the transport sees: every
// envelope admitted, per kind, delivered or dropped. Each finer count has
// one owner: the data plane's retransmissions and abandons are
// hop_stats() (per group: GroupStats retransmissions / abandoned_hops),
// the control planes' are GroupStats graft_retries / replica_sync_retries
// and, for the slot-root coordination plane, coord_hop_stats(); NACKs,
// repairs, duplicates, replica syncs, migrations and batching savings are
// GroupStats fields.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "groups/delivery.hpp"
#include "groups/group_manager.hpp"
#include "groups/message_kinds.hpp"
#include "util/peer_table.hpp"
#include "groups/seen_ranges.hpp"
#include "multicast/reliable_hop.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "util/pool.hpp"

namespace geomcast::groups {

// Message kinds live in groups/message_kinds.hpp — the one registry of
// every envelope kind this simulation family dispatches on, uniqueness
// checked at compile time.

/// Control envelope routed toward a group root.
struct GroupRequest {
  GroupId group = 0;
  PeerId origin = kInvalidPeer;  // subscriber / publisher
  PeerId target = kInvalidPeer;  // origin's owner slot root at send time
  /// App messages this publish envelope carries (publisher-side batching,
  /// PubSubConfig::publisher_batch_window; always 1 when that is off).
  std::uint32_t count = 1;
};

/// Batched gap request: `origin` is missing `seqs` of `group` and asks the
/// addressee (an ancestor from its latest wave snapshot) to resend them.
struct GapNack {
  GroupId group = 0;
  PeerId origin = kInvalidPeer;
  std::vector<std::uint64_t> seqs;
};

/// Responder's "not retained here" for the subset of a NACK it could not
/// serve; the requester escalates those seqs to the next ancestor at once
/// instead of waiting out another gap timeout.
struct GapRepairMiss {
  GroupId group = 0;
  std::vector<std::uint64_t> seqs;
};

/// One routed-graft control envelope (request, accept, and reject all
/// carry the same identity; the kind says which leg of the state machine
/// it is). `graft_id` doubles as the reliability-layer seq token — unique
/// across every graft of a simulation, so concurrent descents crossing
/// one link can never cancel each other's retransmit timers.
struct GraftEnvelope {
  GroupId group = 0;
  PeerId subscriber = kInvalidPeer;
  PeerId root = kInvalidPeer;  // initiating root, the accept/reject addressee
  std::uint64_t graft_id = 0;
};

/// One root->replica replication delta (kReplicaSyncKind, QoS 1 on the
/// dedicated replica hop layer). `sync_id` is globally unique: the
/// reliability token and the replica-side dedup key (a retransmitted
/// kPendingJoin must not book a second publish).
struct ReplicaSync {
  enum class What : std::uint8_t {
    kMember,        ///< `member` subscribed (also the bootstrap stream's unit)
    kUnmember,      ///< `member` unsubscribed or departed
    kRetain,        ///< root retained `wave` — replica mirrors it
    kPendingJoin,   ///< one publish joined the root's pending batch
    kPendingFlush,  ///< the pending batch flushed — replica drops its copy
  };
  GroupId group = 0;
  What what = What::kMember;
  PeerId member = kInvalidPeer;  // kMember / kUnmember
  GroupDelivery wave;            // kRetain: the retained range wave
  double accepted_at = 0.0;      // kPendingJoin: root-accept time
  std::uint64_t sync_id = 0;
};

// -- replica-shard coordination payloads (root_replicas > 1) ---------------
// All three ride the dedicated coord hop layer at QoS 1 (kCoordAckKind
// acks); `coord_id` is the globally unique reliability token AND the
// receiver-side dedup key, so a retransmitted lease cannot double-assign a
// range and a retransmitted handoff cannot drive a shard wave twice.

/// Slot root -> slot-0 authority: "assign me `count` dense seqs of `group`".
struct SeqLease {
  GroupId group = 0;
  std::uint32_t slot = 0;  // requesting slot
  std::uint64_t count = 0;
  std::uint64_t coord_id = 0;
};

/// Authority -> requesting slot root: the granted dense range. `lease_id`
/// echoes the lease's coord_id so the requester finds its buffered accept
/// times; `coord_id` is this grant's own token.
struct SeqGrant {
  GroupId group = 0;
  std::uint32_t slot = 0;
  std::uint64_t seq_lo = 0;
  std::uint64_t count = 0;
  std::uint64_t lease_id = 0;
  std::uint64_t coord_id = 0;
};

/// Committing slot root -> peer slot root: "drive [seq_lo, seq_hi] over
/// YOUR shard tree". One per non-origin slot per flush — the whole-group
/// wave becomes R shard waves, one per slot's pruned subtree.
struct ShardWave {
  GroupId group = 0;
  std::uint32_t slot = 0;  // the addressee's slot
  std::uint64_t seq_lo = 0;
  std::uint64_t seq_hi = 0;
  std::uint64_t coord_id = 0;
};

/// Root-driven idle beacon (kHeartbeatKind, fire-and-forget): the slot's
/// highest driven seq, forwarded down the carried shard-tree snapshot like
/// a wave. `wave` is a real wave id (same dense space) so latest-tree
/// ordering works unchanged.
struct GroupHeartbeat {
  GroupId group = 0;
  std::uint64_t highest_seq = 0;
  std::uint64_t wave = 0;
  std::shared_ptr<const GroupTree> tree;
};

// Fixed tuning of the QoS 2 end-to-end repair plane (unused below QoS 2).
/// Quiet time between detecting a gap and NACKing it — and between
/// repair rounds. Should comfortably exceed one per-hop ack timeout so
/// QoS 1 recovery gets the first shot at every gap.
inline constexpr double kGapTimeout = 0.1;
/// Extra NACK transmissions allowed per missing seq beyond one per
/// ancestor (the chain itself sets the baseline — walking it is not a
/// retry): slack for NACK/repair envelopes the network lost. A miss from
/// the chain's end (the root) abandons the gap immediately — nobody
/// farther out can serve it — so this bound only governs lossy reruns,
/// and the window can never stall on an unservable gap.
inline constexpr std::size_t kMaxNackAttempts = 8;
/// Out-of-order waves a subscriber holds back per group before the
/// window force-abandons its oldest gaps to release them.
inline constexpr std::size_t kReorderLimit = 256;
/// App messages per publish envelope before the publisher's buffer
/// flushes early (mirrors PubSubConfig::max_batch on the root side).
inline constexpr std::size_t kPublisherMaxBatch = 16;
/// Heartbeat beacon rounds re-armed after each flush (their only
/// redundancy — beacons are fire-and-forget); bounded so an idle group
/// goes silent and run() terminates.
inline constexpr std::size_t kHeartbeatRounds = 2;

struct PubSubConfig {
  GroupConfig groups;
  /// Publish coalescing at each slot root: publishes to the same group
  /// arriving within `batch_window` simulated seconds are merged into one
  /// tree wave carrying the sequence range they span. 0 (the default)
  /// disables coalescing — every publish envelope commits at once as its
  /// own wave. The window is measured from the first
  /// buffered publish (a flush timer, not a sliding deadline), so worst-
  /// case added latency is exactly one window.
  double batch_window = 0.0;
  /// Publishes per wave before the buffer flushes early (a full batch
  /// must not wait out the window); also caps the range an envelope,
  /// a pending hop entry, and a retained-buffer slot can cover.
  std::size_t max_batch = 16;
  /// Replica-sharded roots: rendezvous-hash each group to this many anchor
  /// points and partition the root role across the nearest alive peer to
  /// each. Subscribers are owned by their nearest anchor's slot; control
  /// traffic targets the owner slot's root; each flush drives one pruned
  /// shard tree per slot, with a seq-lease protocol keeping (group, seq)
  /// globally unique and dense. Every R runs the same pipeline: 1 (the
  /// default) is its one-slot case — slot 0 is the group's rendezvous root
  /// and its own seq authority, so the lease plane and the shard handoffs
  /// stay silent and each publish drives one wave over the whole tree.
  /// Overrides `groups.root_replicas`, which must be <= 1 or equal (else throws).
  std::size_t root_replicas = 1;
  /// Publisher-side batching: app messages published by one peer to one
  /// group within this window ride ONE kPublishKind envelope (carrying a
  /// count) to the root, multiplying with root-side coalescing. 0 (the
  /// default) disables it — bit-passive, the historic per-publish path.
  double publisher_batch_window = 0.0;
  sim::LatencyModel latency = sim::LatencyModel::constant(0.01);
  /// Extra stochastic loss on top of the always-on "departed peers drop
  /// everything" rule.
  sim::LossModel loss;
  /// Payload-path delivery guarantee: QoS 0 (the default) is the historic
  /// fire-and-forget tree push; QoS 1 acks every kDeliverKind hop and
  /// retransmits on timeout per `ack_timeout`/`max_retries`; QoS 2 adds
  /// subscriber-side gap detection and ancestor repair (see kGapTimeout).
  multicast::ReliabilityConfig reliability{multicast::QoS::kFireAndForget};
  /// Subscribe path for roots holding a clean cached tree: true (the
  /// default) drives the zone descent with routed kGraftRequestKind
  /// envelopes — one real hop per descent decision, QoS 1, visible in
  /// NetworkStats::sent_by_kind; false runs GroupManager::subscribe's synchronous local
  /// descent (the golden oracle, bit-identical on lossless seeds).
  bool routed_graft = true;
  /// Warm root failover: every group root streams membership deltas,
  /// retained-range inserts, and pending-batch joins to the group's
  /// replica (kReplicaSyncKind, QoS 1), so root death promotes a warm
  /// successor that inherits the subscriber set, serves post-migration
  /// NACKs from replicated history, and adopts the pending batch. False
  /// (the default) keeps the historic cold rebuild — the oracle, and
  /// bit-identical to it on no-kill seeds.
  bool warm_failover = false;
  /// Root-driven session heartbeats (QoS 2 only): seconds between the
  /// kHeartbeatRounds idle beacons after a flush; 0 (the default) disables
  /// them. Closes the final-wave blind spot — see the header comment.
  double heartbeat_interval = 0.0;
  std::uint64_t seed = 1;
};

/// Pure per-(subscriber, group) sequencing state for QoS 2: tracks the
/// highest contiguous seq released so far, the set of missing seqs (gaps),
/// and the received-but-held-back out-of-order waves, releasing runs in
/// order as gaps fill or are abandoned. No timers, no I/O — the
/// PubSubSystem drives it from arrivals and owns the NACK machinery — so
/// it unit-tests in isolation (tests/groups_qos2_test.cpp).
///
/// The window initializes at the first seq observed (a late joiner must
/// not NACK the group's entire history); seqs below the head after that
/// are reported as pre-window and left to the caller to release out of
/// band. Duplicate filtering is the caller's job (the per-(group, seq)
/// dedup already exists): observe() assumes every call is a first sighting.
class SubscriberWindow {
 public:
  explicit SubscriberWindow(std::size_t reorder_limit = kReorderLimit)
      : reorder_limit_(reorder_limit == 0 ? 1 : reorder_limit) {}

  struct Arrival {
    /// Seqs below the window head: release immediately out of band, no
    /// window change. A range straddling the head is split — the below-
    /// head part lands here, the rest runs through the window — so range
    /// admission never regresses the head.
    std::vector<std::uint64_t> pre_window;
    /// Seqs newly discovered missing (became gaps) by this arrival.
    std::vector<std::uint64_t> new_gaps;
    /// Seqs released in order by this arrival (includes the arrival itself
    /// when it was contiguous); empty means the arrival was held back.
    std::vector<std::uint64_t> released;
    /// Gaps the reorder bound forced the window to give up on (already
    /// excluded from `released` — they were never received).
    std::vector<std::uint64_t> forced_abandoned;
  };

  /// Records the arrival of `seq` and advances the window.
  [[nodiscard]] Arrival observe(std::uint64_t seq) { return observe_range(seq, seq); }

  /// Range admission: records the arrival of the dense seq range
  /// [lo, hi] (inclusive) in one call — the batched-wave hot path. The
  /// in-order case (range starts at the head, nothing held or missing)
  /// releases the whole range without touching the gap/held sets;
  /// otherwise the range splits into pre-window, gap-filling, and ahead-
  /// of-head parts with per-seq bookkeeping, so gap detection and NACKs
  /// stay per-seq while release is range-at-a-time.
  [[nodiscard]] Arrival observe_range(std::uint64_t lo, std::uint64_t hi);

  /// Gives up on missing `seq`: the window will skip it. Returns the seqs
  /// released by the skip (empty when an earlier gap still blocks the
  /// head). No-op (empty) when `seq` is not a gap.
  [[nodiscard]] std::vector<std::uint64_t> abandon(std::uint64_t seq);

  /// Horizon observation (the heartbeat path): every seq in [frontier, hi]
  /// the window has never admitted becomes a gap, exactly as if a later
  /// wave had revealed it; returns the fresh gaps for the caller to book
  /// and NACK. No-op on an uninitialized window — a beacon must not owe a
  /// late joiner the group's entire history.
  [[nodiscard]] std::vector<std::uint64_t> mark_through(std::uint64_t hi);

  [[nodiscard]] bool initialized() const noexcept { return initialized_; }
  /// Lowest seq not yet released or skipped (the window head).
  [[nodiscard]] std::uint64_t next_expected() const noexcept { return next_expected_; }
  [[nodiscard]] std::size_t gap_count() const noexcept { return gaps_.size(); }
  [[nodiscard]] std::size_t held_count() const noexcept { return held_.size(); }
  [[nodiscard]] bool is_gap(std::uint64_t seq) const { return gaps_.count(seq) > 0; }

 private:
  /// Advances the head over held (release) and skipped (silently pass)
  /// seqs, appending released ones to `released`.
  void release_run(std::vector<std::uint64_t>& released);

  bool initialized_ = false;
  std::uint64_t next_expected_ = 0;
  /// One past the highest seq ever admitted. Every seq in
  /// [next_expected_, frontier_) is held, a gap, or skipped, so new gaps
  /// can only open at or above the frontier — the gap-marking loop starts
  /// there instead of rescanning from the head (O(new gaps) amortised,
  /// not O(reorder distance) per out-of-order arrival).
  std::uint64_t frontier_ = 0;
  std::set<std::uint64_t> held_;     // received, awaiting an earlier gap
  std::set<std::uint64_t> gaps_;     // missing, under repair
  std::set<std::uint64_t> skipped_;  // abandoned above the head, to pass over
  std::size_t reorder_limit_;
};

/// Owns the simulator, the per-peer protocol nodes, and the GroupManager.
/// Schedule a workload in virtual time, run(), then read the stats.
class PubSubSystem {
 public:
  PubSubSystem(const overlay::OverlayGraph& graph, PubSubConfig config = {});
  ~PubSubSystem();
  PubSubSystem(const PubSubSystem&) = delete;
  PubSubSystem& operator=(const PubSubSystem&) = delete;

  /// Book an operation of `peer` at `time`; a peer outside the overlay
  /// throws std::out_of_range here.
  void subscribe_at(double time, PeerId peer, GroupId group);
  void unsubscribe_at(double time, PeerId peer, GroupId group);
  void publish_at(double time, PeerId peer, GroupId group);
  /// The peer stops responding at `time`; membership and trees are
  /// repaired through the GroupManager at the same instant.
  void depart_at(double time, PeerId peer);
  /// Same, effective immediately at the simulator's current time — the
  /// entry point for in-simulation failure injectors (schedule through
  /// this, not the bare GroupManager, so grafts aborted by the departure
  /// get their resubscribes issued).
  void depart_now(PeerId peer);

  /// Runs the event loop until idle; returns events processed.
  std::size_t run(std::size_t max_events = 50'000'000);

  /// Observer invoked on every application-level delivery (for QoS 2 that
  /// is in-order release time, not arrival time) — the hook the per-QoS
  /// ordering tests watch. Pass nullptr to clear.
  using DeliveryProbe =
      std::function<void(PeerId peer, GroupId group, std::uint64_t seq, double time)>;
  void set_delivery_probe(DeliveryProbe probe) { probe_ = std::move(probe); }

  /// Attaches a trace sink (nullptr detaches): every wave-lifecycle point —
  /// publish accept, root buffer/flush, per-hop send/retransmit/ack,
  /// delivery, gap detect/NACK/repair, graft step, tree maintenance — emits
  /// a structured obs::TraceEvent into it. Strictly passive: delivered
  /// sets, all stats, and the event schedule are bit-identical with and
  /// without a sink on the same seed (tests/obs_trace_test.cpp pins this);
  /// with no sink attached every emit site is one null-check.
  void set_trace_sink(obs::TraceSink* sink);

  [[nodiscard]] sim::Simulator& simulator() noexcept { return *sim_; }
  [[nodiscard]] GroupManager& manager() noexcept { return *manager_; }
  [[nodiscard]] GroupStats total_stats() const { return manager_->total_stats(); }
  [[nodiscard]] const GroupStats& stats(GroupId group) const {
    return std::as_const(*manager_).stats(group);
  }
  /// Data-plane per-hop reliability counters (the obs snapshot exports
  /// them alongside GroupStats/NetworkStats).
  [[nodiscard]] const multicast::HopStats& hop_stats() const noexcept {
    return hop_->stats();
  }
  /// Slot-root coordination plane per-hop counters (kSeqLeaseKind,
  /// kSeqGrantKind and kShardWaveKind sends with their retransmissions,
  /// kCoordAckKind acks): the one owner of that plane's retransmissions
  /// and abandons. All zero with one slot, where the plane never sends.
  [[nodiscard]] const multicast::HopStats& coord_hop_stats() const noexcept {
    return coord_hop_->stats();
  }
  /// The data-plane hop layer, read-only (e.g. its pending_to()).
  [[nodiscard]] const multicast::ReliableHopLayer& data_hops() const noexcept {
    return *hop_;
  }
  /// Hops still awaiting an ack over the data, graft, replica and coord
  /// layers. A drained run holds none: each hop was acked, abandoned, or
  /// dropped with its dead sender.
  [[nodiscard]] std::size_t pending_hops() const noexcept;
  [[nodiscard]] const PubSubConfig& config() const noexcept { return config_; }

  /// A QoS 2 window that still holds gaps, neither repaired nor abandoned.
  struct OpenGapWindow {
    PeerId peer = kInvalidPeer;
    GroupId group = 0;
    std::size_t gaps = 0;
    bool timer_armed = false;
  };
  /// Every (peer, group) window with open gaps, ascending by (peer, group).
  /// Observation only. A drained run leaves gaps only at departed peers:
  /// a dead subscriber's gap timer fires once, finds it dead and stops.
  [[nodiscard]] std::vector<OpenGapWindow> open_gap_windows() const;

  /// Frees the payload pool's cached blocks. Safe only once the run is
  /// idle (no live envelopes/retained handles still borrowing blocks is
  /// NOT required — handles keep their block; only the free cache is
  /// dropped). Bench drivers call this between cells so one cell's pool
  /// high-water mark doesn't sit resident while the next cell measures.
  void release_pools() { payload_pool_.release(); }

 private:
  class PubSubNode;
  friend class PubSubNode;

  /// Per-gap repair progress, owned by the system (the SubscriberWindow
  /// stays pure): when it was detected, how far up the ancestor chain the
  /// NACKs have escalated, and how many were sent.
  struct GapState {
    double detected_at = 0.0;
    std::size_t ancestor = 0;  // index into the current ancestor chain
    std::size_t attempts = 0;  // NACK transmissions so far
  };
  /// A subscriber's QoS 2 state for one group.
  struct WindowState {
    SubscriberWindow window;
    std::map<std::uint64_t, GapState> gaps;
    /// Snapshot of the newest wave seen — the source of the ancestor
    /// chain NACKs walk (trees drift across waves; newest wins, and a
    /// repair's resent old wave must not regress it).
    std::shared_ptr<const GroupTree> latest_tree;
    std::uint64_t latest_wave = 0;
    bool timer_armed = false;
  };

  /// Per-(group, slot) publish coalescing buffer, resident at the slot
  /// root: publishes join the pending batch until the window timer fires
  /// or the batch fills, then flush as one range wave. The buffer holds
  /// only a count — publishes carry no payload bytes here, so a batch is
  /// fully described by how many seqs it will span.
  struct PendingBatch {
    std::size_t count = 0;
    PeerId root = kInvalidPeer;  // the peer buffering (dies with it)
    sim::EventId timer = 0;      // window-flush timer, cancelled on early flush
    /// Root-accept time of each buffered publish, in join order — they map
    /// onto the flush's dense seq range for publish->delivery latency.
    /// Dropped with the batch when the buffering root dies.
    std::vector<double> accepted;
  };
  /// A non-authority slot root's accepted publishes, leasing their seqs
  /// from the authority (slot 0).
  struct PendingLease {
    GroupId group = 0;
    std::uint32_t slot = 0;
    PeerId root = kInvalidPeer;
    PeerId origin = kInvalidPeer;  // unbatched publisher, for the accept trace
    std::vector<double> accepted;
  };

  /// Books a subscribe, unsubscribe or unbatched publish (Kind) of `peer`
  /// at `time` as a raw (thunk, peer's node, group) event: no closure and
  /// no table, the thunk's Kind names the operation.
  template <sim::MessageKind Kind>
  void schedule_control(double time, PeerId peer, GroupId group);
  /// A booked operation firing: routes it from `peer` toward its root, or
  /// adds a publish to the peer's batch when publishers batch.
  void issue_control(PeerId peer, GroupId group, sim::MessageKind kind);
  void handle_at_root(PeerId self, sim::MessageKind kind, const GroupRequest& request);
  void forward_control(PeerId self, sim::MessageKind kind, const GroupRequest& request);
  /// Books `count` publishes from `origin` accepted at `self` (its owner
  /// slot's root) and commits them at once, or buffers them when root
  /// coalescing is on. The one publish pipeline, whatever the slot count.
  void shard_publish(PeerId self, GroupId group, std::uint32_t slot,
                     std::uint32_t count, PeerId origin);
  /// Commits the (group, slot) pending batch as one range. `window_expired`
  /// selects the flush-reason counter (window timer vs. batch full). A
  /// batch whose buffering root died is dropped — those publishes died at
  /// the root exactly like unbatched publishes addressed to a dead root.
  void flush_shard_batch(GroupId group, std::uint32_t slot, bool window_expired);
  /// Commits `count` accepted publishes at `root` (slot `slot`): slot 0
  /// assigns the dense seq range locally (it IS the authority), any other
  /// slot leases one via kSeqLeaseKind and launches on the grant. `origin`
  /// is the publisher of an unbatched envelope (its accept is traced with
  /// the wave), kInvalidPeer for a flushed batch.
  void shard_commit(GroupId group, std::uint32_t slot, PeerId root,
                    std::uint64_t count, std::vector<double> accepted, PeerId origin);
  /// A committed range fans out: every other alive slot root gets a
  /// kShardWaveKind handoff, then the origin drives its own shard tree.
  void launch_wave(GroupId group, std::uint32_t origin_slot, PeerId origin_root,
                   std::uint64_t seq_lo, std::uint64_t seq_hi, PeerId origin);
  /// Drives [lo, hi] over `slot`'s shard tree from its root: fresh wave
  /// id, expected-delivery booking, dissemination, heartbeat re-arm.
  void drive_shard_wave(GroupId group, std::uint32_t slot, PeerId root,
                        std::uint64_t lo, std::uint64_t hi, PeerId origin);
  void on_seq_lease(PeerId self, PeerId from, const SeqLease& lease);
  void on_seq_grant(PeerId self, PeerId from, const SeqGrant& grant);
  void on_shard_wave(PeerId self, PeerId from, const ShardWave& wave);
  /// Retry-budget exhaustion on the coord hop: a lease or handoff whose
  /// addressee died re-dispatches to the CURRENT authority / slot root
  /// (the promotion path), a lost grant is a documented seq hole.
  void on_coord_abandon(const std::any& payload);
  /// Sends `pending`'s kSeqLeaseKind from its root to the CURRENT authority
  /// under a fresh coord id and parks it in lease_pending_ until the grant.
  /// With the root or the authority dead its publishes are lost, like
  /// publishes addressed to a dead root.
  void request_seq_lease(PendingLease pending);
  /// Writes `accepted` into accept_times_[group] at [seq_lo, ...): grants
  /// land out of order across slots, so this assigns by index rather than
  /// appending.
  void record_accept_times(GroupId group, std::uint64_t seq_lo,
                           const std::vector<double>& accepted);
  // -- publisher-side batching ---------------------------------------------
  [[nodiscard]] bool publisher_batching() const noexcept {
    return config_.publisher_batch_window > 0.0;
  }
  void publisher_join(PeerId peer, GroupId group);
  void publisher_flush(PeerId peer, GroupId group);

  // -- routed graft control plane -----------------------------------------
  /// Root half of a graftable subscribe: registers the in-flight cursor
  /// and takes the first descent decision locally (the root IS the first
  /// decision point; no envelope is owed to reach yourself).
  void start_graft(PeerId root, GroupId group, PeerId subscriber);
  /// Takes one descent decision at `self` and acts on the outcome:
  /// descend (route the request on), attached (accept to the root), or
  /// failed (reject to the root / local abort when self is the root).
  void advance_graft(PeerId self, const GraftEnvelope& graft);
  void on_graft_request(PeerId self, PeerId from, const GraftEnvelope& graft);
  void on_graft_accept(PeerId self, PeerId from, const GraftEnvelope& graft);
  void on_graft_reject(PeerId self, PeerId from, const GraftEnvelope& graft);
  /// Abort + abort-and-resubscribe: gives the graft up through the
  /// manager (cache dirtied) and re-issues the subscribe from the
  /// subscriber when it survived — the liveness half of the state machine.
  void abort_graft(std::uint64_t graft_id);
  void resubscribe(GroupId group, PeerId subscriber);
  /// Handles one arrival of a wave at `self` (`from == kInvalidPeer` for
  /// the slot root's own copy at drive time): ack, dedup, retain, deliver
  /// (QoS 2: through the window), forward. Range-aware end to end — a
  /// partially-duplicate range (a repair filled part of it first) delivers
  /// only the fresh seqs but still forwards the whole envelope.
  void disseminate(PeerId self, PeerId from, const DeliveryPtr& delivery_ptr);

  // -- QoS 2 repair plane -------------------------------------------------
  /// The (self, group) window state, or nullptr when this subscriber never
  /// consumed a wave of the group — the one shared lookup every repair-
  /// plane entry point starts from.
  [[nodiscard]] WindowState* find_window(PeerId self, GroupId group);
  /// Same, but created (uninitialized window, no snapshot) on first use —
  /// the data-plane admission path.
  [[nodiscard]] WindowState& ensure_window(PeerId self, GroupId group);
  /// Runs the fresh (non-duplicate) sub-range [lo, hi] of `delivery`
  /// through `self`'s window: detects gaps, arms the gap timer, releases
  /// in-order runs.
  void window_observe(PeerId self, const GroupDelivery& delivery, std::uint64_t lo,
                      std::uint64_t hi);
  /// Gap-timeout tick for one (subscriber, group): defers to in-flight
  /// per-hop recovery, else NACKs every outstanding gap (escalating those
  /// already tried) and abandons the ones out of attempts.
  void on_gap_timer(PeerId self, GroupId group);
  /// Responder half: serve retained seqs with kRepairKind, report the rest
  /// with kRepairMissKind.
  void on_nack(PeerId self, const GapNack& nack);
  /// A repaired wave arrived: dedup, then fill the gap through the window.
  void on_repair(PeerId self, const DeliveryPtr& delivery_ptr);
  /// The responder (`from`) lacked some seqs: escalate them past it
  /// immediately (no extra gap timeout). Level-aware: a miss from below a
  /// gap's current target is stale (several NACK rounds can be in flight)
  /// and ignored; a miss from the chain's end abandons the gap.
  void on_repair_miss(PeerId self, PeerId from, const GapRepairMiss& miss);

  /// Sends one batched NACK per distinct ancestor target for `seqs`
  /// (which must be outstanding gaps of (self, group)), bumping attempts
  /// and abandoning seqs whose budget is spent. `escalate` moves each
  /// already-tried gap one ancestor up first.
  void send_nacks(PeerId self, GroupId group, WindowState& ws,
                  const std::vector<std::uint64_t>& seqs, bool escalate);
  /// `self`'s ancestors in its latest wave snapshot, nearest first, dead
  /// peers skipped (the façade's immediate-departure rule doubles as a
  /// perfect failure detector, as everywhere else in this layer). Under
  /// warm failover the group's CURRENT root is appended when the
  /// snapshot's root died mid-repair — the promoted successor holds the
  /// replicated history the chain would otherwise dead-end short of.
  [[nodiscard]] std::vector<PeerId> ancestor_chain(PeerId self, GroupId group,
                                                   const WindowState& ws) const;

  // -- warm root failover ---------------------------------------------------
  [[nodiscard]] bool warm() const noexcept { return config_.warm_failover; }
  /// One delta to the group's replica: assigns sync id, books the cost
  /// (replica_sync_envelopes; plus migration_envelopes when `migration`),
  /// and sends on the replica hop layer. No-op when no replica exists.
  void replica_send(PeerId root, GroupId group, ReplicaSync sync, bool migration);
  /// Membership delta convenience (subscribe/unsubscribe/departure).
  void replica_sync_membership(PeerId root, GroupId group, PeerId member,
                               bool subscribed);
  /// Replica half: ack, dedup by sync id, apply — membership into the
  /// manager's replica copy, retains into the replica's own
  /// RetainedBuffer, pending joins into replica_pending_. Stale deliveries
  /// (this peer is no longer the group's replica) are dropped.
  void on_replica_sync(PeerId self, PeerId from, const ReplicaSync& sync);
  /// Streams the group's full root state — membership, retained ranges,
  /// pending batch — to a freshly assigned replica, one sync envelope per
  /// item (the handoff costs real messages). `migration` attributes the
  /// stream to migration_envelopes.
  void bootstrap_replica(GroupId group, bool migration);
  /// Post-migration half of depart_now: trace/count the promotion, adopt
  /// the replica's pending-batch copy at the new root (QoS 1+), and
  /// bootstrap the successor's own replica.
  void handle_promotion(const GroupManager::RootPromotion& promotion);

  // -- session heartbeats ---------------------------------------------------
  [[nodiscard]] bool heartbeats_enabled() const noexcept {
    return config_.heartbeat_interval > 0.0 && end_to_end();
  }
  /// (Re)arms a fresh round of beacons for the group — called after every
  /// flush; a newer flush's epoch invalidates older pending ticks.
  void schedule_heartbeat(GroupId group);
  void heartbeat_tick(GroupId group, std::uint64_t epoch);
  /// Issues one beacon per slot from the slot's current root down a fresh
  /// shard-tree snapshot (post-promotion beacons therefore come from the
  /// successor).
  void send_heartbeat(GroupId group);
  /// Beacon processing at `self`: mark the window through the advertised
  /// horizon (new gaps NACK as usual), forward to tree children.
  void on_heartbeat(PeerId self, const GroupHeartbeat& hb);
  void arm_gap_timer(PeerId self, GroupId group, WindowState& ws);
  /// Books an application-level delivery (counter + probe).
  void deliver_local(PeerId self, GroupId group, std::uint64_t seq);
  /// Dense-range variant of deliver_local — identical bookkeeping in the
  /// identical order, with the per-group lookups hoisted out of the loop
  /// (the QoS 0/1 subscriber hot path delivers whole batched ranges).
  void deliver_range(PeerId self, GroupId group, std::uint64_t lo, std::uint64_t hi);

  /// The tail of a single-seq delivery (deliver_range inlines the same
  /// steps): publish->delivery latency sample plus the probe.
  void apply_delivery(PeerId self, GroupId group, std::uint64_t seq, double time);
  /// Removes a gap as repaired/abandoned, with latency accounting; for
  /// abandoned gaps also advances the window and releases what it frees.
  void finish_gap(PeerId self, GroupId group, WindowState& ws, std::uint64_t seq,
                  bool repaired);

  [[nodiscard]] bool acked() const noexcept {
    return multicast::requires_ack(config_.reliability.qos);
  }
  [[nodiscard]] bool end_to_end() const noexcept {
    return config_.reliability.qos == multicast::QoS::kEndToEnd;
  }
  [[nodiscard]] bool batching() const noexcept {
    return config_.batch_window > 0.0 && config_.max_batch > 1;
  }

  const overlay::OverlayGraph& graph_;
  PubSubConfig config_;
  /// Recycles the refcount+payload block behind every wave's DeliveryPtr.
  /// Declared before every member that can hold a payload (simulator
  /// envelopes, hop-layer pending tables, the manager's retained buffers):
  /// members destroy in reverse order, so the pool outlives all of its
  /// handles.
  util::RcPool<GroupDelivery> payload_pool_;
  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<GroupManager> manager_;
  std::unique_ptr<multicast::ReliableHopLayer> hop_;
  /// Graft control hops: always QoS 1 (ack kGraftAckKind, retransmit on
  /// timeout) whatever the data plane runs at — a lost descent envelope
  /// must retry, not strand the subscriber. One layer carries all three
  /// graft kinds; graft ids keep the (from, to, seq) key space disjoint.
  std::unique_ptr<multicast::ReliableHopLayer> graft_hop_;
  /// Warm-failover replication stream: always QoS 1 like the graft plane
  /// (a lost delta must retry — the replica's copy is only as good as the
  /// stream), sync ids keying the (from, to, seq) space. Built only when
  /// warm_failover is on.
  std::unique_ptr<multicast::ReliableHopLayer> replica_hop_;
  /// Replica-shard coordination stream: seq leases/grants and shard-wave
  /// handoffs among a group's slot roots, always QoS 1 like the graft
  /// plane — coordination must retry, not silently drop a committed range.
  /// Silent with one slot.
  std::unique_ptr<multicast::ReliableHopLayer> coord_hop_;
  std::vector<std::unique_ptr<PubSubNode>> nodes_;
  std::map<GroupId, std::uint64_t> next_seq_;
  /// One coalescing buffer per (group, slot): each slot root coalesces the
  /// publishes IT ingests.
  std::map<std::pair<GroupId, std::uint32_t>, PendingBatch> shard_pending_;
  /// A non-authority slot root's accepted publishes awaiting their seq
  /// grant, keyed by the lease's coord_id.
  std::map<std::uint64_t, PendingLease> lease_pending_;
  /// Highest seq each slot root has driven over its shard tree — the
  /// per-slot heartbeat horizon. A global next_seq_ horizon would advertise
  /// seqs a slot root has not yet received via its kShardWaveKind handoff,
  /// tricking subscribers into NACKs that miss at the root and abandon.
  std::map<std::pair<GroupId, std::uint32_t>, std::uint64_t> shard_horizon_;
  std::uint64_t next_coord_id_ = 1;
  /// (peer, coord id) pairs already applied (lease/grant/handoff dedup; a
  /// coord id is globally unique and has one addressee).
  util::PeerTable<util::NoValue> coord_seen_;
  /// Publisher-side batching buffers, keyed (publisher, group).
  struct PublisherBatch {
    std::size_t count = 0;
    sim::EventId timer = 0;
  };
  std::map<std::pair<PeerId, GroupId>, PublisherBatch> publisher_pending_;
  std::uint64_t next_wave_ = 0;
  /// The QoS 1+ dedup that tells a retransmission (or duplicate repair)
  /// from fresh data: covered seq ranges per (peer, group, slot), one
  /// table probe per arrival. Unused under QoS 0, where snapshot-tree
  /// forwarding makes duplicates impossible. An entry is only needed while
  /// the parent's retransmission window is open, but the receiver cannot
  /// observe that locally, so entries live for the simulation; each costs
  /// O(1 + gaps), not O(seqs).
  SeenRanges seen_ranges_;
  /// The current arrival's fresh runs (seen_ranges_.mark's output), reused
  /// so the per-hop dedup never allocates.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> fresh_scratch_;
  /// QoS 2 windows, one per (peer, group) that consumed a wave: the
  /// table maps PeerKey{peer, 0, group} to a slot of `windows_`. Windows
  /// are never dropped, so slots are stable indices; a WindowState& is
  /// valid only until the next ensure_window (the slab may reallocate).
  util::PeerTable<std::uint32_t> window_slots_;
  std::vector<WindowState> windows_;
  /// (peer, graft id) pairs whose descent step already ran at that peer —
  /// the dedup that keeps a retransmitted kGraftRequestKind from replaying
  /// a decision (a descent visits each peer at most once, so the id alone
  /// is the per-peer key).
  util::PeerTable<util::NoValue> graft_seen_;
  /// (peer, sync id) pairs already applied — the dedup that keeps a
  /// retransmitted (non-idempotent) kPendingJoin from double-booking.
  util::PeerTable<util::NoValue> sync_seen_;
  std::uint64_t next_sync_id_ = 1;
  /// The replica's copy of its group's pending batch (count + accept
  /// times), fed by kPendingJoin/kPendingFlush syncs and consumed at
  /// promotion. Keyed by group: the manager guarantees one replica per
  /// group, and stale syncs are dropped before reaching this map.
  struct ReplicaPending {
    std::size_t count = 0;
    std::vector<double> accepted;
  };
  std::map<GroupId, ReplicaPending> replica_pending_;
  /// Per-group beacon scheduling: rounds left in the current post-flush
  /// burst, and an epoch counter that invalidates ticks a newer flush
  /// superseded (so timers never need cancelling).
  struct HeartbeatState {
    std::uint64_t epoch = 0;
    std::size_t rounds_left = 0;
  };
  std::map<GroupId, HeartbeatState> heartbeat_;
  DeliveryProbe probe_;
  // -- observability (all passive; maintained identically with tracing on
  // or off so attaching a sink cannot perturb a seeded run) ---------------
  obs::Tracer tracer_;
  /// Per-group root-accept time of every seq assigned so far (seqs are
  /// dense from 0, so the vector index IS the seq) — the publish side of
  /// the publish->delivery latency histogram. Keyed group_key(group).
  util::PeerTable<std::vector<double>> accept_times_;
  /// Wave id -> group (wave ids are dense from 0): lets the hop-ack trace
  /// tap attribute an ack — which carries only the wave id — to its group.
  std::vector<GroupId> wave_groups_;
};

}  // namespace geomcast::groups
