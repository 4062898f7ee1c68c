// Group membership and tree-cache management for the pub/sub subsystem.
//
// Conceptually this state lives at each group's rendezvous root (the peer
// whose identifier is nearest the group id's hash point); the class
// aggregates all roots' state behind one façade, the same way the
// synchronous builders consult the global OverlayGraph while making only
// local decisions. The message-driven pipeline (groups/pubsub.hpp) drives
// it from real envelopes delivered to the roots.
//
// Tree caching: each replica slot's tree (at R == 1, slot 0's tree spans
// the whole group) is built lazily on first publish and shared across
// publishes. Membership changes update the cached tree incrementally
// (graft/prune); departures mend it in place via the stability-layer
// repair rule. A full rebuild happens only when (a) repair gives up or
// stale zones block a graft, (b) the accumulated incremental changes
// exceed `rebuild_threshold` times the slot's member count, or (c) the
// slot's root itself departs and the slot migrates.
//
// Root elections search an index of the peers sorted by first coordinate
// (nearest_alive_peer), walking outward from the anchor: a few peers per
// election instead of a scan of all n.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "groups/delivery.hpp"
#include "groups/group_stats.hpp"
#include "groups/group_tree.hpp"
#include "util/peer_table.hpp"
#include "obs/trace.hpp"
#include "overlay/graph.hpp"

namespace geomcast::groups {

/// The PeerTable key of group-wide state, which no peer owns.
[[nodiscard]] inline util::PeerKey group_key(GroupId group) noexcept {
  return util::PeerKey{0, 0, group};
}

/// Bounded per-(peer, group) wave retention backing QoS 2 gap repair:
/// the root and every forwarder keep the last `capacity` seqs of waves
/// they pushed down the tree so a subscriber's NACK can be answered from
/// the nearest in-tree ancestor instead of the publisher. Eviction is
/// oldest-seq-first, so memory per buffer is hard-bounded by the
/// configured retention window (each entry also pins its wave's tree
/// snapshot, which is shared across the window's entries in the common
/// unchanged-tree case).
///
/// An entry is the wave's own 8-byte DeliveryPtr, the handle its envelopes
/// already share: the retained range is the wave's [seq, seq_hi], so the
/// buffer copies neither the range nor the payload. Storage is a
/// contiguous ring of handles sorted by seq: waves arrive in seq order, so
/// a retain is an append and an eviction pops the oldest; find is a binary
/// search. The ring grows by doubling up to capacity + 1 entries (every
/// entry covers at least one seq) and never shrinks.
class RetainedBuffer {
 public:
  explicit RetainedBuffer(std::size_t capacity = 0) : capacity_(capacity) {}

  /// Retains `wave` for its dense seq range [seq, seq_hi] (one entry — a
  /// batched wave retains once, not per seq); evicts the lowest retained
  /// ranges while the buffer covers more than `capacity` seqs. Returns the
  /// number of seqs evicted (a zero-capacity buffer evicts the new entry
  /// itself). Re-retaining a held range (same seq) overwrites in place;
  /// ranges of one group never partially overlap — the root assigns them.
  /// Throws std::invalid_argument for a null handle or seq_hi < seq.
  std::size_t retain(DeliveryPtr wave);

  /// The retained wave whose range covers `seq`, or nullptr when absent
  /// (never held, or already evicted — the caller escalates to an older
  /// ancestor).
  [[nodiscard]] const DeliveryPtr* find(std::uint64_t seq) const;

  /// Seqs covered across all retained ranges — the unit the capacity
  /// bound is expressed in (a range wave costs its width, so batching
  /// cannot inflate the retention memory bound).
  [[nodiscard]] std::size_t size() const noexcept { return covered_; }
  /// The retained [lo, hi] ranges, lowest first — the warm-failover
  /// bootstrap enumerates these to re-stream a root's history.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges() const;
  /// Retained range entries (<= size(); one per wave).
  [[nodiscard]] std::size_t entry_count() const noexcept { return count_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  /// The i-th oldest entry (i < count_).
  [[nodiscard]] const DeliveryPtr& at(std::size_t i) const noexcept {
    const std::size_t k = head_ + i;
    return ring_[k < ring_.size() ? k : k - ring_.size()];
  }
  [[nodiscard]] DeliveryPtr& at(std::size_t i) noexcept {
    return const_cast<DeliveryPtr&>(std::as_const(*this).at(i));
  }
  /// Number of entries whose seq is <= seq (the insertion point after
  /// them).
  [[nodiscard]] std::size_t count_at_or_below(std::uint64_t seq) const noexcept;
  void grow();

  std::size_t capacity_;
  std::size_t covered_ = 0;
  std::vector<DeliveryPtr> ring_;
  std::size_t head_ = 0;   // ring_ index of the oldest entry
  std::size_t count_ = 0;  // live entries, oldest at head_
};

struct GroupConfig {
  /// Delegate-selection rule for group trees (deterministic policies only;
  /// kRandom is rejected by the tree layer).
  multicast::MulticastConfig tree;
  /// Full rebuild once in-place repairs since the last build exceed this
  /// fraction of the subscriber count. Grafts and prunes are exact (the
  /// tree stays equal to a fresh build) and never count; only repairs
  /// deviate and accumulate drift.
  double rebuild_threshold = 0.5;
  /// Waves each QoS 2 repair responder (root / forwarder) retains per
  /// group; 0 disables retention entirely (every NACK misses).
  std::size_t retention_window = 64;
  /// Replica-sharded roots: rendezvous-hash each group to this many anchor
  /// points in coordinate space and partition the root's state across the
  /// nearest alive peer to each anchor. 1 (the default) is the one-slot
  /// case: slot 0's anchor is exactly the group's rendezvous point, so
  /// root_of() never changes meaning. Subscribers are owned by the slot
  /// whose ANCHOR is nearest their coordinate (anchors are immutable, so
  /// churn moves slot roots but never reshuffles the shard partition).
  std::size_t root_replicas = 1;
};

/// Every peer of `graph`, sorted by (first coordinate, id): the index
/// nearest_alive_peer searches.
[[nodiscard]] std::vector<PeerId> peers_by_first_coordinate(const overlay::OverlayGraph& graph);

/// The root election: the peer that minimises (L1 distance to `target`,
/// id) among the alive peers not in `excluded`; kInvalidPeer when none is
/// left. The distance is summed term by term as geometry::l1_distance
/// does. `by_x` is peers_by_first_coordinate(graph). The search walks
/// outward from the target's first coordinate and stops a side once its
/// |dx| exceeds the best distance found: exact, because a computed L1 sum
/// is never below its first term (every term is non-negative and
/// rounding is monotone).
[[nodiscard]] PeerId nearest_alive_peer(const overlay::OverlayGraph& graph,
                                        std::span<const PeerId> by_x,
                                        const std::vector<bool>& alive,
                                        const geometry::Point& target,
                                        std::span<const PeerId> excluded);

class GroupManager {
 public:
  explicit GroupManager(const overlay::OverlayGraph& graph, GroupConfig config = {});

  /// The group's rendezvous root: the alive peer nearest (L1) the group
  /// id's hash point in the coordinate space. Cached; recomputed (and the
  /// group's tree invalidated) when the incumbent departs.
  [[nodiscard]] PeerId root_of(GroupId group);

  /// Synchronous subscribe: records membership AND grafts the subscriber
  /// into the cached tree in place (the local-descent oracle the routed
  /// control plane is verified against).
  void subscribe(GroupId group, PeerId peer);
  void unsubscribe(GroupId group, PeerId peer);
  [[nodiscard]] bool is_subscribed(GroupId group, PeerId peer) const;
  [[nodiscard]] std::size_t subscriber_count(GroupId group) const;

  // -- routed graft (the distributed zone descent) -------------------------
  // The message-driven subscribe path splits the oracle's subscribe() in
  // two: membership is recorded immediately at the root, while the tree
  // splice becomes an in-flight graft — a GraftCursor advanced one descent
  // decision per routed envelope. The table below holds every in-flight
  // cursor; races with publish (COW snapshots), departures (validation per
  // step), and rebuilds (abort + dirty) are resolved here.

  /// What the routed subscribe must do beyond recording membership.
  enum class SubscribeNeed {
    kNone,   ///< lazy build / existing span covers the subscriber
    kGraft,  ///< clean cached tree exists and the subscriber is not spanned
  };
  /// Records membership only (idempotent; a duplicate changes nothing) and
  /// reports whether a routed graft is owed. Mirrors subscribe()'s cache
  /// handling: when no graftable tree exists, a fresh member dirties the
  /// cache so the next publish's rebuild spans it.
  SubscribeNeed subscribe_membership(GroupId group, PeerId peer);

  /// Registers an in-flight graft of `subscriber` into `group`'s cached
  /// tree, initiated by `root`. Returns the graft id (the control plane's
  /// reliability token), or 0 when no graft can start: tree not graftable,
  /// subscriber dead/not a member, or a graft for this (group, subscriber)
  /// already in flight.
  [[nodiscard]] std::uint64_t graft_begin(GroupId group, PeerId subscriber, PeerId root);

  struct GraftAdvance {
    enum class Status {
      kDescend,   ///< decision taken; route the request to `next`
      kAttached,  ///< subscriber spliced in; report accept to the root
      kFailed,    ///< cursor invalid (stranded/raced/aborted); report reject
    };
    Status status = Status::kFailed;
    PeerId next = kInvalidPeer;
  };
  /// Takes one descent decision of graft `graft_id` at `self` (which must
  /// be the cursor's current peer). Validates the cursor against the live
  /// group state first: a rebuild, repair, migration, membership change,
  /// or participant death since the previous step fails the graft instead
  /// of corrupting the tree.
  [[nodiscard]] GraftAdvance graft_advance(std::uint64_t graft_id, PeerId self);

  /// Retires a completed graft (the root received the accept): books the
  /// graft in the group's stats. False when the entry is gone (aborted
  /// meanwhile, or a duplicate accept) — idempotent by design.
  bool graft_finish(std::uint64_t graft_id);

  struct AbortedGraft {
    GroupId group = 0;
    PeerId subscriber = kInvalidPeer;
  };
  /// Gives up on an in-flight graft: drops the cursor and dirties the
  /// group's cache so the next publish rebuilds with the subscriber's
  /// membership (the half-grafted relay path is discarded with it). The
  /// caller re-issues the subscribe for alive subscribers. nullopt when
  /// the entry is already gone — idempotent like graft_finish.
  std::optional<AbortedGraft> graft_abort(std::uint64_t graft_id);

  /// In-flight graft cursors currently held (0 once a simulation drains —
  /// the "no leaked cursor state" invariant the churn battery pins).
  [[nodiscard]] std::size_t inflight_graft_count() const noexcept {
    return grafts_.size();
  }

  /// Slot 0's dissemination tree — built lazily, cached across publishes,
  /// incrementally maintained. At R == 1 slot 0 owns every member, so this
  /// is the whole group's tree; at R > 1 it is the authority's shard.
  /// Returns nullptr when slot 0 has no members (nothing to span).
  [[nodiscard]] const GroupTree* tree(GroupId group);

  /// Same resolution, returned as a shared snapshot for an in-flight
  /// publish wave. Copy-on-write: membership/repair mutations clone the
  /// tree only while snapshots are outstanding, so unchanged-tree
  /// publishes all share one copy.
  [[nodiscard]] std::shared_ptr<const GroupTree> tree_snapshot(GroupId group);

  /// Pure lookup of slot 0's cached tree: no lazy build, no cache-hit
  /// accounting, nullptr when nothing is cached (or the cache is dirty).
  /// Observation-only — lets benches/tests inspect the tree a wave in
  /// flight is using without perturbing the stats they are measuring.
  [[nodiscard]] const GroupTree* cached_tree(GroupId group) const;

  // -- replica slots (GroupConfig::root_replicas = R >= 1) -----------------
  // Each group hashes to R immutable anchor points (slot 0's anchor is the
  // group's rendezvous point); every slot's root is the alive peer nearest
  // that slot's anchor, excluding the other slots' roots. Subscribers are
  // owned by the slot whose anchor is nearest their coordinate, so the
  // partition is a pure function of geometry and never reshuffles under
  // churn — a slot-root death promotes the next-nearest peer to the SAME
  // anchor, which inherits the whole shard (member ids, graft
  // cursors, tree) by construction. Every slot owns its own root, members
  // and cached tree; R == 1 is the one-slot case, where slot 0 owns the
  // whole group and its root is root_of().

  /// Whether groups have more than one slot (root_replicas > 1).
  [[nodiscard]] bool sharded() const noexcept { return config_.root_replicas > 1; }
  [[nodiscard]] std::size_t root_replicas() const noexcept {
    return config_.root_replicas > 1 ? config_.root_replicas : 1;
  }
  /// The slot owning `peer` for this group: argmin over anchors of the L1
  /// distance from the peer's coordinate (ties to the lowest slot). Always
  /// 0 at R == 1.
  [[nodiscard]] std::uint32_t owner_slot(GroupId group, PeerId peer);
  /// The current root of `slot` (== root_of at slot 0).
  [[nodiscard]] PeerId slot_root(GroupId group, std::uint32_t slot);
  /// slot_root(group, owner_slot(group, peer)) — where this peer's
  /// control traffic (subscribe / unsubscribe / publish) must land.
  [[nodiscard]] PeerId owner_root(GroupId group, PeerId peer);
  /// The slot's shard tree (rooted at the slot root, spanning only the
  /// slot's members), built lazily like tree_snapshot. nullptr when the
  /// shard is empty.
  [[nodiscard]] std::shared_ptr<const GroupTree> slot_tree_snapshot(GroupId group,
                                                                    std::uint32_t slot);
  /// Members owned by `slot` (the group's subscriber_count at R == 1).
  [[nodiscard]] std::size_t slot_member_count(GroupId group, std::uint32_t slot);

  // -- QoS 2 payload retention -------------------------------------------
  // Retained buffers are per-peer protocol state, not root state: they
  // survive tree rebuilds and root migrations untouched (payload history
  // is independent of tree shape), a migrated-to root simply starts
  // retaining from its first forwarded wave, and a departed peer's buffers
  // are dropped with it — the dead cannot serve repairs, which is exactly
  // why NACKs escalate ancestor-by-ancestor.

  /// Retains `wave` (covering its seqs [seq, seq_hi]) at `peer` for later
  /// repair service; bounded by GroupConfig::retention_window (counted in
  /// seqs, so batched range waves cannot inflate the memory bound).
  /// Returns seqs evicted so the caller can attribute them to the group's
  /// stats.
  std::size_t retain_payload(PeerId peer, GroupId group, DeliveryPtr wave);
  /// The wave `peer` retained covering (group, seq), or nullptr. Valid
  /// until the next retain or departure.
  [[nodiscard]] const DeliveryPtr* retained_payload(PeerId peer, GroupId group,
                                                    std::uint64_t seq) const;
  /// Highest occupancy any single retained buffer ever reached — the
  /// "memory bounded by the retention window" acceptance gate reads this.
  [[nodiscard]] std::size_t retained_peak() const noexcept { return retained_peak_; }
  /// Entries currently retained across all peers and groups.
  [[nodiscard]] std::size_t retained_entry_total() const noexcept;
  /// Live (peer, group) retained buffers. Together with
  /// retained_entry_total() this expresses the memory bound the bench
  /// gates on: entries <= buffers x retention_window — O(1) per
  /// responder-group pair, never O(waves published).
  [[nodiscard]] std::size_t retained_buffer_count() const noexcept;

  /// Synchronous (lossless) publish accounting: resolves the tree and
  /// books one payload message per edge and one delivery per spanned
  /// subscriber. The message-driven pipeline books these itself instead.
  struct PublishReceipt {
    std::uint64_t payload_messages = 0;
    std::size_t delivered = 0;
  };
  PublishReceipt publish(GroupId group);

  // -- warm root failover (PubSubConfig::warm_failover drives this) --------
  // The replica is the group's deterministic successor: the next-nearest
  // alive peer to the rendezvous point after the root. Because departures
  // only shrink the alive set, the recomputed rendezvous root after a root
  // death IS the established replica — promotion needs no election. The
  // manager keeps the replica's bookkeeping copy (member ids) inside
  // the same façade; the protocol layer drives it purely through real
  // kReplicaSyncKind envelopes, so the copy is exactly as fresh as the
  // sync stream, never an oracle shortcut.

  /// The peer that WOULD be the group's replica right now (pure compute,
  /// no state change): nearest alive peer to the rendezvous point that
  /// roots no slot; kInvalidPeer when no such peer exists.
  [[nodiscard]] PeerId replica_candidate(GroupId group);
  /// The established replica, (re)assigning it when unset or dead. A fresh
  /// assignment starts with an empty bookkeeping copy — the caller owes it
  /// a full bootstrap stream.
  PeerId ensure_replica(GroupId group);
  /// The established replica without assignment; kInvalidPeer when none.
  [[nodiscard]] PeerId replica_of(GroupId group) const;
  /// Applies one membership delta to the replica's copy (idempotent).
  void replica_apply_membership(GroupId group, PeerId member, bool subscribed);
  [[nodiscard]] std::size_t replica_member_count(GroupId group) const;

  /// Alive subscribers of the group, ascending — the bootstrap stream and
  /// the promotion consistency check enumerate these.
  [[nodiscard]] std::vector<PeerId> subscribers_of(GroupId group) const;
  /// The [lo, hi] ranges `peer` retains for `group`, lowest first.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, std::uint64_t>> retained_ranges(
      PeerId peer, GroupId group) const;

  /// One root migration, as seen by handle_departure: `warm` when the
  /// successor was the group's established replica (it inherits the
  /// synced subscriber set and its RetainedBuffer);
  /// `membership_consistent` (warm only) when the replica's synced copy
  /// matched the root's authoritative set at the instant of promotion.
  struct RootPromotion {
    GroupId group = 0;
    PeerId old_root = kInvalidPeer;
    PeerId new_root = kInvalidPeer;  ///< kInvalidPeer once no peer is alive
    bool warm = false;
    bool membership_consistent = false;
    /// Which replica slot migrated (always 0 at R == 1). Only the
    /// slot-0 (authority) promotion participates in the warm-failover
    /// protocol; other slots hand their shard to the promoted successor
    /// through the anchor-ownership rule alone.
    std::uint32_t slot = 0;
  };
  struct ReplicaLoss {
    GroupId group = 0;
    PeerId old_replica = kInvalidPeer;
  };
  /// Everything one departure obliges the protocol layer to do.
  struct DepartureOutcome {
    std::vector<AbortedGraft> aborted_grafts;  ///< re-issue these subscribes
    std::vector<RootPromotion> promotions;     ///< roots that migrated
    std::vector<ReplicaLoss> replica_losses;   ///< replicas owed a re-bootstrap
    std::vector<GroupId> member_losses;  ///< groups that lost `peer` (root alive)
  };

  /// Marks `peer` departed everywhere: membership, cached trees (repaired
  /// in place where possible), rendezvous roots (migrated, with warm
  /// promotion when the successor was the established replica), replica
  /// assignments, and in-flight grafts whose descent the departure
  /// invalidated — aborted grafts are returned so the protocol layer can
  /// re-issue the subscribes.
  DepartureOutcome handle_departure(PeerId peer);
  [[nodiscard]] bool alive(PeerId peer) const { return alive_[peer]; }

  // -- observability -------------------------------------------------------
  /// Clock for latency accounting (graft begin -> attach lands in
  /// GroupStats::graft_latency). The message-driven pipeline always wires
  /// the simulator's now(), tracing or not, so stats stay identical either
  /// way; without a clock (synchronous oracle usage) no latency samples.
  void set_clock(std::function<double()> clock) { clock_ = std::move(clock); }
  /// Attaches (nullptr: detaches) a trace sink for tree-maintenance and
  /// graft-lifecycle events. Purely passive; requires a clock for
  /// meaningful timestamps.
  void set_trace_sink(obs::TraceSink* sink) noexcept { tracer_.attach(sink); }

  /// Mutable access materializes state for a first-seen group (the
  /// protocol layer writes counters through it); the const overload is a
  /// pure lookup that leaves unknown groups unknown.
  [[nodiscard]] GroupStats& stats(GroupId group);
  [[nodiscard]] const GroupStats& stats(GroupId group) const;
  [[nodiscard]] GroupStats total_stats() const;
  [[nodiscard]] std::vector<GroupId> known_groups() const;

 private:
  /// One replica slot: its root, the members it owns, and the cached tree
  /// spanning them. A group at R == 1 keeps its whole state in slot 0.
  /// `members` is the one record of membership: each member's id, once,
  /// ascending, in its owner slot. Group-wide counts and sets are read
  /// from the slots; the cached tree holds the same members as delivery
  /// flags on its nodes plus its stranded ids.
  struct ShardSlot {
    PeerId root = kInvalidPeer;
    std::vector<PeerId> members;
    std::shared_ptr<GroupTree> cached;
    bool dirty = true;  // cached tree (if any) no longer trusted
    std::size_t repairs_since_build = 0;
  };
  /// A clean cached tree whose zones are not stale: a graft descent that
  /// carries each step's zone down from the root may splice into it.
  [[nodiscard]] static bool graftable(const ShardSlot& slot) {
    return slot.cached && !slot.dirty && !slot.cached->zones_stale;
  }

  /// Everything the group's roots hold: the slots (membership lives there
  /// and nowhere else), the anchors and the stats.
  struct GroupState {
    // Warm failover: the established replica and its sync-driven copy of
    // the subscriber set, ascending ids.
    PeerId replica = kInvalidPeer;
    std::vector<PeerId> replica_members;
    std::vector<ShardSlot> slots;          // R >= 1; slot 0 is the authority
    std::vector<geometry::Point> anchors;  // immutable slot hash points
    GroupStats stats;
  };

  /// The group's state, materialized (roots elected) on first use. Protocol
  /// code resolves a group several times per hop, so a known group costs
  /// one probe of the flat index; only creation goes out of line.
  GroupState& state_of(GroupId group) {
    if (GroupState* gs = find_state(group)) return *gs;
    return add_state(group);
  }
  /// The group's state, or nullptr for a group never touched.
  [[nodiscard]] const GroupState* find_state(GroupId group) const noexcept {
    GroupState* const* gs = state_index_.find(group_key(group));
    return gs == nullptr ? nullptr : *gs;
  }
  [[nodiscard]] GroupState* find_state(GroupId group) noexcept {
    return const_cast<GroupState*>(std::as_const(*this).find_state(group));
  }
  GroupState& add_state(GroupId group);
  /// The deterministic hash point for (group, slot); slot 0's is the
  /// group's rendezvous point.
  [[nodiscard]] geometry::Point hash_point(GroupId group, std::uint32_t slot) const;
  /// Nearest alive peer to `target` that roots none of `taken`
  /// (nearest_alive_peer over by_x_); kInvalidPeer when no candidate
  /// remains.
  [[nodiscard]] PeerId nearest_to(const geometry::Point& target,
                                  std::span<const ShardSlot> taken) const;
  [[nodiscard]] std::uint32_t owner_slot_of(const GroupState& gs, PeerId peer) const;
  /// (Re-)elects `slot`'s root: nearest alive peer to its anchor excluding
  /// the other slots' current roots (falling back to no exclusions when
  /// the alive set is smaller than R).
  [[nodiscard]] PeerId recompute_slot_root(const GroupState& gs, std::uint32_t slot) const;
  /// Lazy build: rebuilds the slot's tree when none is cached, it is
  /// dirty, or repairs drifted it past the rebuild threshold.
  void refresh_tree(GroupId group, GroupState& gs, ShardSlot& slot);
  /// COW gate: clones the cached tree iff publish-wave snapshots still
  /// reference it, then returns it for mutation.
  [[nodiscard]] GroupTree& writable_tree(std::shared_ptr<GroupTree>& cached);
  /// Departure of `peer`, which `cached`'s tree does not span: a stranded
  /// member loses its delivery flag, and a departure beside the tree
  /// stales the zones (it shrinks an in-tree peer's candidate set, so a
  /// replayed recursion — what a graft does — would pick differently; a
  /// peer with no reached neighbour changes no step on any root path).
  /// Clones only for a write that changes something: zones already stale
  /// stay stale without a copy.
  void depart_outside_tree(std::shared_ptr<GroupTree>& cached, PeerId peer);
  /// The (peer, group) retained buffer, or nullptr when it holds none.
  [[nodiscard]] const RetainedBuffer* find_retained(PeerId peer, GroupId group) const;

  struct InFlightGraft {
    GroupId group = 0;
    PeerId subscriber = kInvalidPeer;
    PeerId root = kInvalidPeer;  // initiating root (invalidates on migration)
    std::uint32_t slot = 0;      // owning shard
    GraftCursor cursor;
    double started_at = 0.0;  // clock_ at graft_begin (graft_latency sample)
  };
  /// Whether graft `g`'s cursor still matches the live state it left: the
  /// subscriber alive and a member, its slot's root unchanged, and the
  /// slot's clean, graftable tree still reaching the cursor's peer.
  [[nodiscard]] bool graft_valid(const InFlightGraft& g) const;

  const overlay::OverlayGraph& graph_;
  GroupConfig config_;
  std::vector<bool> alive_;
  std::vector<double> bounds_lo_, bounds_hi_;  // peer bounding box (immutable)
  std::vector<PeerId> by_x_;                   // peers_by_first_coordinate(graph_)
  /// Owns every group's state; ascending iteration is the order departures
  /// sweep and total_stats() sums in.
  std::map<GroupId, GroupState> groups_;
  /// The lookup path: group_key(group) -> groups_ node. Nodes are never
  /// erased, so the pointers stay valid for the manager's lifetime.
  util::PeerTable<GroupState*> state_index_;
  /// In-flight routed grafts by id, plus the (group, subscriber) guard
  /// that keeps duplicate subscribes from racing two descents for one
  /// subscriber.
  std::map<std::uint64_t, InFlightGraft> grafts_;
  std::set<std::pair<GroupId, PeerId>> grafting_;
  std::uint64_t next_graft_id_ = 1;
  /// QoS 2 retention, one buffer per (peer, group) that retained a wave:
  /// the table maps PeerKey{peer, 0, group} to a slot of `retained_slab_`
  /// (a 4-byte index keeps the table's entries at 24 bytes). A departure
  /// empties the peer's buffers and returns their slots to
  /// `retained_free_`, where the next new (peer, group) reuses them.
  util::PeerTable<std::uint32_t> retained_;
  std::vector<RetainedBuffer> retained_slab_;
  std::vector<std::uint32_t> retained_free_;
  /// Every group that ever retained a wave, ascending: a departure drops
  /// the peer's buffers with one erase per such group, never a table scan.
  std::vector<GroupId> retained_groups_;
  std::size_t retained_peak_ = 0;
  /// Observability (see set_clock/set_trace_sink): both optional, both
  /// passive — no protocol decision reads them.
  std::function<double()> clock_;
  obs::Tracer tracer_;

  [[nodiscard]] double clock_now() const { return clock_ ? clock_() : 0.0; }
};

inline GroupStats& GroupManager::stats(GroupId group) { return state_of(group).stats; }

}  // namespace geomcast::groups
