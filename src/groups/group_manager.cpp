#include "groups/group_manager.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>

#include "geometry/distance.hpp"
#include "util/rng.hpp"

namespace geomcast::groups {

std::size_t RetainedBuffer::count_at_or_below(std::uint64_t seq) const noexcept {
  std::size_t lo = 0;
  std::size_t hi = count_;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (at(mid)->seq <= seq)
      lo = mid + 1;
    else
      hi = mid;
  }
  return lo;
}

void RetainedBuffer::grow() {
  // At most capacity_ entries survive a retain (each covers >= 1 seq), so
  // capacity_ + 1 slots always suffice.
  std::size_t size = std::max<std::size_t>(4, 2 * ring_.size());
  if (size > capacity_) size = capacity_ + 1;
  std::vector<DeliveryPtr> ring(size);
  for (std::size_t i = 0; i < count_; ++i) ring[i] = std::move(at(i));
  ring_.swap(ring);
  head_ = 0;
}

std::size_t RetainedBuffer::retain(DeliveryPtr wave) {
  if (!wave) throw std::invalid_argument("RetainedBuffer::retain: null wave");
  const std::uint64_t lo = wave->seq;
  const std::uint64_t hi = wave->seq_hi;
  if (hi < lo) throw std::invalid_argument("RetainedBuffer::retain: hi < lo");
  // Waves arrive in seq order, so the common retain appends; anything else
  // (a repair's old wave, a re-retain) binary-searches its slot.
  const std::size_t pos =
      count_ == 0 || at(count_ - 1)->seq < lo ? count_ : count_at_or_below(lo);
  if (pos > 0 && at(pos - 1)->seq == lo) {
    // Re-retaining a held range overwrites in place; drop the old width
    // before adding the new so covered_ stays exact either way.
    DeliveryPtr& held = at(pos - 1);
    covered_ -= static_cast<std::size_t>(held->seq_hi - lo + 1);
    held = std::move(wave);
  } else {
    if (count_ == ring_.size()) grow();
    ++count_;
    for (std::size_t i = count_ - 1; i > pos; --i) at(i) = std::move(at(i - 1));
    at(pos) = std::move(wave);
  }
  covered_ += static_cast<std::size_t>(hi - lo + 1);
  std::size_t evicted = 0;
  while (covered_ > capacity_) {  // lowest ranges go first
    DeliveryPtr& oldest = at(0);
    const std::size_t width = static_cast<std::size_t>(oldest->count());
    covered_ -= width;
    evicted += width;
    oldest = DeliveryPtr{};
    head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
    --count_;
  }
  return evicted;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> RetainedBuffer::ranges() const {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  out.reserve(count_);
  for (std::size_t i = 0; i < count_; ++i) out.emplace_back(at(i)->seq, at(i)->seq_hi);
  return out;
}

const DeliveryPtr* RetainedBuffer::find(std::uint64_t seq) const {
  // The covering range, if any: the last entry starting at or below seq.
  const std::size_t below = count_at_or_below(seq);
  if (below == 0) return nullptr;
  const DeliveryPtr& entry = at(below - 1);
  return entry->seq_hi >= seq ? &entry : nullptr;
}

std::vector<PeerId> peers_by_first_coordinate(const overlay::OverlayGraph& graph) {
  std::vector<std::pair<double, PeerId>> keyed(graph.size());
  for (PeerId p = 0; p < keyed.size(); ++p) keyed[p] = {graph.coords(p)[0], p};
  std::sort(keyed.begin(), keyed.end());
  std::vector<PeerId> by_x(keyed.size());
  for (std::size_t i = 0; i < keyed.size(); ++i) by_x[i] = keyed[i].second;
  return by_x;
}

PeerId nearest_alive_peer(const overlay::OverlayGraph& graph, std::span<const PeerId> by_x,
                          const std::vector<bool>& alive, const geometry::Point& target,
                          std::span<const PeerId> excluded) {
  const double tx = target[0];
  const auto x_of = [&graph](PeerId p) { return graph.coords(p)[0]; };
  // by_x[left, right) has been searched; each side's next |dx| is never
  // below the last, and exactly the first term of that peer's distance.
  std::size_t right = static_cast<std::size_t>(
      std::ranges::partition_point(by_x, [&](PeerId p) { return x_of(p) < tx; }) - by_x.begin());
  std::size_t left = right;
  PeerId best = kInvalidPeer;
  double best_dist = 0.0;
  while (left > 0 || right < by_x.size()) {
    // The side with the smaller next |dx| goes first; once it is past the
    // best distance, so is every peer left on either side.
    const bool go_right =
        left == 0 || (right < by_x.size() && x_of(by_x[right]) - tx <= tx - x_of(by_x[left - 1]));
    const double dx = go_right ? x_of(by_x[right]) - tx : tx - x_of(by_x[left - 1]);
    if (best != kInvalidPeer && dx > best_dist) break;
    const PeerId p = go_right ? by_x[right++] : by_x[--left];
    if (!alive[p]) continue;
    const auto at = graph.coords(p);
    double dist = 0.0;  // l1_distance(point(p), target), term for term
    for (std::size_t d = 0; d < at.size(); ++d) dist += std::abs(at[d] - target[d]);
    if (best != kInvalidPeer && (dist > best_dist || (dist == best_dist && p > best))) continue;
    if (std::ranges::find(excluded, p) != excluded.end()) continue;
    best = p;
    best_dist = dist;
  }
  return best;
}

GroupManager::GroupManager(const overlay::OverlayGraph& graph, GroupConfig config)
    : graph_(graph),
      config_(config),
      alive_(graph.size(), true),
      by_x_(peers_by_first_coordinate(graph)) {
  if (graph.size() == 0)
    throw std::invalid_argument("GroupManager: empty overlay");
  // The peer set is immutable for this manager's lifetime; cache its
  // bounding box for rendezvous hashing.
  const std::size_t dims = graph.dims();
  bounds_lo_.assign(dims, std::numeric_limits<double>::infinity());
  bounds_hi_.assign(dims, -std::numeric_limits<double>::infinity());
  for (PeerId p = 0; p < graph.size(); ++p)
    for (std::size_t d = 0; d < dims; ++d) {
      bounds_lo_[d] = std::min(bounds_lo_[d], graph.coords(p)[d]);
      bounds_hi_[d] = std::max(bounds_hi_[d], graph.coords(p)[d]);
    }
}

geometry::Point GroupManager::hash_point(GroupId group, std::uint32_t slot) const {
  // Hash the group id to a point inside the peers' bounding box — any peer
  // can recompute this locally from the group id, so the rendezvous needs
  // no directory. Replica slots salt the stream before the per-dimension
  // draws; slot 0's salt is zero, so its point is the group's unsalted
  // rendezvous point.
  const std::size_t dims = graph_.dims();
  constexpr std::uint64_t kRendezvousSeed = 0x67656f6d63617374ULL;  // "geomcast" stream tag
  std::uint64_t sm = kRendezvousSeed ^ (group * 0x9e3779b97f4a7c15ULL);
  sm ^= static_cast<std::uint64_t>(slot) * 0xbf58476d1ce4e5b9ULL;
  geometry::Point target(dims);
  for (std::size_t d = 0; d < dims; ++d) {
    const double frac =
        static_cast<double>(util::split_mix64(sm) >> 11) * 0x1.0p-53;
    target[d] = bounds_lo_[d] + (bounds_hi_[d] - bounds_lo_[d]) * frac;
  }
  return target;
}

PeerId GroupManager::nearest_to(const geometry::Point& target,
                                std::span<const ShardSlot> taken) const {
  std::vector<PeerId> roots;
  roots.reserve(taken.size());
  for (const ShardSlot& slot : taken) roots.push_back(slot.root);
  return nearest_alive_peer(graph_, by_x_, alive_, target, roots);
}

GroupManager::GroupState& GroupManager::add_state(GroupId group) {
  GroupState gs;
  gs.slots.resize(root_replicas());
  for (std::uint32_t s = 0; s < gs.slots.size(); ++s) gs.anchors.push_back(hash_point(group, s));
  // Slot 0 elects first, unopposed, so its root is the group's
  // rendezvous root; later slots exclude the earlier roots so R alive
  // peers yield R distinct replicas.
  for (std::uint32_t s = 0; s < gs.slots.size(); ++s)
    gs.slots[s].root = recompute_slot_root(gs, s);
  if (gs.slots[0].root == kInvalidPeer)
    throw std::runtime_error("GroupManager: no alive peer can host the group");
  GroupState& added = groups_.emplace(group, std::move(gs)).first->second;
  state_index_.try_emplace(group_key(group), &added);
  return added;
}

std::uint32_t GroupManager::owner_slot_of(const GroupState& gs, PeerId peer) const {
  const geometry::Point at = graph_.point(peer);
  std::uint32_t best = 0;
  double best_dist = geometry::l1_distance(at, gs.anchors[0]);
  for (std::uint32_t s = 1; s < gs.anchors.size(); ++s) {
    const double dist = geometry::l1_distance(at, gs.anchors[s]);
    if (dist < best_dist) {  // ties go to the lowest slot
      best = s;
      best_dist = dist;
    }
  }
  return best;
}

PeerId GroupManager::recompute_slot_root(const GroupState& gs, std::uint32_t slot) const {
  // The slot's own root is dead or unset whenever it is re-elected, so
  // skipping every slot's root excludes exactly the other slots'.
  const PeerId best = nearest_to(gs.anchors[slot], gs.slots);
  // Fewer alive peers than replicas: double up rather than orphan the slot.
  if (best != kInvalidPeer) return best;
  return nearest_to(gs.anchors[slot], {});
}

PeerId GroupManager::root_of(GroupId group) { return state_of(group).slots[0].root; }

std::uint32_t GroupManager::owner_slot(GroupId group, PeerId peer) {
  return owner_slot_of(state_of(group), peer);
}

PeerId GroupManager::slot_root(GroupId group, std::uint32_t slot) {
  return state_of(group).slots[slot].root;
}

PeerId GroupManager::owner_root(GroupId group, PeerId peer) {
  GroupState& gs = state_of(group);
  return gs.slots[owner_slot_of(gs, peer)].root;
}

std::shared_ptr<const GroupTree> GroupManager::slot_tree_snapshot(GroupId group,
                                                                  std::uint32_t slot) {
  GroupState& gs = state_of(group);
  ShardSlot& s = gs.slots[slot];
  if (s.members.empty()) return nullptr;
  refresh_tree(group, gs, s);
  return s.cached;
}

std::size_t GroupManager::slot_member_count(GroupId group, std::uint32_t slot) {
  return state_of(group).slots[slot].members.size();
}

void GroupManager::subscribe(GroupId group, PeerId peer) {
  if (peer >= graph_.size())
    throw std::invalid_argument("GroupManager::subscribe: peer out of range");
  if (!alive_[peer])
    throw std::invalid_argument("GroupManager::subscribe: peer has departed");
  GroupState& gs = state_of(group);
  ShardSlot& slot = gs.slots[owner_slot_of(gs, peer)];
  if (!assign_id(slot.members, peer, true)) return;  // duplicate subscribe is a no-op
  ++gs.stats.subscribes;
  if (graftable(slot)) {
    const auto graft =
        graft_subscriber(graph_, writable_tree(slot.cached), peer, config_.tree, alive_);
    if (graft.attached) {
      // Grafts are exact (the tree equals a fresh build), so they do not
      // count toward drift.
      ++gs.stats.grafts;
      gs.stats.graft_messages += graft.messages;
    } else {
      slot.dirty = true;  // stranded graft: rebuild lazily on next publish
    }
  } else {
    slot.dirty = true;
  }
}

void GroupManager::unsubscribe(GroupId group, PeerId peer) {
  if (peer >= graph_.size())
    throw std::invalid_argument("GroupManager::unsubscribe: peer out of range");
  GroupState* const found = find_state(group);
  if (found == nullptr) return;  // unknown group: no-op, no state created
  GroupState& gs = *found;
  ShardSlot& slot = gs.slots[owner_slot_of(gs, peer)];
  if (!assign_id(slot.members, peer, false)) return;
  ++gs.stats.unsubscribes;
  if (!slot.cached || slot.dirty) return;
  if (slot.cached->tree.delivers(peer)) {  // prunes are exact: no drift, just bookkeeping
    ++gs.stats.prunes;
    gs.stats.prune_messages += prune_subscriber(writable_tree(slot.cached), peer);
  } else if (contains_id(slot.cached->stranded, peer)) {
    assign_id(writable_tree(slot.cached).stranded, peer, false);  // never spanned
  }
}

GroupManager::SubscribeNeed GroupManager::subscribe_membership(GroupId group,
                                                               PeerId peer) {
  if (peer >= graph_.size())
    throw std::invalid_argument("GroupManager::subscribe_membership: peer out of range");
  if (!alive_[peer])
    throw std::invalid_argument("GroupManager::subscribe_membership: peer has departed");
  GroupState& gs = state_of(group);
  ShardSlot& slot = gs.slots[owner_slot_of(gs, peer)];
  const bool fresh = assign_id(slot.members, peer, true);
  if (fresh) ++gs.stats.subscribes;
  const bool can_graft = graftable(slot);
  if (can_graft && !slot.cached->tree.delivers(peer)) return SubscribeNeed::kGraft;
  // Mirror subscribe(): a fresh member without a graftable tree rides the
  // next publish's lazy rebuild; duplicates leave the cache flags alone.
  if (fresh && !can_graft) slot.dirty = true;
  return SubscribeNeed::kNone;
}

std::uint64_t GroupManager::graft_begin(GroupId group, PeerId subscriber, PeerId root) {
  GroupState& gs = state_of(group);
  if (subscriber >= graph_.size() || !alive_[subscriber]) return 0;
  // The graft splices into the subscriber's owner-slot tree.
  const std::uint32_t slot = owner_slot_of(gs, subscriber);
  const ShardSlot& s = gs.slots[slot];
  if (!contains_id(s.members, subscriber) || s.root != root || !graftable(s)) return 0;
  if (!grafting_.insert({group, subscriber}).second) return 0;  // one at a time
  const std::uint64_t id = next_graft_id_++;
  grafts_.emplace(id, InFlightGraft{group, subscriber, root, slot,
                                    graft_cursor(graph_, *s.cached, subscriber), clock_now()});
  if (tracer_.enabled())
    tracer_.emit({clock_now(), obs::TraceEventType::kGraftBegin, group, id, 0, 0,
                  root, subscriber});
  return id;
}

bool GroupManager::graft_valid(const InFlightGraft& g) const {
  const GroupState& gs = *find_state(g.group);
  const ShardSlot& s = gs.slots[g.slot];
  return alive_[g.subscriber] && contains_id(s.members, g.subscriber) && s.root == g.root &&
         graftable(s) && s.cached->tree.reached(g.cursor.current);
}

GroupManager::GraftAdvance GroupManager::graft_advance(std::uint64_t graft_id,
                                                       PeerId self) {
  GraftAdvance advance;  // kFailed unless proven otherwise
  const auto it = grafts_.find(graft_id);
  if (it == grafts_.end()) return advance;  // aborted while the request flew
  InFlightGraft& g = it->second;
  // The cursor is only valid against the exact tree state it left: any
  // rebuild, repair (stale zones), migration, membership change, or death
  // of subscriber/current since the previous step fails the descent here
  // rather than replaying it against a tree it never saw.
  if (self != g.cursor.current || !graft_valid(g)) return advance;
  GroupState& gs = *find_state(g.group);
  const std::size_t decisions_before = g.cursor.steps;
  const GraftStep step = graft_step(graph_, writable_tree(gs.slots[g.slot].cached),
                                    g.cursor, config_.tree, alive_);
  gs.stats.graft_messages += g.cursor.steps - decisions_before;
  switch (step.status) {
    case GraftStatus::kAttached:
      advance.status = GraftAdvance::Status::kAttached;
      break;  // the entry retires on the root's graft_finish
    case GraftStatus::kDescend:
      advance.status = GraftAdvance::Status::kDescend;
      advance.next = step.next;
      break;
    case GraftStatus::kStranded:
    case GraftStatus::kExhausted:
      break;  // kFailed: caller reports reject, the root aborts
  }
  return advance;
}

bool GroupManager::graft_finish(std::uint64_t graft_id) {
  const auto it = grafts_.find(graft_id);
  if (it == grafts_.end()) return false;
  GroupState& gs = *find_state(it->second.group);
  const PeerId subscriber = it->second.subscriber;
  ++gs.stats.grafts;
  // Request -> attach latency; meaningful only when a clock is wired (the
  // message-driven pipeline always wires one, so the sample set does not
  // depend on whether tracing is attached).
  if (clock_) gs.stats.graft_latency.record(clock_() - it->second.started_at);
  if (tracer_.enabled())
    tracer_.emit({clock_now(), obs::TraceEventType::kGraftFinish, it->second.group,
                  graft_id, 0, 0, it->second.root, subscriber});
  // Revalidate before retiring: membership can churn while the accept is
  // in flight. An unsubscribe prunes the attached subscriber out of the
  // still-clean tree, and a re-subscribe landing before this finish is
  // blocked by the in-flight guard below (graft_begin returns 0) — so a
  // member can end up owed a span no descent will ever provide. Defer to
  // a rebuild rather than leave a clean cache that never delivers.
  ShardSlot& slot = gs.slots[it->second.slot];
  if (contains_id(slot.members, subscriber) && slot.cached && !slot.dirty &&
      !slot.cached->tree.delivers(subscriber))
    slot.dirty = true;
  grafting_.erase({it->second.group, subscriber});
  grafts_.erase(it);
  return true;
}

std::optional<GroupManager::AbortedGraft> GroupManager::graft_abort(
    std::uint64_t graft_id) {
  const auto it = grafts_.find(graft_id);
  if (it == grafts_.end()) return std::nullopt;
  const AbortedGraft aborted{it->second.group, it->second.subscriber};
  GroupState& gs = *find_state(aborted.group);
  // The half-grafted relay path (if any) serves nobody: dirty the cache so
  // the next publish rebuilds — spanning the subscriber's membership if it
  // survived — instead of publishing down dangling edges forever.
  gs.slots[it->second.slot].dirty = true;
  ++gs.stats.graft_aborts;
  if (tracer_.enabled())
    tracer_.emit({clock_now(), obs::TraceEventType::kGraftAbort, aborted.group,
                  graft_id, 0, 0, it->second.root, aborted.subscriber});
  grafting_.erase({aborted.group, aborted.subscriber});
  grafts_.erase(it);
  return aborted;
}

bool GroupManager::is_subscribed(GroupId group, PeerId peer) const {
  const GroupState* gs = find_state(group);
  return gs != nullptr && peer < graph_.size() &&
         contains_id(gs->slots[owner_slot_of(*gs, peer)].members, peer);
}

std::size_t GroupManager::subscriber_count(GroupId group) const {
  const GroupState* gs = find_state(group);
  if (gs == nullptr) return 0;
  std::size_t count = 0;
  for (const ShardSlot& slot : gs->slots) count += slot.members.size();
  return count;
}

GroupTree& GroupManager::writable_tree(std::shared_ptr<GroupTree>& cached) {
  if (cached.use_count() > 1)
    cached = std::make_shared<GroupTree>(*cached);
  return *cached;
}

void GroupManager::depart_outside_tree(std::shared_ptr<GroupTree>& cached, PeerId peer) {
  const bool stranded_member = contains_id(cached->stranded, peer);
  bool stales_zones = false;
  if (!cached->zones_stale)
    for (PeerId q : graph_.neighbors(peer))
      if (cached->tree.reached(q)) {
        stales_zones = true;
        break;
      }
  if (!stranded_member && !stales_zones) return;
  GroupTree& gt = writable_tree(cached);
  if (stranded_member) assign_id(gt.stranded, peer, false);  // membership only; never spanned
  if (stales_zones) gt.zones_stale = true;
}

void GroupManager::refresh_tree(GroupId group, GroupState& gs, ShardSlot& slot) {
  GroupStats& stats = gs.stats;
  const bool drifted =
      slot.repairs_since_build >
      config_.rebuild_threshold *
          static_cast<double>(std::max<std::size_t>(slot.members.size(), 1));
  if (slot.cached && !slot.dirty && !drifted) {
    ++stats.cache_hits;
    return;
  }
  slot.cached = std::make_shared<GroupTree>(
      build_group_tree(graph_, slot.root, slot.members, config_.tree, alive_));
  slot.dirty = false;
  slot.repairs_since_build = 0;
  ++stats.tree_builds;
  stats.build_messages += slot.cached->build_messages;
  // seq fields double as build cost / span here (kTreeBuild is not
  // seq-scoped, so the wave query never misreads them).
  if (tracer_.enabled())
    tracer_.emit({clock_now(), obs::TraceEventType::kTreeBuild, group, obs::kNoWave,
                  slot.cached->build_messages, slot.cached->reached_subscribers(),
                  slot.root});
  // A fresh recursion under churn can strand subscribers a repaired tree
  // kept (a dead delegate walls off their slices); splice them back via
  // greedy routes so a rebuild is never WORSE than the repair it replaced.
  // Rescue paths deviate from the recursion like repairs do, but are not
  // drift: another rebuild would strand — and rescue — identically.
  const auto rescue = rescue_stranded(graph_, *slot.cached, alive_);
  stats.stranded_rescues += rescue.rescued;
  stats.repair_messages += rescue.messages;
  // The gauge sums the stranded members of every slot's tree as it stands,
  // so rebuilding one shard never erases another shard's.
  stats.stranded_subscribers = 0;
  for (const ShardSlot& s : gs.slots)
    if (s.cached) stats.stranded_subscribers += s.cached->stranded.size();
}

const GroupTree* GroupManager::tree(GroupId group) {
  return slot_tree_snapshot(group, 0).get();  // slot 0 keeps the tree alive
}

std::shared_ptr<const GroupTree> GroupManager::tree_snapshot(GroupId group) {
  return slot_tree_snapshot(group, 0);
}

const GroupTree* GroupManager::cached_tree(GroupId group) const {
  const GroupState* gs = find_state(group);
  if (gs == nullptr || gs->slots[0].dirty) return nullptr;
  return gs->slots[0].cached.get();
}

const RetainedBuffer* GroupManager::find_retained(PeerId peer, GroupId group) const {
  const std::uint32_t* slot = retained_.find(util::PeerKey{peer, 0, group});
  return slot == nullptr ? nullptr : &retained_slab_[*slot];
}

std::size_t GroupManager::retain_payload(PeerId peer, GroupId group, DeliveryPtr wave) {
  if (config_.retention_window == 0) return 0;
  const auto free_slot = static_cast<std::uint32_t>(
      retained_free_.empty() ? retained_slab_.size() : retained_free_.back());
  const auto [slot, inserted] = retained_.try_emplace(util::PeerKey{peer, 0, group}, free_slot);
  if (inserted) {
    if (retained_free_.empty())
      retained_slab_.emplace_back(config_.retention_window);
    else
      retained_free_.pop_back();
    const auto at = std::lower_bound(retained_groups_.begin(), retained_groups_.end(), group);
    if (at == retained_groups_.end() || *at != group) retained_groups_.insert(at, group);
  }
  RetainedBuffer& buffer = retained_slab_[*slot];
  const std::size_t evicted = buffer.retain(std::move(wave));
  retained_peak_ = std::max(retained_peak_, buffer.size());
  return evicted;
}

const DeliveryPtr* GroupManager::retained_payload(PeerId peer, GroupId group,
                                                  std::uint64_t seq) const {
  const RetainedBuffer* buffer = find_retained(peer, group);
  return buffer == nullptr ? nullptr : buffer->find(seq);
}

std::size_t GroupManager::retained_entry_total() const noexcept {
  std::size_t total = 0;  // a free slot's buffer is empty
  for (const RetainedBuffer& buffer : retained_slab_) total += buffer.size();
  return total;
}

std::size_t GroupManager::retained_buffer_count() const noexcept { return retained_.size(); }

PeerId GroupManager::replica_candidate(GroupId group) {
  GroupState& gs = state_of(group);
  // The warm-failover replica must not double as any slot's root, or one
  // death would cost two shards at once. At R == 1 this is the successor a
  // root death would promote.
  return nearest_to(gs.anchors[0], gs.slots);
}

PeerId GroupManager::ensure_replica(GroupId group) {
  GroupState& gs = state_of(group);
  if (gs.replica != kInvalidPeer && alive_[gs.replica]) return gs.replica;
  gs.replica = replica_candidate(group);
  // A fresh assignment knows nothing yet; the protocol layer streams the
  // full bootstrap before any delta relies on this copy.
  gs.replica_members.clear();
  return gs.replica;
}

PeerId GroupManager::replica_of(GroupId group) const {
  const GroupState* gs = find_state(group);
  return gs == nullptr ? kInvalidPeer : gs->replica;
}

void GroupManager::replica_apply_membership(GroupId group, PeerId member,
                                            bool subscribed) {
  if (member < graph_.size()) assign_id(state_of(group).replica_members, member, subscribed);
}

std::size_t GroupManager::replica_member_count(GroupId group) const {
  const GroupState* gs = find_state(group);
  return gs == nullptr ? 0 : gs->replica_members.size();
}

std::vector<PeerId> GroupManager::subscribers_of(GroupId group) const {
  std::vector<PeerId> members;
  const GroupState* gs = find_state(group);
  if (gs == nullptr) return members;
  for (const ShardSlot& slot : gs->slots)  // each ascending; slots disjoint
    members.insert(members.end(), slot.members.begin(), slot.members.end());
  if (gs->slots.size() > 1) std::sort(members.begin(), members.end());
  return members;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> GroupManager::retained_ranges(
    PeerId peer, GroupId group) const {
  const RetainedBuffer* buffer = find_retained(peer, group);
  return buffer == nullptr ? std::vector<std::pair<std::uint64_t, std::uint64_t>>{}
                           : buffer->ranges();
}

GroupManager::PublishReceipt GroupManager::publish(GroupId group) {
  GroupState& gs = state_of(group);
  ++gs.stats.publishes;
  PublishReceipt receipt;
  // One tree per non-empty slot, summed.
  for (ShardSlot& slot : gs.slots) {
    if (slot.members.empty()) continue;
    refresh_tree(group, gs, slot);
    receipt.payload_messages += slot.cached->tree.edge_count();
    receipt.delivered += slot.cached->reached_subscribers();
  }
  gs.stats.payload_messages += receipt.payload_messages;
  gs.stats.expected_deliveries += receipt.delivered;
  gs.stats.deliveries += receipt.delivered;  // synchronous path is lossless
  return receipt;
}

GroupManager::DepartureOutcome GroupManager::handle_departure(PeerId peer) {
  if (peer >= graph_.size())
    throw std::invalid_argument("GroupManager::handle_departure: peer out of range");
  DepartureOutcome outcome;
  if (!alive_[peer]) return outcome;
  alive_[peer] = false;
  // The dead serve no repairs: drop the peer's retained history (NACKs
  // that would have landed here escalate to the next ancestor instead).
  for (const GroupId group : retained_groups_) {
    const util::PeerKey key{peer, 0, group};
    const std::uint32_t* slot = retained_.find(key);
    if (slot == nullptr) continue;
    retained_slab_[*slot] = RetainedBuffer(config_.retention_window);  // frees the ring
    retained_free_.push_back(*slot);
    retained_.erase(key);
  }
  for (auto& [group, gs] : groups_) {
    // The surviving owner-slot root owes the replica an unmember delta; a
    // dying root cannot send one (the promotion bootstrap covers it).
    ShardSlot& owner = gs.slots[owner_slot_of(gs, peer)];
    if (assign_id(owner.members, peer, false) && owner.root != peer)
      outcome.member_losses.push_back(group);
    if (gs.replica == peer) {
      // The replica died out from under the root: clear the assignment and
      // its copy; the protocol layer re-bootstraps a fresh successor.
      outcome.replica_losses.push_back({group, peer});
      gs.replica = kInvalidPeer;
      gs.replica_members.clear();
    }
    for (std::uint32_t s = 0; s < gs.slots.size(); ++s) {
      ShardSlot& slot = gs.slots[s];
      if (slot.root == peer) {
        // Promotion by anchor ownership: the next-nearest alive peer to
        // this slot's (immutable) anchor inherits the whole shard —
        // member ids and graft cursors live in the slot, not at the
        // peer, so the handoff is a root reassignment, and the old root's
        // tree is useless there. Only slot 0 participates in the
        // warm-failover replica protocol: when its successor is the
        // established replica (it always is while one is assigned —
        // departures only shrink the alive set), the promotion is warm and
        // the successor keeps the synced subscriber set and its own
        // RetainedBuffer.
        slot.root = recompute_slot_root(gs, s);
        const bool warm = s == 0 && gs.replica != kInvalidPeer && gs.replica == slot.root;
        bool consistent = false;
        if (warm) {
          // Compare the replica's synced copy against the authoritative
          // set, masking dead peers in the copy: a promoted root purges the
          // dead locally (the failure detector is global), so only raced
          // subscribe/unsubscribe deltas of alive peers count as divergence.
          std::vector<PeerId> synced;
          for (const PeerId p : gs.replica_members)
            if (alive_[p]) synced.push_back(p);
          consistent = synced == subscribers_of(group);
          ++gs.stats.warm_promotions;
        }
        slot.cached.reset();
        slot.dirty = true;
        ++gs.stats.root_migrations;
        if (s == 0) {
          // The promoted root owes the group a fresh replica of its own;
          // the old copy's job is done.
          gs.replica = kInvalidPeer;
          gs.replica_members.clear();
        }
        outcome.promotions.push_back({group, peer, slot.root, warm, consistent, s});
        if (tracer_.enabled())
          tracer_.emit({clock_now(), obs::TraceEventType::kRootMigration, group,
                        obs::kNoWave, 0, 0, slot.root, peer});
        continue;
      }
      if (!slot.cached || slot.dirty) continue;
      if (!slot.cached->tree.reached(peer)) {
        depart_outside_tree(slot.cached, peer);
        continue;
      }
      const auto repair = repair_group_tree(graph_, writable_tree(slot.cached), peer, alive_);
      ++gs.stats.repairs;
      gs.stats.repair_messages += repair.messages;
      if (repair.needs_rebuild) {
        ++gs.stats.repair_failures;
        slot.dirty = true;
      } else {
        ++slot.repairs_since_build;
      }
    }
  }
  // Sweep the in-flight grafts: any descent whose ground shifted — its
  // subscriber died or left, its slot root migrated, its tree was reset or
  // stale-zoned by the repair above, or its current peer fell out of the
  // tree — aborts now rather than limping on to a reject. The survivors
  // (slots the departure never touched) keep descending. A slot-root
  // promotion thus aborts exactly that shard's descents; the protocol
  // layer re-issues the subscribes, which route to the promoted successor
  // — the shard handoff leaks no cursor.
  for (auto it = grafts_.begin(); it != grafts_.end();) {
    const bool valid = graft_valid(it->second);
    const std::uint64_t id = it->first;
    ++it;  // graft_abort erases `id`; advance first
    if (!valid)
      if (const auto a = graft_abort(id)) outcome.aborted_grafts.push_back(*a);
  }
  return outcome;
}

const GroupStats& GroupManager::stats(GroupId group) const {
  static const GroupStats kEmpty{};
  const GroupState* gs = find_state(group);
  return gs == nullptr ? kEmpty : gs->stats;
}

GroupStats GroupManager::total_stats() const {
  GroupStats total;
  for (const auto& [group, gs] : groups_) total += gs.stats;
  return total;
}

std::vector<GroupId> GroupManager::known_groups() const {
  std::vector<GroupId> ids;
  ids.reserve(groups_.size());
  for (const auto& [group, gs] : groups_) ids.push_back(group);
  return ids;
}

}  // namespace geomcast::groups
