#include "groups/pubsub.hpp"

#include <algorithm>
#include <any>
#include <stdexcept>

#include "overlay/routing.hpp"

namespace geomcast::groups {

namespace {
/// The façade's root_replicas knob rides into the manager's GroupConfig so
/// slots/anchors have one source of truth (0 is normalized to 1 — "no
/// sharding" — like every other off-value in this config family); a
/// different sharded value there would be silently lost, so it throws.
GroupConfig sharded_group_config(const PubSubConfig& config) {
  GroupConfig groups = config.groups;
  groups.root_replicas = config.root_replicas > 1 ? config.root_replicas : 1;
  if (config.groups.root_replicas > 1 && config.groups.root_replicas != groups.root_replicas)
    throw std::invalid_argument("PubSubConfig: groups.root_replicas != root_replicas");
  return groups;
}
}  // namespace

void SubscriberWindow::release_run(std::vector<std::uint64_t>& released) {
  while (true) {
    if (held_.erase(next_expected_) > 0) {
      released.push_back(next_expected_);
      ++next_expected_;
    } else if (skipped_.erase(next_expected_) > 0) {
      ++next_expected_;  // abandoned earlier: pass over silently
    } else {
      break;
    }
  }
}

SubscriberWindow::Arrival SubscriberWindow::observe_range(std::uint64_t lo,
                                                          std::uint64_t hi) {
  Arrival arrival;
  if (lo > hi) return arrival;
  if (!initialized_) {
    // Late joiners start at whatever wave reaches them first; the history
    // before it was never owed to this window.
    initialized_ = true;
    next_expected_ = lo;
    frontier_ = lo;
  }
  // Split off the below-head part (init race or an abandoned gap whose
  // copy finally straggled in): release out of band, window unchanged.
  for (; lo <= hi && lo < next_expected_; ++lo) arrival.pre_window.push_back(lo);
  if (lo > hi) return arrival;
  if (lo == next_expected_ && gaps_.empty() && held_.empty() && skipped_.empty()) {
    // The batching hot path: an in-order range with a clean window
    // releases wholesale, no per-seq set traffic at all.
    for (std::uint64_t s = lo; s <= hi; ++s) arrival.released.push_back(s);
    next_expected_ = hi + 1;
    frontier_ = std::max(frontier_, next_expected_);
    return arrival;
  }
  for (std::uint64_t seq = lo; seq <= hi; ++seq) {
    if (seq < next_expected_) {
      // The head overtook this still-unprocessed seq mid-range (a forced
      // abandonment ran past it, or release_run passed an earlier-skipped
      // seq): below the head now, so out of band like any pre-window seq.
      arrival.pre_window.push_back(seq);
      continue;
    }
    if (gaps_.erase(seq) > 0) {
      // A gap filled (by repair, or by per-hop recovery winning the race).
      if (seq == next_expected_) {
        arrival.released.push_back(seq);
        ++next_expected_;
        release_run(arrival.released);
      } else {
        held_.insert(seq);
      }
      continue;
    }
    if (seq == next_expected_) {
      arrival.released.push_back(seq);
      ++next_expected_;
      release_run(arrival.released);
      continue;
    }
    // Ahead of the head: everything between becomes a gap, the arrival is
    // held back for in-order release. Everything below the frontier is
    // already held, a gap, or skipped, so only [frontier_, seq) is new —
    // no membership probes, no rescan of the reorder distance.
    for (std::uint64_t m = std::max(next_expected_, frontier_); m < seq; ++m) {
      gaps_.insert(gaps_.end(), m);
      arrival.new_gaps.push_back(m);
    }
    held_.insert(seq);
    // Bounded hold-back: when the buffer overflows, the oldest gaps are
    // the blockers — give up on them rather than grow without bound. The
    // head is always a gap here (otherwise it would have been released).
    while (held_.size() > reorder_limit_) {
      const std::uint64_t head = next_expected_;
      gaps_.erase(head);
      arrival.forced_abandoned.push_back(head);
      ++next_expected_;
      release_run(arrival.released);
    }
    frontier_ = std::max(frontier_, seq + 1);
  }
  return arrival;
}

std::vector<std::uint64_t> SubscriberWindow::abandon(std::uint64_t seq) {
  std::vector<std::uint64_t> released;
  if (gaps_.erase(seq) == 0) return released;
  if (seq == next_expected_) {
    ++next_expected_;
    release_run(released);
  } else {
    skipped_.insert(seq);  // passed over silently once the head gets there
  }
  return released;
}

std::vector<std::uint64_t> SubscriberWindow::mark_through(std::uint64_t hi) {
  std::vector<std::uint64_t> fresh;
  if (!initialized_) return fresh;  // a beacon owes a late joiner nothing
  // Everything below the frontier is already held, a gap, or skipped —
  // only [frontier_, hi] can be newly missing, exactly as in observe_range.
  for (std::uint64_t m = std::max(next_expected_, frontier_); m <= hi; ++m) {
    gaps_.insert(gaps_.end(), m);
    fresh.push_back(m);
  }
  if (hi + 1 > frontier_) frontier_ = hi + 1;
  return fresh;
}

/// One simulated peer: dispatches the pub/sub kinds to the system's
/// handlers. All protocol state lives in the system/manager (the per-root
/// state each envelope addresses), keeping the node a thin actor shell
/// like multicast/protocol.cpp's MulticastNode.
class PubSubSystem::PubSubNode final : public sim::Node {
 public:
  PubSubNode(PeerId id, PubSubSystem& system) : sim::Node(id), system_(system) {}

  /// The event schedule_control<Kind> books: `node` is the origin peer's
  /// node, `group` the group.
  template <sim::MessageKind Kind>
  static void control_thunk(void* node, std::uint64_t group) {
    auto& self = *static_cast<PubSubNode*>(node);
    self.system_.issue_control(self.id(), group, Kind);
  }

  void on_message(sim::Simulator& sim, const sim::Envelope& envelope) override {
    (void)sim;
    // The send-time drop rule cannot catch a departure that happens while
    // the envelope is in flight; a dead peer must not act on anything.
    if (!system_.manager_->alive(id())) return;
    switch (envelope.kind) {
      case kSubscribeKind:
      case kUnsubscribeKind:
      case kPublishKind: {
        const auto& request = std::any_cast<const GroupRequest&>(envelope.payload);
        if (id() == request.target)
          system_.handle_at_root(id(), envelope.kind, request);
        else
          system_.forward_control(id(), envelope.kind, request);
        return;
      }
      case kDeliverKind: {
        system_.disseminate(id(), envelope.from,
                            std::any_cast<const DeliveryPtr&>(envelope.payload));
        return;
      }
      case kDeliverAckKind: {
        system_.hop_->on_ack(envelope);
        return;
      }
      case kNackKind: {
        system_.on_nack(id(), std::any_cast<const GapNack&>(envelope.payload));
        return;
      }
      case kRepairKind: {
        system_.on_repair(id(), std::any_cast<const DeliveryPtr&>(envelope.payload));
        return;
      }
      case kRepairMissKind: {
        system_.on_repair_miss(id(), envelope.from,
                               std::any_cast<const GapRepairMiss&>(envelope.payload));
        return;
      }
      case kGraftRequestKind: {
        system_.on_graft_request(id(), envelope.from,
                                 std::any_cast<const GraftEnvelope&>(envelope.payload));
        return;
      }
      case kGraftAcceptKind: {
        system_.on_graft_accept(id(), envelope.from,
                                std::any_cast<const GraftEnvelope&>(envelope.payload));
        return;
      }
      case kGraftRejectKind: {
        system_.on_graft_reject(id(), envelope.from,
                                std::any_cast<const GraftEnvelope&>(envelope.payload));
        return;
      }
      case kGraftAckKind: {
        system_.graft_hop_->on_ack(envelope);
        return;
      }
      case kReplicaSyncKind: {
        system_.on_replica_sync(id(), envelope.from,
                                std::any_cast<const ReplicaSync&>(envelope.payload));
        return;
      }
      case kReplicaAckKind: {
        system_.replica_hop_->on_ack(envelope);
        return;
      }
      case kHeartbeatKind: {
        system_.on_heartbeat(id(),
                             std::any_cast<const GroupHeartbeat&>(envelope.payload));
        return;
      }
      case kSeqLeaseKind: {
        system_.on_seq_lease(id(), envelope.from,
                             std::any_cast<const SeqLease&>(envelope.payload));
        return;
      }
      case kSeqGrantKind: {
        system_.on_seq_grant(id(), envelope.from,
                             std::any_cast<const SeqGrant&>(envelope.payload));
        return;
      }
      case kShardWaveKind: {
        system_.on_shard_wave(id(), envelope.from,
                              std::any_cast<const ShardWave&>(envelope.payload));
        return;
      }
      case kCoordAckKind: {
        system_.coord_hop_->on_ack(envelope);
        return;
      }
      default:
        throw std::logic_error("PubSubNode: unexpected message kind");
    }
  }

 private:
  PubSubSystem& system_;
};

PubSubSystem::PubSubSystem(const overlay::OverlayGraph& graph, PubSubConfig config)
    : graph_(graph),
      config_(std::move(config)),
      sim_(std::make_unique<sim::Simulator>(config_.seed)),
      manager_(std::make_unique<GroupManager>(graph, sharded_group_config(config_))) {
  // The manager needs the simulated clock for graft latency accounting
  // (begin -> attach). Wired unconditionally — latency histograms are
  // stats, not tracing, so they must be identical with or without a sink.
  manager_->set_clock([this]() { return sim_->now(); });
  sim_->network().set_latency(config_.latency);
  // Departed peers silently drop everything addressed to them, on top of
  // whatever stochastic loss the caller injected.
  sim::LossModel loss;
  loss.drop_probability = config_.loss.drop_probability;
  loss.drop_if = [this](const sim::Envelope& envelope) {
    if (!manager_->alive(envelope.to)) return true;
    return config_.loss.drop_if && config_.loss.drop_if(envelope);
  };
  sim_->network().set_loss(std::move(loss));

  // Payload hops run through the shared reliability layer (a passthrough
  // under QoS 0). Retransmissions/abandonments are attributed to the wave's
  // group through the hooks; a forwarder that departs with hops pending
  // stops retransmitting (its subtree's loss is churn, not budget, so it is
  // not charged as abandoned).
  multicast::ReliableHopLayer::Hooks hooks;
  hooks.on_retransmit = [this](sim::NodeId, sim::NodeId, std::uint64_t,
                               const std::any& payload) {
    const auto& delivery = std::any_cast<const DeliveryPtr&>(payload);
    ++manager_->stats(delivery->group).retransmissions;
  };
  hooks.on_abandon = [this](sim::NodeId, sim::NodeId, std::uint64_t,
                            const std::any& payload) {
    const auto& delivery = std::any_cast<const DeliveryPtr&>(payload);
    ++manager_->stats(delivery->group).abandoned_hops;
  };
  hooks.sender_alive = [this](sim::NodeId p) { return manager_->alive(p); };
  hop_ = std::make_unique<multicast::ReliableHopLayer>(
      *sim_, kDeliverKind, kDeliverAckKind, config_.reliability, std::move(hooks));

  if (config_.routed_graft) {
    // Graft control hops are ALWAYS acked (QoS 1), whatever the data plane
    // runs at: a lost descent envelope must retransmit, not strand the
    // subscriber. An abandoned hop (receiver died, or budget spent against
    // persistent loss) aborts the whole graft — the abort dirties the
    // cache and re-issues the subscribe, so the subscriber converges
    // through the rebuild path instead.
    multicast::ReliableHopLayer::Hooks graft_hooks;
    graft_hooks.on_retransmit = [this](sim::NodeId, sim::NodeId, std::uint64_t,
                                       const std::any& payload) {
      const auto& graft = std::any_cast<const GraftEnvelope&>(payload);
      ++manager_->stats(graft.group).graft_retries;
    };
    graft_hooks.on_abandon = [this](sim::NodeId, sim::NodeId, std::uint64_t,
                                    const std::any& payload) {
      abort_graft(std::any_cast<const GraftEnvelope&>(payload).graft_id);
    };
    graft_hooks.sender_alive = [this](sim::NodeId p) { return manager_->alive(p); };
    graft_hop_ = std::make_unique<multicast::ReliableHopLayer>(
        *sim_, kGraftRequestKind, kGraftAckKind,
        multicast::ReliabilityConfig{multicast::QoS::kAcked,
                                     config_.reliability.ack_timeout,
                                     config_.reliability.max_retries},
        std::move(graft_hooks));
  }

  // Slot-root coordination (seq leases/grants, shard-wave handoffs) is
  // ALWAYS acked like the graft plane: a committed range must reach its
  // peer slot roots or be re-dispatched, never silently drop. The abandon
  // hook is the re-dispatch path — addressee died, retries spent, so the
  // payload re-routes to the CURRENT authority / slot root. With one slot
  // the plane never sends: slot 0 is its own seq authority and has no peer
  // slot to hand a range to.
  multicast::ReliableHopLayer::Hooks coord_hooks;
  coord_hooks.on_abandon = [this](sim::NodeId, sim::NodeId, std::uint64_t,
                                  const std::any& payload) {
    on_coord_abandon(payload);
  };
  coord_hooks.sender_alive = [this](sim::NodeId p) { return manager_->alive(p); };
  coord_hop_ = std::make_unique<multicast::ReliableHopLayer>(
      *sim_, kSeqLeaseKind, kCoordAckKind,
      multicast::ReliabilityConfig{multicast::QoS::kAcked,
                                   config_.reliability.ack_timeout,
                                   config_.reliability.max_retries},
      std::move(coord_hooks));

  if (warm()) {
    // The replication stream is ALWAYS acked (QoS 1) like the graft plane:
    // the replica's copy is only as good as the stream, so a lost delta
    // must retry. An abandoned sync (the replica died mid-stream) needs no
    // hook — the departure sweep re-bootstraps a successor regardless.
    multicast::ReliableHopLayer::Hooks replica_hooks;
    replica_hooks.on_retransmit = [this](sim::NodeId, sim::NodeId, std::uint64_t,
                                         const std::any& payload) {
      const auto& sync = std::any_cast<const ReplicaSync&>(payload);
      ++manager_->stats(sync.group).replica_sync_retries;
    };
    replica_hooks.sender_alive = [this](sim::NodeId p) { return manager_->alive(p); };
    replica_hop_ = std::make_unique<multicast::ReliableHopLayer>(
        *sim_, kReplicaSyncKind, kReplicaAckKind,
        multicast::ReliabilityConfig{multicast::QoS::kAcked,
                                     config_.reliability.ack_timeout,
                                     config_.reliability.max_retries},
        std::move(replica_hooks));
  }

  nodes_.reserve(graph.size());
  for (PeerId p = 0; p < graph.size(); ++p) {
    nodes_.push_back(std::make_unique<PubSubNode>(p, *this));
    sim_->add_node(*nodes_[p]);
  }
}

PubSubSystem::~PubSubSystem() = default;

void PubSubSystem::set_trace_sink(obs::TraceSink* sink) {
  tracer_.attach(sink);
  manager_->set_trace_sink(sink);
  // The hop layer's trace taps are installed only while a sink is attached:
  // with tracing off the hooks are empty std::functions and the fast path
  // pays a single bool test per transmit.
  multicast::ReliableHopLayer::TraceHooks taps;
  if (sink != nullptr) {
    taps.on_transmit = [this](sim::NodeId from, sim::NodeId to, std::uint64_t,
                              std::size_t attempt, const std::any& payload) {
      const auto& delivery = *std::any_cast<const DeliveryPtr&>(payload);
      tracer_.emit({sim_->now(),
                    attempt > 0 ? obs::TraceEventType::kHopRetransmit
                                : obs::TraceEventType::kHopSend,
                    delivery.group, delivery.wave, delivery.seq, delivery.seq_hi,
                    static_cast<std::uint32_t>(from), static_cast<std::uint32_t>(to)});
    };
    taps.on_ack_sent = [this](sim::NodeId self, sim::NodeId sender,
                              std::uint64_t wave) {
      // Acks carry only the wave id; wave_groups_ (maintained
      // unconditionally at wave creation) recovers the group.
      const GroupId group = wave < wave_groups_.size() ? wave_groups_[wave] : 0;
      tracer_.emit({sim_->now(), obs::TraceEventType::kHopAck, group, wave, 0, 0,
                    static_cast<std::uint32_t>(self),
                    static_cast<std::uint32_t>(sender)});
    };
  }
  hop_->set_trace_hooks(std::move(taps));
}

std::size_t PubSubSystem::pending_hops() const noexcept {
  std::size_t total = hop_->pending() + coord_hop_->pending();
  if (graft_hop_) total += graft_hop_->pending();
  if (replica_hop_) total += replica_hop_->pending();
  return total;
}

void PubSubSystem::forward_control(PeerId self, sim::MessageKind kind,
                                   const GroupRequest& request) {
  GroupStats& stats = manager_->stats(request.group);
  const PeerId next = overlay::greedy_next_hop(
      graph_, self, request.target, [this](PeerId q) { return manager_->alive(q); });
  if (next == kInvalidPeer) {
    ++stats.stranded_messages;
    return;
  }
  ++stats.control_messages;
  sim_->send(self, next, kind, request);
}

void PubSubSystem::handle_at_root(PeerId self, sim::MessageKind kind,
                                  const GroupRequest& request) {
  switch (kind) {
    case kSubscribeKind: {
      // The origin may have departed while its request was in flight; a
      // dead peer must not (re)enter the membership.
      if (!manager_->alive(request.origin)) return;
      // Only a FRESH membership change owes the replica a delta — routed
      // resubscribes and duplicate requests are no-ops there.
      const bool fresh =
          warm() && !manager_->is_subscribed(request.group, request.origin);
      if (config_.routed_graft) {
        // Membership is booked here; the tree splice — when one is owed —
        // becomes a routed descent instead of root-local work.
        if (manager_->subscribe_membership(request.group, request.origin) ==
            GroupManager::SubscribeNeed::kGraft)
          start_graft(self, request.group, request.origin);
      } else {
        manager_->subscribe(request.group, request.origin);
      }
      if (fresh) replica_sync_membership(self, request.group, request.origin, true);
      return;
    }
    case kUnsubscribeKind: {
      const bool fresh =
          warm() && manager_->is_subscribed(request.group, request.origin);
      manager_->unsubscribe(request.group, request.origin);
      if (fresh) replica_sync_membership(self, request.group, request.origin, false);
      return;
    }
    case kPublishKind: {
      // `n` is the publisher-batch factor: 1 unless the publisher coalesced
      // n app messages into this one envelope.
      const std::uint32_t n = request.count > 0 ? request.count : 1;
      manager_->stats(request.group).publishes += n;
      // `self` is the ORIGIN's owner-slot root (the group's root when there
      // is one slot): it ingests the publish, coalesces locally, and commits.
      shard_publish(self, request.group,
                    manager_->owner_slot(request.group, request.origin), n,
                    request.origin);
      return;
    }
    default:
      throw std::logic_error("PubSubSystem: control kind expected");
  }
}

void PubSubSystem::start_graft(PeerId root, GroupId group, PeerId subscriber) {
  const std::uint64_t id = manager_->graft_begin(group, subscriber, root);
  if (id == 0) return;  // a descent is already in flight, or the tree raced away
  // The root IS the first decision point: its step runs locally (no
  // envelope is owed to reach yourself), and only the handoff to the next
  // descent peer goes on the wire.
  advance_graft(root, GraftEnvelope{group, subscriber, root, id});
}

void PubSubSystem::advance_graft(PeerId self, const GraftEnvelope& graft) {
  const auto advance = manager_->graft_advance(graft.graft_id, self);
  GroupStats& stats = manager_->stats(graft.group);
  switch (advance.status) {
    case GroupManager::GraftAdvance::Status::kDescend:
      ++stats.graft_hops;
      if (tracer_.enabled())
        tracer_.emit({sim_->now(), obs::TraceEventType::kGraftStep, graft.group,
                      graft.graft_id, 0, 0, self, advance.next});
      graft_hop_->send(self, advance.next, graft.graft_id, graft, kGraftRequestKind);
      return;
    case GroupManager::GraftAdvance::Status::kAttached:
      if (self == graft.root) {
        // Zero-hop graft (re-subscribe / relay promotion / root itself):
        // nothing descended, so there is nobody to report back from.
        manager_->graft_finish(graft.graft_id);
      } else {
        graft_hop_->send(self, graft.root, graft.graft_id, graft, kGraftAcceptKind);
      }
      return;
    case GroupManager::GraftAdvance::Status::kFailed:
      if (self == graft.root) {
        abort_graft(graft.graft_id);
      } else {
        graft_hop_->send(self, graft.root, graft.graft_id, graft, kGraftRejectKind);
      }
      return;
  }
}

void PubSubSystem::on_graft_request(PeerId self, PeerId from, const GraftEnvelope& graft) {
  // Ack first, dedup second: the duplicate's arrival means our previous
  // ack may have been the lost envelope, but a descent decision must run
  // exactly once per peer however many copies land.
  graft_hop_->acknowledge(self, from, graft.graft_id);
  // Suppressed silently: duplicate_data is the DATA plane's counter, and
  // the sender half of this event is already visible as graft_retries.
  if (!graft_seen_.insert(util::PeerKey{self, 0, graft.graft_id})) return;
  advance_graft(self, graft);
}

void PubSubSystem::on_graft_accept(PeerId self, PeerId from, const GraftEnvelope& graft) {
  graft_hop_->acknowledge(self, from, graft.graft_id);
  // Idempotent: a retransmitted accept — or one that raced a departure
  // sweep's abort — finds the entry gone and changes nothing.
  manager_->graft_finish(graft.graft_id);
}

void PubSubSystem::on_graft_reject(PeerId self, PeerId from, const GraftEnvelope& graft) {
  graft_hop_->acknowledge(self, from, graft.graft_id);
  abort_graft(graft.graft_id);
}

void PubSubSystem::abort_graft(std::uint64_t graft_id) {
  const auto aborted = manager_->graft_abort(graft_id);
  if (!aborted) return;  // already retired (duplicate reject, raced sweep)
  resubscribe(aborted->group, aborted->subscriber);
}

void PubSubSystem::resubscribe(GroupId group, PeerId subscriber) {
  // Abort-and-resubscribe: the subscriber re-enters through the normal
  // subscribe path (routed to the CURRENT root — it may have migrated
  // since). The abort already dirtied the cache, so the usual outcome is
  // membership-only + rebuild on next publish; the re-issue exists for
  // the migration races where the new root's view needs the nudge.
  if (!manager_->alive(subscriber) || !manager_->is_subscribed(group, subscriber))
    return;  // died or unsubscribed mid-graft: nothing owed
  ++manager_->stats(group).graft_resubscribes;
  const GroupRequest request{group, subscriber, manager_->owner_root(group, subscriber)};
  if (subscriber == request.target)
    handle_at_root(subscriber, kSubscribeKind, request);
  else
    forward_control(subscriber, kSubscribeKind, request);
}

void PubSubSystem::shard_publish(PeerId self, GroupId group, std::uint32_t slot,
                                 std::uint32_t count, PeerId origin) {
  GroupStats& stats = manager_->stats(group);
  if (!batching()) {
    // Immediate commit: no buffer, no timer. A group nobody subscribes to
    // is owed nothing, so the publish consumes no seq.
    if (manager_->subscriber_count(group) == 0) return;
    shard_commit(group, slot, self, count, std::vector<double>(count, sim_->now()),
                 origin);
    return;
  }
  // Per-(group, slot) coalescing buffer: each slot root coalesces the
  // publishes IT ingests.
  PendingBatch& batch = shard_pending_[{group, slot}];
  if (batch.count > 0 && !manager_->alive(batch.root)) {
    // The buffering root died with publishes pending: they died with it
    // (exactly like unbatched publishes addressed to a dead root). `self`
    // is the migrated-to root starting a fresh buffer; the dead root's
    // window timer must not flush it early.
    stats.batch_publishes_lost += batch.count;
    batch.count = 0;
    batch.accepted.clear();
    sim_->cancel(batch.timer);
  }
  const bool first = batch.count == 0;
  batch.count += count;
  stats.batched_publishes += count;
  for (std::uint32_t i = 0; i < count; ++i) batch.accepted.push_back(sim_->now());
  if (slot == 0 && warm() && acked()) {
    // Only the authority slot participates in warm failover — its replica
    // shadows its buffer join by join, so a warm promotion can adopt the
    // batch instead of dropping it; other slots' buffers die cold with their
    // root. QoS 0 keeps the loss: fire-and-forget publishes have no
    // delivery promise a failover would be preserving.
    for (std::uint32_t i = 0; i < count; ++i) {
      ReplicaSync sync;
      sync.what = ReplicaSync::What::kPendingJoin;
      sync.accepted_at = sim_->now();
      replica_send(self, group, std::move(sync), false);
    }
  }
  if (tracer_.enabled()) {
    // Buffered: no wave or seq exists yet. seq_lo doubles as buffer
    // occupancy after this accept.
    tracer_.emit({sim_->now(), obs::TraceEventType::kPublishAccepted, group,
                  obs::kNoWave, 0, 0, self, origin});
    tracer_.emit({sim_->now(), obs::TraceEventType::kRootBuffer, group,
                  obs::kNoWave, batch.count, batch.count, self});
  }
  if (first) {
    batch.root = self;
    batch.timer = sim_->schedule_after(
        config_.batch_window,
        [this, group, slot]() { flush_shard_batch(group, slot, true); });
  }
  if (batch.count >= config_.max_batch) {
    sim_->cancel(batch.timer);
    flush_shard_batch(group, slot, false);
  }
}

void PubSubSystem::flush_shard_batch(GroupId group, std::uint32_t slot,
                                     bool window_expired) {
  const auto it = shard_pending_.find({group, slot});
  if (it == shard_pending_.end() || it->second.count == 0) return;
  const std::size_t count = it->second.count;
  const PeerId root = it->second.root;
  std::vector<double> accepted = std::move(it->second.accepted);
  it->second.count = 0;
  it->second.accepted.clear();
  GroupStats& stats = manager_->stats(group);
  if (!manager_->alive(root)) {
    // Nothing migrates a pending buffer here: it was state of the dead
    // root. Under warm failover the promotion path adopted (or retired)
    // the authority's buffer at departure time, so this only fires cold.
    stats.batch_publishes_lost += count;
    return;
  }
  if (slot == 0 && warm() && acked()) {
    // The batch is consumed from here on, whether or not a wave goes out:
    // the replica's copy must not outlive it (a stale copy would hand a
    // later promotion phantom publishes).
    ReplicaSync sync;
    sync.what = ReplicaSync::What::kPendingFlush;
    replica_send(root, group, std::move(sync), false);
  }
  // Everyone unsubscribed during the window: the publishes stay counted,
  // but no seq is consumed and no flush is booked.
  if (manager_->subscriber_count(group) == 0) return;
  ++(window_expired ? stats.batch_flushes_window : stats.batch_flushes_full);
  stats.batch_occupancy_sum += count;
  shard_commit(group, slot, root, count, std::move(accepted), kInvalidPeer);
}

void PubSubSystem::shard_commit(GroupId group, std::uint32_t slot, PeerId root,
                                std::uint64_t count, std::vector<double> accepted,
                                PeerId origin) {
  if (slot == 0) {
    // The authority assigns its own dense range locally — no lease round
    // trip; slot 0 IS the seq counter's home.
    std::uint64_t& next = next_seq_[group];
    const std::uint64_t seq_lo = next;
    next += count;
    record_accept_times(group, seq_lo, accepted);
    launch_wave(group, 0, root, seq_lo, seq_lo + count - 1, origin);
    return;
  }
  request_seq_lease(PendingLease{group, slot, root, origin, std::move(accepted)});
}

void PubSubSystem::request_seq_lease(PendingLease pending) {
  const GroupId group = pending.group;
  const PeerId root = pending.root;
  const std::uint64_t count = pending.accepted.size();
  GroupStats& stats = manager_->stats(group);
  const PeerId authority = manager_->slot_root(group, 0);
  if (!manager_->alive(root) || authority == kInvalidPeer ||
      !manager_->alive(authority)) {
    stats.batch_publishes_lost += count;
    return;
  }
  const std::uint64_t id = next_coord_id_++;
  ++stats.seq_lease_requests;
  if (tracer_.enabled())
    tracer_.emit({sim_->now(), obs::TraceEventType::kSeqLease, group, id, count,
                  count, root, authority});
  const SeqLease lease{group, pending.slot, count, id};
  lease_pending_.emplace(id, std::move(pending));
  coord_hop_->send(root, authority, id, lease, kSeqLeaseKind);
}

void PubSubSystem::record_accept_times(GroupId group, std::uint64_t seq_lo,
                                       const std::vector<double>& accepted) {
  // Grants land out of order across slots, so accept times are assigned by
  // index into the dense seq space, not appended. Holes left by a lost
  // grant stay 0.0 — their seqs never flush, so no latency sample reads them.
  auto& times = *accept_times_.try_emplace(group_key(group)).first;
  if (times.size() < seq_lo + accepted.size())
    times.resize(seq_lo + accepted.size(), 0.0);
  for (std::size_t i = 0; i < accepted.size(); ++i) times[seq_lo + i] = accepted[i];
}

void PubSubSystem::on_seq_lease(PeerId self, PeerId from, const SeqLease& lease) {
  coord_hop_->acknowledge(self, from, lease.coord_id);
  if (!coord_seen_.insert(util::PeerKey{self, 0, lease.coord_id})) return;
  GroupStats& stats = manager_->stats(lease.group);
  ++stats.seq_leases_granted;
  std::uint64_t& next = next_seq_[lease.group];
  const std::uint64_t seq_lo = next;
  next += lease.count;
  const std::uint64_t id = next_coord_id_++;
  if (tracer_.enabled())
    tracer_.emit({sim_->now(), obs::TraceEventType::kSeqGrant, lease.group, id,
                  seq_lo, seq_lo + lease.count - 1, self, from});
  coord_hop_->send(self, from, id,
                   SeqGrant{lease.group, lease.slot, seq_lo, lease.count, lease.coord_id, id},
                   kSeqGrantKind);
}

void PubSubSystem::on_seq_grant(PeerId self, PeerId from, const SeqGrant& grant) {
  coord_hop_->acknowledge(self, from, grant.coord_id);
  if (!coord_seen_.insert(util::PeerKey{self, 0, grant.coord_id})) return;
  const auto it = lease_pending_.find(grant.lease_id);
  if (it == lease_pending_.end()) return;  // re-keyed by an abandon, or stale
  PendingLease lease = std::move(it->second);
  lease_pending_.erase(it);
  record_accept_times(lease.group, grant.seq_lo, lease.accepted);
  launch_wave(lease.group, lease.slot, self, grant.seq_lo,
              grant.seq_lo + grant.count - 1, lease.origin);
}

void PubSubSystem::launch_wave(GroupId group, std::uint32_t origin_slot,
                               PeerId origin_root, std::uint64_t seq_lo,
                               std::uint64_t seq_hi, PeerId origin) {
  GroupStats& stats = manager_->stats(group);
  const std::size_t replicas = manager_->root_replicas();
  for (std::uint32_t s = 0; s < replicas; ++s) {
    if (s == origin_slot) continue;
    const PeerId target = manager_->slot_root(group, s);
    if (target == kInvalidPeer || !manager_->alive(target)) continue;
    ++stats.shard_handoffs;
    const std::uint64_t id = next_coord_id_++;
    if (tracer_.enabled())
      tracer_.emit({sim_->now(), obs::TraceEventType::kShardWave, group, id,
                    seq_lo, seq_hi, origin_root, target});
    coord_hop_->send(origin_root, target, id, ShardWave{group, s, seq_lo, seq_hi, id},
                     kShardWaveKind);
  }
  drive_shard_wave(group, origin_slot, origin_root, seq_lo, seq_hi, origin);
}

void PubSubSystem::on_shard_wave(PeerId self, PeerId from, const ShardWave& sw) {
  coord_hop_->acknowledge(self, from, sw.coord_id);
  if (!coord_seen_.insert(util::PeerKey{self, 0, sw.coord_id})) return;
  const PeerId current = manager_->slot_root(sw.group, sw.slot);
  if (current != self) {
    // Raced a promotion: forward the handoff to the slot's current root so
    // the range still reaches the shard.
    if (current != kInvalidPeer && manager_->alive(current)) {
      const std::uint64_t id = next_coord_id_++;
      coord_hop_->send(self, current, id,
                       ShardWave{sw.group, sw.slot, sw.seq_lo, sw.seq_hi, id},
                       kShardWaveKind);
    }
    return;
  }
  drive_shard_wave(sw.group, sw.slot, self, sw.seq_lo, sw.seq_hi, kInvalidPeer);
}

void PubSubSystem::drive_shard_wave(GroupId group, std::uint32_t slot, PeerId root,
                                    std::uint64_t lo, std::uint64_t hi, PeerId origin) {
  // Per-slot heartbeat horizon: one past the highest seq THIS slot root has
  // driven. A global next_seq_ horizon would advertise seqs a slot has not
  // received its handoff for yet, tricking subscribers into doomed NACKs.
  std::uint64_t& horizon = shard_horizon_[{group, slot}];
  horizon = std::max(horizon, hi + 1);
  const auto snapshot = manager_->slot_tree_snapshot(group, slot);
  if (snapshot == nullptr) return;  // shard empty: nobody owed this range
  GroupStats& stats = manager_->stats(group);
  const std::uint64_t count = hi - lo + 1;
  stats.expected_deliveries += count * snapshot->reached_subscribers();
  if (manager_->root_replicas() > 1) ++stats.shard_waves;
  if (batching() || count > 1) {
    // Envelope amortisation: sent one publish at a time, each of the
    // `count` seqs would have paid one payload envelope per tree edge (and
    // one ack per edge at QoS 1+); the range wave pays each edge once.
    // With root coalescing on, every wave is a flushed batch, so even a
    // one-publish batch counts as a batched wave.
    const std::uint64_t saved = (count - 1) * snapshot->tree.edge_count() *
                                (acked() ? 2 : 1);
    stats.envelopes_saved += saved;
  }
  // The wave->group map is kept with or without a sink, so attaching one
  // cannot perturb a run.
  const std::uint64_t wave = next_wave_++;
  wave_groups_.push_back(group);
  if (tracer_.enabled()) {
    // An unbatched publish's accept names its wave and seq range, so
    // events_for_wave finds it; a buffered one was traced at buffer time.
    if (origin != kInvalidPeer)
      tracer_.emit({sim_->now(), obs::TraceEventType::kPublishAccepted, group, wave,
                    lo, hi, root, origin});
    tracer_.emit({sim_->now(), obs::TraceEventType::kRootFlush, group, wave, lo,
                  hi, root});
  }
  disseminate(root, kInvalidPeer,
              payload_pool_.make(GroupDelivery{group, lo, hi, wave, snapshot, slot}));
  if (heartbeats_enabled()) schedule_heartbeat(group);
}

void PubSubSystem::on_coord_abandon(const std::any& payload) {
  if (const auto* lease = std::any_cast<SeqLease>(&payload)) {
    // The authority died before acking: re-dispatch to the CURRENT
    // authority (the promoted slot-0 root) under a fresh coord id.
    const auto it = lease_pending_.find(lease->coord_id);
    if (it != lease_pending_.end())
      request_seq_lease(std::move(lease_pending_.extract(it).mapped()));
    return;
  }
  if (const auto* grant = std::any_cast<SeqGrant>(&payload)) {
    // The requesting slot root died holding a granted range: the range was
    // assigned and can never flush — the documented permanent seq hole.
    ++manager_->stats(grant->group).seq_grants_lost;
    lease_pending_.erase(grant->lease_id);
    return;
  }
  if (const auto* sw = std::any_cast<ShardWave>(&payload)) {
    // The addressed slot root died: hand the range to the slot's promoted
    // root (re-sent nominally from the current authority).
    const PeerId target = manager_->slot_root(sw->group, sw->slot);
    if (target == kInvalidPeer || !manager_->alive(target)) return;
    const PeerId sender = manager_->slot_root(sw->group, 0);
    if (sender == kInvalidPeer || !manager_->alive(sender)) return;
    const std::uint64_t id = next_coord_id_++;
    ++manager_->stats(sw->group).shard_handoffs;
    if (tracer_.enabled())
      tracer_.emit({sim_->now(), obs::TraceEventType::kShardWave, sw->group, id,
                    sw->seq_lo, sw->seq_hi, sender, target});
    coord_hop_->send(sender, target, id,
                     ShardWave{sw->group, sw->slot, sw->seq_lo, sw->seq_hi, id},
                     kShardWaveKind);
  }
}

void PubSubSystem::disseminate(PeerId self, PeerId from,
                               const DeliveryPtr& delivery_ptr) {
  const GroupDelivery& delivery = *delivery_ptr;
  GroupStats& stats = manager_->stats(delivery.group);
  if (acked() && from != kInvalidPeer) {
    // Ack before anything else — a dedup hit included. The duplicate's
    // arrival means our previous ack may have been the lost message; an
    // unacked sender would retransmit until its budget died on a hop that
    // already delivered. One ack covers the wave's whole range.
    ++stats.ack_messages;
    hop_->acknowledge(self, from, delivery.wave);
  }
  // Per-seq dedup over the range, keyed by (group, slot): with several
  // slots a peer can relay for more than one shard tree, and one slot's
  // wave must not starve another's subtree just because it carried the
  // same seqs. A retransmitted wave is usually stale end to end, but a
  // repair can have filled part of the range first — then only the fresh
  // remainder is delivered.
  if (acked()) {
    seen_ranges_.mark(util::PeerKey{self, delivery.slot, delivery.group}, delivery.seq,
                      delivery.seq_hi, fresh_scratch_);
    if (fresh_scratch_.empty()) {
      // Every seq already processed: a pure duplicate, re-acked above but
      // never re-delivered or re-forwarded.
      ++stats.duplicate_deliveries;
      if (tracer_.enabled())
        tracer_.emit({sim_->now(), obs::TraceEventType::kDuplicateSuppressed,
                      delivery.group, delivery.wave, delivery.seq, delivery.seq_hi,
                      self, from});
      return;
    }
  } else {
    // Under QoS 0 the dedup is moot: the snapshot is a tree (one parent
    // per peer) and every wave has a unique (group, slot, seq range), so
    // without retransmissions a peer can never receive the same wave twice.
    fresh_scratch_.assign(1, {delivery.seq, delivery.seq_hi});
  }
  // Forwarding reads the wave's own snapshot, never the live cache — a
  // mid-wave graft/prune/rebuild affects later publishes only.
  // The snapshot is immutable, so one node lookup serves the whole step.
  const GroupTree* gt = delivery.tree.get();
  const multicast::MulticastTree::Node* node = gt == nullptr ? nullptr : gt->tree.node(self);
  if (node == nullptr) return;
  // QoS 2 repair responders: the slot root and every forwarder retain the
  // wave (bounded per-(peer, group) window) so downstream NACKs can be
  // served from the nearest ancestor instead of the publisher. One
  // retained entry covers the whole range.
  if (end_to_end() && (gt->tree.root() == self || !gt->tree.children(*node).empty())) {
    stats.retained_evictions += manager_->retain_payload(self, delivery.group, delivery_ptr);
    if (warm() && from == kInvalidPeer && delivery.slot == 0) {
      // The authority's own flush: mirror the retained range to the
      // replica so a promoted successor can serve post-migration NACKs for
      // it. Other slot roots retain locally and fail cold (their shard
      // re-fetches via NACKs).
      ReplicaSync sync;
      sync.what = ReplicaSync::What::kRetain;
      sync.wave = delivery;
      replica_send(self, delivery.group, std::move(sync), false);
    }
  }
  // A subscriber sits in exactly one slot's tree, so the (group, slot)
  // dedup above keeps delivery exact.
  if (node->delivers) {
    for (const auto& [lo, hi] : fresh_scratch_) {
      if (end_to_end())
        window_observe(self, delivery, lo, hi);  // in-order release path
      else
        deliver_range(self, delivery.group, lo, hi);
    }
  }
  for (PeerId child : gt->tree.children(*node)) {
    ++stats.payload_messages;
    hop_->send(self, child, delivery.wave, delivery_ptr);
  }
}

void PubSubSystem::deliver_range(PeerId self, GroupId group, std::uint64_t lo,
                                 std::uint64_t hi) {
  GroupStats& stats = manager_->stats(group);
  const double now = sim_->now();
  const std::vector<double>* times = accept_times_.find(group_key(group));
  for (std::uint64_t seq = lo; seq <= hi; ++seq) {
    ++stats.deliveries;
    if (times != nullptr && seq < times->size())
      stats.delivery_latency.record(now - (*times)[seq]);
    if (tracer_.enabled())
      tracer_.emit({now, obs::TraceEventType::kDelivery, group, obs::kNoWave, seq,
                    seq, self});
    if (probe_) probe_(self, group, seq, now);
  }
}

void PubSubSystem::deliver_local(PeerId self, GroupId group, std::uint64_t seq) {
  GroupStats& stats = manager_->stats(group);
  ++stats.deliveries;
  apply_delivery(self, group, seq, sim_->now());
  if (tracer_.enabled())
    tracer_.emit({sim_->now(), obs::TraceEventType::kDelivery, group, obs::kNoWave,
                  seq, seq, self});
}

void PubSubSystem::apply_delivery(PeerId self, GroupId group, std::uint64_t seq,
                                  double time) {
  // Publish -> delivery latency, recorded unconditionally (seq indexes the
  // accept-time vector because seqs are assigned densely at the root).
  const std::vector<double>* times = accept_times_.find(group_key(group));
  if (times != nullptr && seq < times->size())
    manager_->stats(group).delivery_latency.record(time - (*times)[seq]);
  if (probe_) probe_(self, group, seq, time);
}

PubSubSystem::WindowState* PubSubSystem::find_window(PeerId self, GroupId group) {
  const std::uint32_t* slot = window_slots_.find(util::PeerKey{self, 0, group});
  return slot == nullptr ? nullptr : &windows_[*slot];
}

std::vector<PubSubSystem::OpenGapWindow> PubSubSystem::open_gap_windows() const {
  std::vector<OpenGapWindow> open;
  window_slots_.for_each([&](const util::PeerKey& key, std::uint32_t slot) {
    const WindowState& ws = windows_[slot];
    if (!ws.gaps.empty()) open.push_back({key.peer, key.id, ws.gaps.size(), ws.timer_armed});
  });
  std::sort(open.begin(), open.end(), [](const OpenGapWindow& a, const OpenGapWindow& b) {
    return std::pair(a.peer, a.group) < std::pair(b.peer, b.group);
  });
  return open;
}

PubSubSystem::WindowState& PubSubSystem::ensure_window(PeerId self, GroupId group) {
  const auto [slot, inserted] = window_slots_.try_emplace(
      util::PeerKey{self, 0, group}, static_cast<std::uint32_t>(windows_.size()));
  if (inserted)
    windows_.push_back(WindowState{SubscriberWindow{}, {}, nullptr, 0, false});
  return windows_[*slot];
}

void PubSubSystem::window_observe(PeerId self, const GroupDelivery& delivery,
                                  std::uint64_t lo, std::uint64_t hi) {
  WindowState& ws = ensure_window(self, delivery.group);
  // Newest wave's snapshot wins: a repair resends an OLD wave, and its
  // pre-failure tree must not regress the ancestor chain other gaps use.
  if (ws.latest_tree == nullptr || delivery.wave >= ws.latest_wave) {
    ws.latest_tree = delivery.tree;
    ws.latest_wave = delivery.wave;
  }
  GroupStats& stats = manager_->stats(delivery.group);
  // Gaps inside the range healed — by a kRepairKind, or by per-hop
  // recovery winning the race before any NACK went out.
  for (std::uint64_t s = lo; s <= hi; ++s)
    finish_gap(self, delivery.group, ws, s, /*repaired=*/true);
  const auto arrival = ws.window.observe_range(lo, hi);
  for (const std::uint64_t m : arrival.pre_window) {
    ++stats.pre_window_deliveries;
    deliver_local(self, delivery.group, m);
  }
  for (const std::uint64_t m : arrival.new_gaps) {
    ws.gaps.emplace(m, GapState{sim_->now(), 0, 0});
    ++stats.gap_seqs_detected;
    if (tracer_.enabled())
      tracer_.emit({sim_->now(), obs::TraceEventType::kGapDetected, delivery.group,
                    obs::kNoWave, m, m, self});
  }
  for (const std::uint64_t m : arrival.forced_abandoned) {
    ws.gaps.erase(m);
    ++stats.gap_seqs_abandoned;
    if (tracer_.enabled())
      tracer_.emit({sim_->now(), obs::TraceEventType::kGapAbandoned, delivery.group,
                    obs::kNoWave, m, m, self});
  }
  for (const std::uint64_t m : arrival.released) deliver_local(self, delivery.group, m);
  if (!ws.gaps.empty()) arm_gap_timer(self, delivery.group, ws);
}

void PubSubSystem::arm_gap_timer(PeerId self, GroupId group, WindowState& ws) {
  if (ws.timer_armed) return;
  ws.timer_armed = true;
  sim_->schedule_after(kGapTimeout, [this, self, group]() { on_gap_timer(self, group); });
}

std::vector<PeerId> PubSubSystem::ancestor_chain(PeerId self, GroupId group,
                                                 const WindowState& ws) const {
  std::vector<PeerId> chain;
  const GroupTree* gt = ws.latest_tree.get();
  if (gt == nullptr || !gt->tree.reached(self)) return chain;
  for (PeerId p = self; p != gt->tree.root();) {
    p = gt->tree.parent(p);
    if (p == kInvalidPeer) break;  // defensive: snapshot trees are rooted
    if (manager_->alive(p)) chain.push_back(p);
  }
  if (warm() && !manager_->alive(gt->tree.root())) {
    // The snapshot's root died mid-repair, so the walk above dead-ends
    // below it. The promoted successor holds the replicated history —
    // append it as the final escalation target: the subscriber's own slot
    // root, since every committed range is driven through every shard
    // tree, so the promoted slot root retains it.
    const PeerId current = manager_->owner_root(group, self);
    if (manager_->alive(current) && current != self &&
        std::find(chain.begin(), chain.end(), current) == chain.end())
      chain.push_back(current);
  }
  return chain;
}

void PubSubSystem::finish_gap(PeerId self, GroupId group, WindowState& ws,
                              std::uint64_t seq, bool repaired) {
  GroupStats& stats = manager_->stats(group);
  const auto it = ws.gaps.find(seq);
  if (it == ws.gaps.end()) return;
  if (repaired) {
    const double latency = sim_->now() - it->second.detected_at;
    stats.gap_latency_total += latency;
    stats.gap_repair_latency.record(latency);
    ++stats.gap_seqs_repaired;
    if (tracer_.enabled())
      tracer_.emit({sim_->now(), obs::TraceEventType::kGapRepaired, group,
                    obs::kNoWave, seq, seq, self});
  } else {
    ++stats.gap_seqs_abandoned;
    if (tracer_.enabled())
      tracer_.emit({sim_->now(), obs::TraceEventType::kGapAbandoned, group,
                    obs::kNoWave, seq, seq, self});
  }
  ws.gaps.erase(it);
  if (!repaired)
    for (const std::uint64_t m : ws.window.abandon(seq)) deliver_local(self, group, m);
}

void PubSubSystem::send_nacks(PeerId self, GroupId group, WindowState& ws,
                              const std::vector<std::uint64_t>& seqs, bool escalate) {
  GroupStats& stats = manager_->stats(group);
  const auto chain = ancestor_chain(self, group, ws);
  // Batch by target: gaps at different escalation levels NACK different
  // ancestors, but each ancestor gets at most one envelope per round.
  std::map<PeerId, std::vector<std::uint64_t>> by_target;
  for (const std::uint64_t seq : seqs) {
    const auto it = ws.gaps.find(seq);
    if (it == ws.gaps.end()) continue;  // already healed or given up
    GapState& gap = it->second;
    // Budget: one attempt per ancestor plus bounded slack for lost
    // NACK/repair envelopes (a root miss short-circuits this in
    // on_repair_miss).
    if (chain.empty() || gap.attempts >= chain.size() + kMaxNackAttempts) {
      finish_gap(self, group, ws, seq, /*repaired=*/false);
      continue;
    }
    if (escalate && gap.attempts > 0) {
      // The previous ancestor had its shot (timeout or explicit miss):
      // move one level up. Past the root the target saturates there.
      ++gap.ancestor;
      if (gap.ancestor < chain.size()) ++stats.repair_escalations;
    }
    const PeerId target = chain[std::min(gap.ancestor, chain.size() - 1)];
    ++gap.attempts;
    by_target[target].push_back(seq);
  }
  for (auto& [target, missing] : by_target) {
    ++stats.nacks_sent;
    stats.nacked_seqs += missing.size();
    if (tracer_.enabled()) {
      const auto [lo, hi] = std::minmax_element(missing.begin(), missing.end());
      tracer_.emit({sim_->now(), obs::TraceEventType::kNackSent, group,
                    obs::kNoWave, *lo, *hi, self, target});
    }
    sim_->send(self, target, kNackKind, GapNack{group, self, std::move(missing)});
  }
  if (!ws.gaps.empty()) arm_gap_timer(self, group, ws);
}

void PubSubSystem::on_gap_timer(PeerId self, GroupId group) {
  WindowState* wsp = find_window(self, group);
  if (wsp == nullptr) return;
  WindowState& ws = *wsp;
  ws.timer_armed = false;
  if (ws.gaps.empty()) return;
  if (!manager_->alive(self)) return;  // died while the timer was pending
  // Piggyback on QoS 1: while some sender is still retransmitting toward
  // us, the gap may heal per-hop — defer the whole round instead of
  // repairing the same wave twice.
  if (hop_->pending_to(self) > 0) {
    ++manager_->stats(group).nack_deferrals;
    arm_gap_timer(self, group, ws);
    return;
  }
  std::vector<std::uint64_t> outstanding;
  outstanding.reserve(ws.gaps.size());
  for (const auto& [seq, gap] : ws.gaps) outstanding.push_back(seq);
  send_nacks(self, group, ws, outstanding, /*escalate=*/true);
}

void PubSubSystem::on_nack(PeerId self, const GapNack& nack) {
  GroupStats& stats = manager_->stats(nack.group);
  std::vector<std::uint64_t> missing;
  // Range repair service: several NACKed seqs can live in one retained
  // range wave — resend each retained envelope at most once per NACK.
  std::set<std::uint64_t> served_ranges;  // keyed by the range's seq_lo
  for (const std::uint64_t seq : nack.seqs) {
    if (const DeliveryPtr* wave_ptr = manager_->retained_payload(self, nack.group, seq)) {
      const GroupDelivery& wave = **wave_ptr;
      if (!served_ranges.insert(wave.seq).second) continue;
      ++stats.repairs_served;
      if (tracer_.enabled())
        tracer_.emit({sim_->now(), obs::TraceEventType::kRepairServed, nack.group,
                      wave.wave, wave.seq, wave.seq_hi, self, nack.origin});
      sim_->send(self, nack.origin, kRepairKind, *wave_ptr);
    } else {
      missing.push_back(seq);
    }
  }
  if (!missing.empty()) {
    ++stats.repair_misses;
    if (tracer_.enabled()) {
      const auto [lo, hi] = std::minmax_element(missing.begin(), missing.end());
      tracer_.emit({sim_->now(), obs::TraceEventType::kRepairMiss, nack.group,
                    obs::kNoWave, *lo, *hi, self, nack.origin});
    }
    sim_->send(self, nack.origin, kRepairMissKind,
               GapRepairMiss{nack.group, std::move(missing)});
  }
}

void PubSubSystem::on_repair(PeerId self, const DeliveryPtr& delivery_ptr) {
  const GroupDelivery& delivery = *delivery_ptr;
  GroupStats& stats = manager_->stats(delivery.group);
  // Escalation can recruit two responders for one seq (a slow repair plus
  // a retried ancestor): the shared dedup suppresses the second copy. A
  // range repair can also overlap seqs that arrived since the NACK went
  // out — only the fresh remainder runs through the window. The key is the
  // subscriber's own slot, whose tree carried its data waves: a responder
  // relaying for several slots may serve another slot's copy of the range.
  const util::PeerKey key{self, manager_->owner_slot(delivery.group, self), delivery.group};
  seen_ranges_.mark(key, delivery.seq, delivery.seq_hi, fresh_scratch_);
  if (fresh_scratch_.empty()) {
    ++stats.duplicate_deliveries;
    return;
  }
  for (const auto& [lo, hi] : fresh_scratch_) window_observe(self, delivery, lo, hi);
  // Retain by the CURRENT tree, not the repaired wave's old snapshot: a
  // peer that forwards for the rebuilt tree can serve its own subtree's
  // NACKs for this wave even if the failed tree had it as a leaf.
  const WindowState& ws = *find_window(self, delivery.group);  // window_observe created it
  const GroupTree* latest = ws.latest_tree.get();
  if (latest != nullptr && latest->tree.reached(self) &&
      !latest->tree.children(self).empty())
    stats.retained_evictions += manager_->retain_payload(self, delivery.group, delivery_ptr);
}

void PubSubSystem::on_repair_miss(PeerId self, PeerId from, const GapRepairMiss& miss) {
  WindowState* wsp = find_window(self, miss.group);
  if (wsp == nullptr) return;
  WindowState& ws = *wsp;
  // Locate the responder in the current chain: several NACK rounds can be
  // in flight at once (the miss walk and the timer walk interleave), so a
  // miss only means "escalate" when it comes from the gap's frontier —
  // stale misses from levels already passed must not push the target past
  // ancestors that were never asked.
  const auto chain = ancestor_chain(self, miss.group, ws);
  std::size_t from_level = chain.size();
  for (std::size_t i = 0; i < chain.size(); ++i)
    if (chain[i] == from) {
      from_level = i;
      break;
    }
  if (from_level == chain.size()) return;  // responder left the chain: timer retries
  std::vector<std::uint64_t> still_missing;
  for (const std::uint64_t seq : miss.seqs) {
    const auto git = ws.gaps.find(seq);
    if (git == ws.gaps.end()) continue;  // healed meanwhile
    if (from_level < git->second.ancestor) continue;  // stale lower-level miss
    if (from_level + 1 >= chain.size()) {
      // The chain's end — the root — says the seq is gone (evicted past
      // the retention window): nobody farther out can serve it. Abandon
      // and let the window skip on.
      finish_gap(self, miss.group, ws, seq, /*repaired=*/false);
      continue;
    }
    git->second.ancestor = from_level + 1;
    ++manager_->stats(miss.group).repair_escalations;
    still_missing.push_back(seq);
  }
  send_nacks(self, miss.group, ws, still_missing, /*escalate=*/false);
}

void PubSubSystem::replica_send(PeerId root, GroupId group, ReplicaSync sync,
                                bool migration) {
  const PeerId replica = manager_->ensure_replica(group);
  if (replica == kInvalidPeer || !manager_->alive(root)) return;
  sync.group = group;
  sync.sync_id = next_sync_id_++;
  GroupStats& stats = manager_->stats(group);
  ++stats.replica_sync_envelopes;
  if (migration) ++stats.migration_envelopes;
  if (tracer_.enabled())
    tracer_.emit({sim_->now(), obs::TraceEventType::kReplicaSync, group,
                  sync.sync_id, static_cast<std::uint64_t>(sync.what),
                  static_cast<std::uint64_t>(sync.what), root, replica});
  replica_hop_->send(root, replica, sync.sync_id, std::move(sync));
}

void PubSubSystem::replica_sync_membership(PeerId root, GroupId group, PeerId member,
                                           bool subscribed) {
  ReplicaSync sync;
  sync.what = subscribed ? ReplicaSync::What::kMember : ReplicaSync::What::kUnmember;
  sync.member = member;
  replica_send(root, group, std::move(sync), false);
}

void PubSubSystem::on_replica_sync(PeerId self, PeerId from, const ReplicaSync& sync) {
  // Ack first, dedup second, exactly like the graft plane: the duplicate's
  // arrival means our previous ack may have been the lost envelope, but a
  // non-idempotent delta (kPendingJoin) must apply exactly once.
  replica_hop_->acknowledge(self, from, sync.sync_id);
  if (!sync_seen_.insert(util::PeerKey{self, 0, sync.sync_id})) return;
  // Stale stream: the delta was addressed to this peer as the group's
  // replica. If it no longer is (promoted, or replaced while the envelope
  // flew), applying it would corrupt state now owed to someone else.
  if (manager_->replica_of(sync.group) != self) return;
  switch (sync.what) {
    case ReplicaSync::What::kMember:
      manager_->replica_apply_membership(sync.group, sync.member, true);
      return;
    case ReplicaSync::What::kUnmember:
      manager_->replica_apply_membership(sync.group, sync.member, false);
      return;
    case ReplicaSync::What::kRetain:
      // Mirrored into the replica's OWN RetainedBuffer (per-peer state that
      // survives promotion) — this line is what turns post-migration NACKs
      // from guaranteed misses into served repairs.
      // The mirrored wave arrives by value; the pool wraps it in the
      // DeliveryPtr a retained buffer holds.
      manager_->stats(sync.group).retained_evictions +=
          manager_->retain_payload(self, sync.group, payload_pool_.make(sync.wave));
      return;
    case ReplicaSync::What::kPendingJoin: {
      ReplicaPending& pending = replica_pending_[sync.group];
      ++pending.count;
      pending.accepted.push_back(sync.accepted_at);
      return;
    }
    case ReplicaSync::What::kPendingFlush:
      replica_pending_.erase(sync.group);
      return;
  }
}

void PubSubSystem::bootstrap_replica(GroupId group, bool migration) {
  const PeerId root = manager_->root_of(group);
  if (!manager_->alive(root)) return;
  if (manager_->ensure_replica(group) == kInvalidPeer) return;
  // One envelope per member, retained range, and pending join: the handoff
  // costs real messages on real links, not a pointer swap.
  for (const PeerId member : manager_->subscribers_of(group)) {
    ReplicaSync sync;
    sync.what = ReplicaSync::What::kMember;
    sync.member = member;
    replica_send(root, group, std::move(sync), migration);
  }
  for (const auto& [lo, hi] : manager_->retained_ranges(root, group)) {
    (void)hi;  // the retained wave carries its own [seq, seq_hi]
    const DeliveryPtr* wave = manager_->retained_payload(root, group, lo);
    if (wave == nullptr) continue;
    ReplicaSync sync;
    sync.what = ReplicaSync::What::kRetain;
    sync.wave = **wave;
    replica_send(root, group, std::move(sync), migration);
  }
  if (acked() && batching()) {
    // Only the authority's buffer ({group, slot 0}) is warm-replicated, so
    // only it re-joins here.
    const auto it = shard_pending_.find({group, 0u});
    if (it != shard_pending_.end() && it->second.count > 0 && it->second.root == root) {
      for (const double accepted_at : it->second.accepted) {
        ReplicaSync sync;
        sync.what = ReplicaSync::What::kPendingJoin;
        sync.accepted_at = accepted_at;
        replica_send(root, group, std::move(sync), migration);
      }
    }
  }
}

void PubSubSystem::handle_promotion(const GroupManager::RootPromotion& promotion) {
  GroupStats& stats = manager_->stats(promotion.group);
  if (tracer_.enabled())
    tracer_.emit({sim_->now(), obs::TraceEventType::kPromotion, promotion.group,
                  obs::kNoWave, promotion.warm ? 1u : 0u,
                  promotion.membership_consistent ? 1u : 0u, promotion.new_root,
                  promotion.old_root});
  if (acked() && batching()) {
    // Adopt (or retire) the dead root's pending batch. The façade's buffer
    // count is ground truth for how many publishes were pending; the
    // replica's copy bounds how many the successor may claim — min() keeps
    // a racing flush/join from inventing phantom publishes. The authority's
    // buffer is the {group, slot 0} one.
    const auto bit = shard_pending_.find({promotion.group, 0u});
    PendingBatch* bp = bit == shard_pending_.end() ? nullptr : &bit->second;
    const std::size_t at_root =
        (bp != nullptr && bp->root == promotion.old_root) ? bp->count : 0;
    if (at_root > 0) {
      sim_->cancel(bp->timer);
      std::size_t inherited = 0;
      if (promotion.warm) {
        const auto rp = replica_pending_.find(promotion.group);
        if (rp != replica_pending_.end())
          inherited = std::min(rp->second.count, at_root);
      }
      if (at_root > inherited) stats.batch_publishes_lost += at_root - inherited;
      bp->count = inherited;
      bp->accepted.resize(inherited);
      if (inherited > 0) {
        const auto& copy = replica_pending_.at(promotion.group).accepted;
        std::copy_n(copy.begin(), inherited, bp->accepted.begin());
        bp->root = promotion.new_root;
        stats.pending_publishes_inherited += inherited;
        // A fresh window from the adoption instant: the inherited batch
        // flushes from the successor like any other.
        bp->timer = sim_->schedule_after(
            config_.batch_window,
            [this, group = promotion.group]() { flush_shard_batch(group, 0, true); });
      }
    }
  }
  replica_pending_.erase(promotion.group);
  // The successor owes its own replica a full bootstrap — the measured
  // migration cost — and, under heartbeats, a beacon round so subscribers
  // severed by the same failure learn the horizon from the NEW root.
  bootstrap_replica(promotion.group, /*migration=*/true);
  if (heartbeats_enabled()) {
    const auto seq_it = next_seq_.find(promotion.group);
    if (seq_it != next_seq_.end() && seq_it->second > 0)
      schedule_heartbeat(promotion.group);
  }
}

void PubSubSystem::schedule_heartbeat(GroupId group) {
  HeartbeatState& hb = heartbeat_[group];
  hb.rounds_left = kHeartbeatRounds;
  // A new epoch orphans any pending tick of the previous burst — timers
  // never need cancelling, stale ones just fall through.
  const std::uint64_t epoch = ++hb.epoch;
  sim_->schedule_after(config_.heartbeat_interval,
                       [this, group, epoch]() { heartbeat_tick(group, epoch); });
}

void PubSubSystem::heartbeat_tick(GroupId group, std::uint64_t epoch) {
  const auto it = heartbeat_.find(group);
  if (it == heartbeat_.end() || it->second.epoch != epoch ||
      it->second.rounds_left == 0)
    return;  // superseded by a newer flush's burst, or the burst is done
  --it->second.rounds_left;
  send_heartbeat(group);
  if (it->second.rounds_left > 0)
    sim_->schedule_after(config_.heartbeat_interval,
                         [this, group, epoch]() { heartbeat_tick(group, epoch); });
}

void PubSubSystem::send_heartbeat(GroupId group) {
  // One beacon per slot, advertising the slot's OWN horizon: a global
  // next_seq_ horizon would name seqs whose handoff a lagging slot has not
  // driven yet, sending its subscribers into doomed NACK rounds.
  for (std::uint32_t s = 0; s < manager_->root_replicas(); ++s) {
    const auto hit = shard_horizon_.find({group, s});
    if (hit == shard_horizon_.end() || hit->second == 0) continue;  // nothing driven
    const PeerId root = manager_->slot_root(group, s);
    // A dead slot root's promotion re-arms its own burst.
    if (root == kInvalidPeer || !manager_->alive(root)) continue;
    const auto snapshot = manager_->slot_tree_snapshot(group, s);
    if (snapshot == nullptr) continue;  // nobody subscribed in this shard
    // Beacons live in the same dense wave-id space as data waves, so
    // latest-tree ordering works unchanged.
    const std::uint64_t wave = next_wave_++;
    wave_groups_.push_back(group);
    const GroupHeartbeat hb{group, hit->second - 1, wave, snapshot};
    ++manager_->stats(group).heartbeats_sent;
    if (tracer_.enabled())
      tracer_.emit({sim_->now(), obs::TraceEventType::kHeartbeat, group, wave,
                    hb.highest_seq, hb.highest_seq, root});
    on_heartbeat(root, hb);  // the root's own copy; forwarding starts here
  }
}

void PubSubSystem::on_heartbeat(PeerId self, const GroupHeartbeat& hb) {
  // No dedup: a beacon travels its snapshot tree once (one parent per
  // peer) and is never retransmitted.
  const GroupTree* gt = hb.tree.get();
  const multicast::MulticastTree::Node* node = gt == nullptr ? nullptr : gt->tree.node(self);
  if (node == nullptr) return;
  if (node->delivers) {
    WindowState* wsp = find_window(self, hb.group);
    // No window state means this subscriber never consumed a wave — the
    // beacon owes a late joiner nothing (mark_through's no-op rule), but
    // it ALSO covers the residual blind spot: a subscriber severed on the
    // group's only wave has no window and stays silent forever. Count
    // those beacons so the blind spot is visible in GroupStats instead of
    // indistinguishable from healthy late joiners.
    if (wsp == nullptr) {
      ++manager_->stats(hb.group).heartbeat_blind_windows;
    } else {
      WindowState& ws = *wsp;
      // The beacon is the newest traffic: its snapshot feeds the ancestor
      // chain exactly as a data wave's would.
      if (ws.latest_tree == nullptr || hb.wave >= ws.latest_wave) {
        ws.latest_tree = hb.tree;
        ws.latest_wave = hb.wave;
      }
      GroupStats& stats = manager_->stats(hb.group);
      for (const std::uint64_t m : ws.window.mark_through(hb.highest_seq)) {
        ws.gaps.emplace(m, GapState{sim_->now(), 0, 0});
        ++stats.gap_seqs_detected;
        ++stats.heartbeat_gap_detections;
        if (tracer_.enabled())
          tracer_.emit({sim_->now(), obs::TraceEventType::kGapDetected, hb.group,
                        obs::kNoWave, m, m, self});
      }
      if (!ws.gaps.empty()) arm_gap_timer(self, hb.group, ws);
    }
  }
  for (const PeerId child : gt->tree.children(*node))
    sim_->send(self, child, kHeartbeatKind, hb);
}

template <sim::MessageKind Kind>
void PubSubSystem::schedule_control(double time, PeerId peer, GroupId group) {
  sim_->schedule_at(time, &PubSubNode::control_thunk<Kind>, nodes_.at(peer).get(), group);
}

void PubSubSystem::issue_control(PeerId peer, GroupId group, sim::MessageKind kind) {
  if (!manager_->alive(peer)) return;
  if (kind == kPublishKind && publisher_batching()) {
    publisher_join(peer, group);
    return;
  }
  // Control goes to the origin's OWN slot root — with several slots this
  // is the load split: each anchor's neighbourhood hits its own replica.
  const GroupRequest request{group, peer, manager_->owner_root(group, peer)};
  if (peer == request.target)
    handle_at_root(peer, kind, request);
  else
    forward_control(peer, kind, request);
}

void PubSubSystem::publisher_join(PeerId peer, GroupId group) {
  PublisherBatch& batch = publisher_pending_[{peer, group}];
  ++batch.count;
  ++manager_->stats(group).publisher_batched_publishes;
  if (batch.count == 1) {
    batch.timer =
        sim_->schedule_after(config_.publisher_batch_window,
                             [this, peer, group]() { publisher_flush(peer, group); });
  }
  if (batch.count >= kPublisherMaxBatch) {
    sim_->cancel(batch.timer);
    publisher_flush(peer, group);
  }
}

void PubSubSystem::publisher_flush(PeerId peer, GroupId group) {
  const auto it = publisher_pending_.find({peer, group});
  if (it == publisher_pending_.end() || it->second.count == 0) return;
  const std::uint32_t n = it->second.count;
  it->second.count = 0;
  if (!manager_->alive(peer)) return;  // died holding the buffer: publishes die too
  GroupStats& stats = manager_->stats(group);
  ++stats.publisher_batches;
  // One control envelope now carries n publishes; the other n-1 were never
  // sent (the whole point of source-side coalescing on a hot group).
  stats.publisher_envelopes_saved += n - 1;
  const GroupRequest request{group, peer, manager_->owner_root(group, peer), n};
  if (peer == request.target)
    handle_at_root(peer, kPublishKind, request);
  else
    forward_control(peer, kPublishKind, request);
}

void PubSubSystem::subscribe_at(double time, PeerId peer, GroupId group) {
  schedule_control<kSubscribeKind>(time, peer, group);
}

void PubSubSystem::unsubscribe_at(double time, PeerId peer, GroupId group) {
  schedule_control<kUnsubscribeKind>(time, peer, group);
}

void PubSubSystem::publish_at(double time, PeerId peer, GroupId group) {
  schedule_control<kPublishKind>(time, peer, group);
}

void PubSubSystem::depart_now(PeerId peer) {
  const auto outcome = manager_->handle_departure(peer);
  // The departure sweep aborts every in-flight graft it invalidated; the
  // surviving subscribers re-enter through resubscribe so churn mid-graft
  // converges (the churn battery pins this).
  for (const auto& aborted : outcome.aborted_grafts)
    resubscribe(aborted.group, aborted.subscriber);
  if (!warm()) return;
  // Promotions first: a promoted root re-establishes its own replication
  // before any same-instant membership delta relies on it. Non-authority
  // slot promotions carry no replica state — GroupManager already handed
  // the shard (members + cursors) to the successor; their pending buffers
  // fail cold by design.
  for (const auto& promotion : outcome.promotions) {
    if (promotion.slot != 0) continue;
    handle_promotion(promotion);
  }
  for (const auto& loss : outcome.replica_losses) {
    // The dead replica's pending-batch copy dies with it. replica_pending_
    // is keyed by group (one replica per group), so without this erase the
    // stale count survives the loss and the re-bootstrap below STACKS its
    // fresh kPendingJoin stream on top — a later promotion would then
    // inherit phantom publishes the real buffer never held.
    replica_pending_.erase(loss.group);
    if (manager_->alive(manager_->root_of(loss.group)))
      bootstrap_replica(loss.group, /*migration=*/true);
  }
  for (const GroupId group : outcome.member_losses) {
    const PeerId root = manager_->root_of(group);
    if (manager_->alive(root)) replica_sync_membership(root, group, peer, false);
  }
}

void PubSubSystem::depart_at(double time, PeerId peer) {
  sim_->schedule_at(time, [this, peer]() { depart_now(peer); });
}

std::size_t PubSubSystem::run(std::size_t max_events) {
  return sim_->run_until_idle(max_events);
}

}  // namespace geomcast::groups
