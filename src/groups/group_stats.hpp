// Per-group accounting for the pub/sub subsystem. Every counter is a plain
// event count so per-group instances can be summed into a system aggregate;
// the derived ratios (delivery, amortised tree cost) are what the
// pubsub_throughput bench reports.
#pragma once

#include <cstdint>

#include "obs/histogram.hpp"
#include "util/stats_fields.hpp"

namespace geomcast::groups {

/// Application-level group identifier (opaque; hashed to a rendezvous
/// point in the coordinate space by the GroupManager).
using GroupId = std::uint64_t;

/// GroupStats' scalar fields, in declaration and JSON order (see
/// util/stats_fields.hpp). Every entry merges by sum: the counters add up,
/// and the one gauge, stranded_subscribers (per group, summed over its slot
/// trees at each build), sums to the system-wide number of subscribers no
/// tree spans.
#define GEOMCAST_GROUP_STATS_FIELDS(X)                                                 \
  /* Membership events accepted at the group root. */                                  \
  X(std::uint64_t, subscribes)                                                         \
  X(std::uint64_t, unsubscribes)                                                       \
  /* Publish pipeline. */                                                              \
  X(std::uint64_t, publishes)                                                          \
  /* Wave coalescing (PubSubConfig::batch_window > 0): publishes buffered              \
     at the root and flushed as range waves, with the flush reason split               \
     out (window timer expired vs. batch hit max_batch) so a workload's                \
     burst profile is readable from the stats. */                                      \
  X(std::uint64_t, batched_publishes)    /* publishes that entered a buffer */         \
  X(std::uint64_t, batch_flushes_window) /* waves flushed by the window timer */       \
  X(std::uint64_t, batch_flushes_full)   /* waves flushed by max_batch */              \
  X(std::uint64_t, batch_occupancy_sum)  /* publishes across flushed waves */          \
  /* Buffered publishes dropped because the buffering root departed before             \
     the flush (they died at the root, like any publish to a dead root). */            \
  X(std::uint64_t, batch_publishes_lost)                                               \
  /* Payload (+ack at QoS 1+) envelopes the coalesced waves avoided versus             \
     one wave per publish: (batch size - 1) x tree edges per flush. */                 \
  X(std::uint64_t, envelopes_saved)                                                    \
  /* Sum over publishes of the subscriber count the tree spanned at                    \
     publish time — the denominator of delivery_ratio(). */                            \
  X(std::uint64_t, expected_deliveries)                                                \
  X(std::uint64_t, deliveries)                                                         \
  /* Retransmission duplicates suppressed by the per-(group, seq) dedup:               \
     re-acked, but not re-delivered or re-forwarded. Always 0 under QoS 0 —            \
     waves traverse immutable tree snapshots with unique (group, seq), so              \
     only the QoS 1 retransmit layer can produce a second arrival. */                  \
  X(std::uint64_t, duplicate_deliveries)                                               \
  /* Per-hop payload messages down group trees (one per tree edge per                  \
     publish; relays included, retransmissions counted separately below). */           \
  X(std::uint64_t, payload_messages)                                                   \
  /* Per-hop reliability (QoS 1 and up): the pub/sub data plane runs its               \
     kDeliverKind hops through multicast/reliable_hop.hpp. */                          \
  X(std::uint64_t, ack_messages)     /* kDeliverAckKind envelopes sent */              \
  X(std::uint64_t, retransmissions)  /* payload copies resent on ack timeout */        \
  X(std::uint64_t, abandoned_hops)   /* hops whose retry budget ran out */             \
  /* End-to-end gap repair (QoS 2 only): subscriber-side sequence windows              \
     detect missing per-group seqs and repair them from retained copies at             \
     the tree parent, escalating ancestor-by-ancestor to the root. */                  \
  X(std::uint64_t, gap_seqs_detected)  /* seqs a subscriber found missing */           \
  X(std::uint64_t, gap_seqs_repaired)  /* gaps filled by repair or late data */        \
  X(std::uint64_t, gap_seqs_abandoned) /* gaps given up (window skipped on) */         \
  X(std::uint64_t, nacks_sent)         /* batched kNackKind envelopes */               \
  X(std::uint64_t, nacked_seqs)        /* missing seqs across those NACKs */           \
  X(std::uint64_t, nack_deferrals)  /* rounds deferred to in-flight QoS 1 recovery */  \
  X(std::uint64_t, repairs_served)  /* kRepairKind envelopes resent by responders */   \
  X(std::uint64_t, repair_misses)   /* kRepairMissKind replies (seq not retained) */   \
  X(std::uint64_t, repair_escalations) /* gaps moved to a higher ancestor */           \
  X(std::uint64_t, retained_evictions) /* retained waves displaced by newer ones */    \
  /* Deliveries released below an already-advanced window head — possible              \
     only when a subscriber's very first waves race (see pubsub.hpp on the             \
     QoS 2 ordering guarantee). */                                                     \
  X(std::uint64_t, pre_window_deliveries)                                              \
  /* Sum over repaired gaps of (fill time - detection time), in simulated              \
     seconds; mean_gap_latency() is the derived per-gap figure. */                     \
  X(double, gap_latency_total)                                                         \
  /* Routed control hops (subscribe/unsubscribe/publish envelopes on their             \
     way to the group root). */                                                        \
  X(std::uint64_t, control_messages)                                                   \
  /* Control envelopes that greedy forwarding could not advance (stranded              \
     or next hop departed). */                                                         \
  X(std::uint64_t, stranded_messages)                                                  \
  /* Tree cache behaviour. Each maintenance verb keeps its own message                 \
     counter — graft descent decisions, prune cascade removals, and repair             \
     reattach/splice traffic are different costs and must not conflate                 \
     (repair_messages once absorbed all three; see maintenance_per_publish             \
     for the aggregate). */                                                            \
  X(std::uint64_t, tree_builds)     /* full construction waves */                      \
  X(std::uint64_t, build_messages)  /* construction requests across builds */          \
  X(std::uint64_t, cache_hits)      /* publishes served by an unchanged tree */        \
  X(std::uint64_t, grafts)          /* subscribers spliced into a cached tree */       \
  X(std::uint64_t, graft_messages)  /* zone-descent decisions across grafts */         \
  X(std::uint64_t, prunes)          /* subscribers cascaded out of a cached tree */    \
  X(std::uint64_t, prune_messages)  /* cascade removals across prunes */               \
  X(std::uint64_t, repairs)         /* departures mended in place */                   \
  X(std::uint64_t, repair_messages) /* reattach/splice repair traffic only */          \
  X(std::uint64_t, repair_failures) /* orphans no rule could reattach */               \
  X(std::uint64_t, root_migrations) /* rendezvous root departed, successor picked */   \
  /* Warm root failover (PubSubConfig::warm_failover): the root streams its            \
     bookkeeping to the group's replica so migration is a handoff, not a               \
     rebuild. root_migrations still counts every migration; these make the             \
     replication and handoff COST visible (the ROADMAP "migration cost                 \
     measured in envelopes" gate). */                                                  \
  X(std::uint64_t, replica_sync_envelopes) /* kReplicaSyncKind deltas sent */          \
  X(std::uint64_t, replica_sync_retries)   /* sync envelopes retransmitted */          \
  /* Sync envelopes spent re-establishing replication after a promotion or             \
     replica death (full-state bootstrap to a fresh replica) — the                     \
     per-migration handoff price, a subset of replica_sync_envelopes. */               \
  X(std::uint64_t, migration_envelopes)                                                \
  X(std::uint64_t, warm_promotions) /* migrations inheriting replicated state */       \
  /* Pending-batch publishes the promoted root adopted from the replica's              \
     copy instead of dropping as batch_publishes_lost. */                              \
  X(std::uint64_t, pending_publishes_inherited)                                        \
  /* Root-driven session heartbeats (PubSubConfig::heartbeat_interval): idle           \
     beacons carrying the highest flushed seq down the current tree. */                \
  X(std::uint64_t, heartbeats_sent) /* beacon waves issued by group roots */           \
  /* Gap seqs first revealed by a heartbeat horizon rather than later wave             \
     traffic — each one is the final-wave blind spot closing. */                       \
  X(std::uint64_t, heartbeat_gap_detections)                                           \
  /* Beacons that reached a subscriber with NO window state — the residual             \
     blind spot: a subscriber severed on the group's only wave never                   \
     initialized a window, so the beacon cannot owe it history and stays               \
     silent. Nonzero here is the measurable trace of that silence. */                  \
  X(std::uint64_t, heartbeat_blind_windows)                                            \
  /* Routed graft control plane (PubSubConfig::routed_graft): the zone                 \
     descent above driven by real kGraftRequestKind envelopes, one per                 \
     hop, at QoS 1. graft_messages still counts the descent decisions                  \
     (identical to the local oracle at zero loss); these count the                     \
     envelopes and the failure handling the distribution adds. */                      \
  X(std::uint64_t, graft_hops)         /* kGraftRequestKind envelopes sent */          \
  X(std::uint64_t, graft_retries)      /* graft control envelopes retransmitted */     \
  X(std::uint64_t, graft_aborts)       /* in-flight grafts given up (tree dirtied) */  \
  X(std::uint64_t, graft_resubscribes) /* aborts that re-issued the subscribe */       \
  /* Replica-sharded roots (PubSubConfig::root_replicas > 1): the seq-lease            \
     protocol among slot roots and the per-slot wave handoffs. All stay 0              \
     with one slot. */                                                                 \
  X(std::uint64_t, seq_lease_requests) /* kSeqLeaseKind asks sent to the authority */  \
  X(std::uint64_t, seq_leases_granted) /* dense ranges the authority assigned */       \
  X(std::uint64_t, seq_grants_lost)    /* grants whose requester died (seq holes) */   \
  X(std::uint64_t, shard_handoffs)     /* kShardWaveKind range handoffs sent */        \
  X(std::uint64_t, shard_waves)        /* shard-tree waves driven (all slots) */       \
  /* Publisher-side batching (PubSubConfig::publisher_batch_window): app               \
     messages buffered at the publisher before one kPublishKind envelope. */           \
  X(std::uint64_t, publisher_batches)           /* publish envelopes flushed */        \
  X(std::uint64_t, publisher_batched_publishes) /* app messages that buffered */       \
  X(std::uint64_t, publisher_envelopes_saved)   /* publish envelopes avoided */        \
  /* Subscribers a fresh build could not reach (a departed delegate walls              \
     off their slices) that the build-time rescue pass spliced back in via             \
     greedy routes (group_tree's rescue_stranded). */                                  \
  X(std::uint64_t, stranded_rescues)                                                   \
  /* Gauge (set by each build, after rescue, to the stranded members of all            \
     the group's slot trees): subscribers the construction still could not             \
     span — e.g. identifiers in degenerate position the                                \
     open-zone recursion cannot reach, with no greedy route to the tree                \
     either. Nonzero means delivery_ratio() is measured against a smaller              \
     set than the membership. */                                                       \
  X(std::uint64_t, stranded_subscribers)

struct GroupStats {
  GEOMCAST_GROUP_STATS_FIELDS(GEOMCAST_STATS_MEMBER)

  // Latency distributions (simulated seconds; log-bucketed, mergeable —
  // see obs/histogram.hpp). Recorded unconditionally like every counter
  // in the list, so they are identical whether tracing is attached or not.
  /// Publish accepted at the root -> application-level delivery at a
  /// subscriber, one sample per delivery (QoS 2 samples are release time,
  /// matching the deliveries counter). The p99 here is the latency-aware-
  /// trees roadmap gate.
  obs::Histogram delivery_latency;
  /// Gap detected -> gap repaired (QoS 2 only); the distribution behind
  /// mean_gap_latency()'s single mean.
  obs::Histogram gap_repair_latency;
  /// Routed graft registered at the root -> subscriber attached
  /// (graft_begin to graft_finish; aborted grafts never sample).
  obs::Histogram graft_latency;

  /// Fraction of expected deliveries that arrived; 1 when nothing was
  /// published yet.
  [[nodiscard]] double delivery_ratio() const noexcept;
  /// Tree maintenance messages (builds + grafts + prunes + repairs) per
  /// publish; the "repair overhead" axis of the bench.
  [[nodiscard]] double maintenance_per_publish() const noexcept;
  /// Mean simulated seconds from gap detection to repair; 0 when no gap
  /// was repaired.
  [[nodiscard]] double mean_gap_latency() const noexcept;
  /// Mean publishes per flushed wave; 0 when nothing was coalesced.
  [[nodiscard]] double mean_batch_occupancy() const noexcept;

  /// Sums every listed scalar and merges the three histograms.
  GroupStats& operator+=(const GroupStats& other);
};

}  // namespace geomcast::groups
