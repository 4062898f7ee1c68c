#include "groups/group_stats.hpp"

#include <sstream>

#include "util/stats.hpp"

namespace geomcast::groups {

double GroupStats::delivery_ratio() const noexcept {
  if (expected_deliveries == 0) return 1.0;
  return static_cast<double>(deliveries) / static_cast<double>(expected_deliveries);
}

double GroupStats::maintenance_per_publish() const noexcept {
  if (publishes == 0) return 0.0;
  return static_cast<double>(build_messages + graft_messages + prune_messages +
                             repair_messages) /
         static_cast<double>(publishes);
}

double GroupStats::mean_gap_latency() const noexcept {
  if (gap_seqs_repaired == 0) return 0.0;
  return gap_latency_total / static_cast<double>(gap_seqs_repaired);
}

double GroupStats::mean_batch_occupancy() const noexcept {
  const std::uint64_t flushes = batch_flushes_window + batch_flushes_full;
  if (flushes == 0) return 0.0;
  return static_cast<double>(batch_occupancy_sum) / static_cast<double>(flushes);
}

GroupStats& GroupStats::operator+=(const GroupStats& other) noexcept {
  subscribes += other.subscribes;
  unsubscribes += other.unsubscribes;
  publishes += other.publishes;
  batched_publishes += other.batched_publishes;
  batch_flushes_window += other.batch_flushes_window;
  batch_flushes_full += other.batch_flushes_full;
  batch_occupancy_sum += other.batch_occupancy_sum;
  batch_publishes_lost += other.batch_publishes_lost;
  envelopes_saved += other.envelopes_saved;
  expected_deliveries += other.expected_deliveries;
  deliveries += other.deliveries;
  duplicate_deliveries += other.duplicate_deliveries;
  payload_messages += other.payload_messages;
  ack_messages += other.ack_messages;
  retransmissions += other.retransmissions;
  abandoned_hops += other.abandoned_hops;
  gap_seqs_detected += other.gap_seqs_detected;
  gap_seqs_repaired += other.gap_seqs_repaired;
  gap_seqs_abandoned += other.gap_seqs_abandoned;
  nacks_sent += other.nacks_sent;
  nacked_seqs += other.nacked_seqs;
  nack_deferrals += other.nack_deferrals;
  repairs_served += other.repairs_served;
  repair_misses += other.repair_misses;
  repair_escalations += other.repair_escalations;
  retained_evictions += other.retained_evictions;
  pre_window_deliveries += other.pre_window_deliveries;
  gap_latency_total += other.gap_latency_total;
  control_messages += other.control_messages;
  stranded_messages += other.stranded_messages;
  tree_builds += other.tree_builds;
  build_messages += other.build_messages;
  cache_hits += other.cache_hits;
  grafts += other.grafts;
  graft_messages += other.graft_messages;
  prunes += other.prunes;
  prune_messages += other.prune_messages;
  repairs += other.repairs;
  repair_messages += other.repair_messages;
  repair_failures += other.repair_failures;
  root_migrations += other.root_migrations;
  replica_sync_envelopes += other.replica_sync_envelopes;
  replica_sync_retries += other.replica_sync_retries;
  migration_envelopes += other.migration_envelopes;
  warm_promotions += other.warm_promotions;
  pending_publishes_inherited += other.pending_publishes_inherited;
  heartbeats_sent += other.heartbeats_sent;
  heartbeat_gap_detections += other.heartbeat_gap_detections;
  heartbeat_blind_windows += other.heartbeat_blind_windows;
  stranded_rescues += other.stranded_rescues;
  graft_hops += other.graft_hops;
  graft_retries += other.graft_retries;
  graft_aborts += other.graft_aborts;
  graft_resubscribes += other.graft_resubscribes;
  seq_lease_requests += other.seq_lease_requests;
  seq_leases_granted += other.seq_leases_granted;
  seq_grants_lost += other.seq_grants_lost;
  shard_handoffs += other.shard_handoffs;
  shard_waves += other.shard_waves;
  publisher_batches += other.publisher_batches;
  publisher_batched_publishes += other.publisher_batched_publishes;
  publisher_envelopes_saved += other.publisher_envelopes_saved;
  stranded_subscribers += other.stranded_subscribers;
  delivery_latency.merge(other.delivery_latency);
  gap_repair_latency.merge(other.gap_repair_latency);
  graft_latency.merge(other.graft_latency);
  return *this;
}

std::string GroupStats::summary() const {
  std::ostringstream out;
  out << "publishes=" << publishes << " deliveries=" << deliveries << "/"
      << expected_deliveries << " (ratio " << util::format_number(delivery_ratio(), 4)
      << "), payload=" << payload_messages << " (acks " << ack_messages << ", retx "
      << retransmissions << ", dup " << duplicate_deliveries << ", abandoned "
      << abandoned_hops << ") control=" << control_messages
      << " builds=" << tree_builds << " (msgs " << build_messages << ") cache_hits="
      << cache_hits << " grafts=" << grafts << " (msgs " << graft_messages
      << ") prunes=" << prunes << " (msgs " << prune_messages << ") repairs="
      << repairs << " (msgs " << repair_messages << ", failures " << repair_failures
      << ") root_migrations=" << root_migrations
      << " stranded_subscribers=" << stranded_subscribers;
  if (!delivery_latency.empty())
    out << " delivery_latency_p50=" << util::format_number(delivery_latency.p50(), 4)
        << " p99=" << util::format_number(delivery_latency.p99(), 4);
  if (graft_hops > 0 || graft_aborts > 0)
    out << " graft_hops=" << graft_hops << " (retries " << graft_retries
        << ", aborts " << graft_aborts << ", resubscribes " << graft_resubscribes
        << ")";
  if (gap_seqs_detected > 0 || nacks_sent > 0)
    out << " gaps=" << gap_seqs_detected << " (repaired " << gap_seqs_repaired
        << ", abandoned " << gap_seqs_abandoned << ", mean_latency "
        << util::format_number(mean_gap_latency(), 4) << ") nacks=" << nacks_sent
        << " (seqs " << nacked_seqs << ", deferrals " << nack_deferrals
        << ") repairs_served=" << repairs_served << " (misses " << repair_misses
        << ", escalations " << repair_escalations << ") retained_evictions="
        << retained_evictions;
  if (replica_sync_envelopes > 0 || warm_promotions > 0)
    out << " replica_syncs=" << replica_sync_envelopes << " (retries "
        << replica_sync_retries << ", migration " << migration_envelopes
        << ") warm_promotions=" << warm_promotions
        << " pending_inherited=" << pending_publishes_inherited;
  if (heartbeats_sent > 0)
    out << " heartbeats=" << heartbeats_sent << " (gap_detections "
        << heartbeat_gap_detections << ")";
  if (batch_flushes_window + batch_flushes_full > 0)
    out << " batches=" << (batch_flushes_window + batch_flushes_full) << " (window "
        << batch_flushes_window << ", full " << batch_flushes_full << ", occupancy "
        << util::format_number(mean_batch_occupancy(), 2) << ", lost "
        << batch_publishes_lost << ") envelopes_saved=" << envelopes_saved;
  if (shard_waves > 0 || seq_lease_requests > 0)
    out << " shard_waves=" << shard_waves << " (handoffs " << shard_handoffs
        << ") seq_leases=" << seq_lease_requests << " (granted "
        << seq_leases_granted << ", lost " << seq_grants_lost << ")";
  if (publisher_batches > 0)
    out << " publisher_batches=" << publisher_batches << " (publishes "
        << publisher_batched_publishes << ", envelopes_saved "
        << publisher_envelopes_saved << ")";
  return out.str();
}

}  // namespace geomcast::groups
