#include "obs/snapshot.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "groups/group_stats.hpp"
#include "groups/message_kinds.hpp"
#include "groups/pubsub.hpp"
#include "multicast/reliable_hop.hpp"
#include "sim/network.hpp"

namespace geomcast::obs {

namespace {

// %.6g keeps doubles short, deterministic, and diff-stable; integers go
// through to_string so 64-bit counters never round.
std::string fmt(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  return buffer;
}

void field(std::ostringstream& out, bool& first, const char* name,
           std::uint64_t value) {
  out << (first ? "\"" : ",\"") << name << "\":" << value;
  first = false;
}

void field(std::ostringstream& out, bool& first, const char* name, double value) {
  out << (first ? "\"" : ",\"") << name << "\":" << fmt(value);
  first = false;
}

void field_raw(std::ostringstream& out, bool& first, const char* name,
               const std::string& json) {
  out << (first ? "\"" : ",\"") << name << "\":" << json;
  first = false;
}

}  // namespace

LoadSummary summarize_load(const std::vector<std::uint64_t>& per_node) {
  LoadSummary load;
  if (per_node.empty()) return load;
  std::vector<std::uint64_t> sorted = per_node;
  std::sort(sorted.begin(), sorted.end());
  load.max = sorted.back();
  // Nearest-rank p99: the smallest value with at least 99% of nodes at or
  // below it — exact, no interpolation, so integer loads stay integers.
  const std::size_t rank = (sorted.size() * 99 + 99) / 100;
  load.p99 = sorted[rank == 0 ? 0 : rank - 1];
  std::uint64_t sum = 0;
  for (const std::uint64_t v : sorted) sum += v;
  load.mean = static_cast<double>(sum) / static_cast<double>(sorted.size());
  return load;
}

std::string to_json(const LoadSummary& load) {
  std::ostringstream out;
  out << "{\"max\":" << load.max << ",\"p99\":" << load.p99
      << ",\"mean\":" << fmt(load.mean) << "}";
  return out.str();
}

std::string to_json(const groups::GroupStats& stats) {
  std::ostringstream out;
  out << "{";
  bool first = true;
  field(out, first, "subscribes", stats.subscribes);
  field(out, first, "unsubscribes", stats.unsubscribes);
  field(out, first, "publishes", stats.publishes);
  field(out, first, "batched_publishes", stats.batched_publishes);
  field(out, first, "batch_flushes_window", stats.batch_flushes_window);
  field(out, first, "batch_flushes_full", stats.batch_flushes_full);
  field(out, first, "batch_occupancy_sum", stats.batch_occupancy_sum);
  field(out, first, "batch_publishes_lost", stats.batch_publishes_lost);
  field(out, first, "envelopes_saved", stats.envelopes_saved);
  field(out, first, "expected_deliveries", stats.expected_deliveries);
  field(out, first, "deliveries", stats.deliveries);
  field(out, first, "duplicate_deliveries", stats.duplicate_deliveries);
  field(out, first, "payload_messages", stats.payload_messages);
  field(out, first, "ack_messages", stats.ack_messages);
  field(out, first, "retransmissions", stats.retransmissions);
  field(out, first, "abandoned_hops", stats.abandoned_hops);
  field(out, first, "gap_seqs_detected", stats.gap_seqs_detected);
  field(out, first, "gap_seqs_repaired", stats.gap_seqs_repaired);
  field(out, first, "gap_seqs_abandoned", stats.gap_seqs_abandoned);
  field(out, first, "nacks_sent", stats.nacks_sent);
  field(out, first, "nacked_seqs", stats.nacked_seqs);
  field(out, first, "nack_deferrals", stats.nack_deferrals);
  field(out, first, "repairs_served", stats.repairs_served);
  field(out, first, "repair_misses", stats.repair_misses);
  field(out, first, "repair_escalations", stats.repair_escalations);
  field(out, first, "retained_evictions", stats.retained_evictions);
  field(out, first, "pre_window_deliveries", stats.pre_window_deliveries);
  field(out, first, "gap_latency_total", stats.gap_latency_total);
  field(out, first, "control_messages", stats.control_messages);
  field(out, first, "stranded_messages", stats.stranded_messages);
  field(out, first, "tree_builds", stats.tree_builds);
  field(out, first, "build_messages", stats.build_messages);
  field(out, first, "cache_hits", stats.cache_hits);
  field(out, first, "grafts", stats.grafts);
  field(out, first, "graft_messages", stats.graft_messages);
  field(out, first, "prunes", stats.prunes);
  field(out, first, "prune_messages", stats.prune_messages);
  field(out, first, "repairs", stats.repairs);
  field(out, first, "repair_messages", stats.repair_messages);
  field(out, first, "repair_failures", stats.repair_failures);
  field(out, first, "root_migrations", stats.root_migrations);
  field(out, first, "replica_sync_envelopes", stats.replica_sync_envelopes);
  field(out, first, "replica_sync_retries", stats.replica_sync_retries);
  field(out, first, "migration_envelopes", stats.migration_envelopes);
  field(out, first, "warm_promotions", stats.warm_promotions);
  field(out, first, "pending_publishes_inherited",
        stats.pending_publishes_inherited);
  field(out, first, "heartbeats_sent", stats.heartbeats_sent);
  field(out, first, "heartbeat_gap_detections", stats.heartbeat_gap_detections);
  field(out, first, "heartbeat_blind_windows", stats.heartbeat_blind_windows);
  field(out, first, "graft_hops", stats.graft_hops);
  field(out, first, "graft_retries", stats.graft_retries);
  field(out, first, "graft_aborts", stats.graft_aborts);
  field(out, first, "graft_resubscribes", stats.graft_resubscribes);
  field(out, first, "seq_lease_requests", stats.seq_lease_requests);
  field(out, first, "seq_leases_granted", stats.seq_leases_granted);
  field(out, first, "seq_grants_lost", stats.seq_grants_lost);
  field(out, first, "shard_handoffs", stats.shard_handoffs);
  field(out, first, "shard_waves", stats.shard_waves);
  field(out, first, "publisher_batches", stats.publisher_batches);
  field(out, first, "publisher_batched_publishes",
        stats.publisher_batched_publishes);
  field(out, first, "publisher_envelopes_saved", stats.publisher_envelopes_saved);
  field(out, first, "stranded_rescues", stats.stranded_rescues);
  field(out, first, "stranded_subscribers", stats.stranded_subscribers);
  field(out, first, "delivery_ratio", stats.delivery_ratio());
  field(out, first, "maintenance_per_publish", stats.maintenance_per_publish());
  field(out, first, "mean_gap_latency", stats.mean_gap_latency());
  field(out, first, "mean_batch_occupancy", stats.mean_batch_occupancy());
  field_raw(out, first, "delivery_latency", stats.delivery_latency.to_json());
  field_raw(out, first, "gap_repair_latency", stats.gap_repair_latency.to_json());
  field_raw(out, first, "graft_latency", stats.graft_latency.to_json());
  out << "}";
  return out.str();
}

std::string to_json(const sim::NetworkStats& stats) {
  std::ostringstream out;
  out << "{";
  bool first = true;
  field(out, first, "sent", stats.sent);
  field(out, first, "delivered", stats.delivered);
  field(out, first, "dropped", stats.dropped);
  field(out, first, "retransmitted", stats.retransmitted);
  field(out, first, "duplicate_data", stats.duplicate_data);
  field(out, first, "abandoned_hops", stats.abandoned_hops);
  field(out, first, "nacks", stats.nacks);
  field(out, first, "repairs_served", stats.repairs_served);
  field(out, first, "batched_waves", stats.batched_waves);
  field(out, first, "envelopes_saved", stats.envelopes_saved);
  field(out, first, "control_envelopes", stats.control_envelopes);
  field(out, first, "graft_hops", stats.graft_hops);
  field(out, first, "graft_retries", stats.graft_retries);
  field(out, first, "graft_aborts", stats.graft_aborts);
  field(out, first, "replica_sync_envelopes", stats.replica_sync_envelopes);
  field(out, first, "migration_envelopes", stats.migration_envelopes);
  field(out, first, "heartbeats", stats.heartbeats);
  {
    // Named through the message-kind registry; std::map iteration order
    // keeps the output deterministic.
    std::ostringstream kinds;
    kinds << "{";
    bool kfirst = true;
    for (const auto& [kind, count] : stats.sent_by_kind) {
      kinds << (kfirst ? "\"" : ",\"");
      if (const char* name = groups::kind_name(kind))
        kinds << name;
      else
        kinds << "kind_" << kind;
      kinds << "\":" << count;
      kfirst = false;
    }
    kinds << "}";
    field_raw(out, first, "sent_by_kind", kinds.str());
  }
  field_raw(out, first, "send_load", to_json(summarize_load(stats.sent_by_node)));
  field_raw(out, first, "receive_load",
            to_json(summarize_load(stats.received_by_node)));
  out << "}";
  return out.str();
}

std::string to_json(const multicast::HopStats& stats) {
  std::ostringstream out;
  out << "{\"data_messages\":" << stats.data_messages
      << ",\"ack_messages\":" << stats.ack_messages
      << ",\"retransmissions\":" << stats.retransmissions
      << ",\"abandoned_hops\":" << stats.abandoned_hops << "}";
  return out.str();
}

std::string to_json(const SnapshotSample& sample) {
  std::ostringstream out;
  out << "{";
  bool first = true;
  field(out, first, "time", sample.time);
  field(out, first, "deliveries", sample.deliveries);
  field(out, first, "envelopes_sent", sample.envelopes_sent);
  field(out, first, "envelopes_dropped", sample.envelopes_dropped);
  field(out, first, "in_flight_grafts", sample.in_flight_grafts);
  field(out, first, "retained_seqs", sample.retained_seqs);
  field(out, first, "queue_pending", sample.queue_pending);
  field(out, first, "queue_heap_size", sample.queue_heap_size);
  field_raw(out, first, "send_load", to_json(sample.send_load));
  field_raw(out, first, "receive_load", to_json(sample.receive_load));
  out << "}";
  return out.str();
}

Sampler::Sampler(groups::PubSubSystem& system, double interval)
    : system_(system), interval_(interval > 0.0 ? interval : 1.0) {}

void Sampler::start(double first_at) {
  system_.simulator().schedule_at(first_at, [this]() { tick(); });
}

void Sampler::tick() {
  sim::Simulator& sim = system_.simulator();
  SnapshotSample sample;
  sample.time = sim.now();
  sample.deliveries = system_.total_stats().deliveries;
  const sim::NetworkStats& net = sim.network().stats();
  sample.envelopes_sent = net.sent;
  sample.envelopes_dropped = net.dropped;
  sample.in_flight_grafts = system_.manager().inflight_graft_count();
  sample.retained_seqs = system_.manager().retained_entry_total();
  sample.queue_pending = sim.pending_events();
  sample.queue_heap_size = sim.queue_heap_size();
  sample.send_load = summarize_load(net.sent_by_node);
  sample.receive_load = summarize_load(net.received_by_node);
  samples_.push_back(sample);
  // Re-arm only while the workload still has events: the tick that finds
  // the queue drained is the final sample, so run_until_idle terminates.
  if (!sim.idle()) sim.schedule_after(interval_, [this]() { tick(); });
}

std::string Sampler::to_json() const {
  std::ostringstream out;
  out << "{\"interval\":" << fmt(interval_) << ",\"samples\":[";
  for (std::size_t i = 0; i < samples_.size(); ++i) {
    if (i > 0) out << ",";
    std::string sample = obs::to_json(samples_[i]);
    // Splice the derived rate in before the closing brace: deliveries
    // delta against the previous sample over the actual time gap.
    double rate = 0.0;
    if (i > 0) {
      const double dt = samples_[i].time - samples_[i - 1].time;
      if (dt > 0.0)
        rate = static_cast<double>(samples_[i].deliveries -
                                   samples_[i - 1].deliveries) /
               dt;
    }
    sample.pop_back();  // '}'
    out << sample << ",\"deliveries_per_sec\":" << fmt(rate) << "}";
  }
  out << "]}";
  return out.str();
}

}  // namespace geomcast::obs
