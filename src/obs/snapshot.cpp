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

// Writes one field-list entry (util/stats_fields.hpp) of the `stats` block
// in scope to `out`: the three stats serialisers below expand their block's
// list through it, so every listed scalar is emitted under its member name,
// in list order.
#define GEOMCAST_JSON_FIELD(type, name) field(out, first, #name, stats.name);

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
  GEOMCAST_GROUP_STATS_FIELDS(GEOMCAST_JSON_FIELD)
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
  GEOMCAST_NETWORK_STATS_FIELDS(GEOMCAST_JSON_FIELD)
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
  out << "{";
  bool first = true;
  GEOMCAST_HOP_STATS_FIELDS(GEOMCAST_JSON_FIELD)
  out << "}";
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
