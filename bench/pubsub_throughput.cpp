// Pub/sub scaling bench: N groups × M subscribers × churn on one overlay.
//
// Exercises the whole groups/ pipeline — rendezvous routing, lazy pruned
// tree construction, cache reuse across publishes, incremental
// graft/repair under departures, the QoS 1 per-hop ack/retransmit plane,
// and the QoS 2 end-to-end NACK/gap-repair plane — and reports the
// numbers the scaling trajectory cares about: publishes/sec (wall clock),
// delivery ratio, per-publish payload cost versus full-overlay
// dissemination (N-1 messages), tree build/repair message overhead,
// retransmissions per publish, and the repair plane's NACK/repair traffic
// with gap latency.
//
// Modes, each documented with its gates at its run_* function below:
//   (default)        one standard run at --qos/--loss (run_single)
//   --sweep          QoS {0, 1, 2} x loss {0, 0.05, 0.15} (run_sweep)
//   --batch-compare  unbatched vs batched bursts (run_batch_compare)
//   --graft-cost     routed vs local zone-descent grafts (run_graft_cost)
//   --latency        latency histograms over 3 pinned seeds (run_latency)
//   --root-kill      cold rebuild vs warm root failover (run_root_kill)
//   --simcore        the simulator's own events/sec (run_simcore)
//   --hot-group      one hot group over the replica axis (run_hot_group)
// Every mode builds its overlays, draws its peers and runs its cells through
// the scenario library (bench/scenario/: make_overlay, draw_peers,
// run_cell), the one the groups test batteries use too; what stays here is
// each mode's schedule, its table and its gates. Every mode ends in one
// epilogue (report: the table, one acceptance line per gate, the --json
// document with its gate_* fields, exit code 0 or 2). The checked-in
// BENCH_*.json files are full-size runs of the modes.
//
// Flags: --peers=N --dims=D --groups=G --subscribers=M --publishes=P
//        --departures=C --midwave=K --loss=p --qos=0|1|2 --retries=R
//        --ack-timeout=T --retention=W --seed=S --csv --quick --sweep
//        --batch-window=W --max-batch=B --pub-burst=K --json=FILE
//        --batch-compare --graft-cost --latency --root-kill
//        --trace=FILE --snapshot=FILE --snapshot-interval=T
//        --hot-group --replicas=1,2,4 --publisher-batch-window=W
//        --simcore --simcore-peers=N --simcore-k=K
// Any other flag is rejected (exit 1) before a mode runs, so a typo never
// runs the defaults silently; so is a workload no mode can run
// (--publishes=0, --subscribers=0, --graft-cost with --subscribers=1).
#include <algorithm>
#include <array>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "geometry/distance.hpp"
#include "groups/failure_injection.hpp"
#include "groups/pubsub.hpp"
#include "obs/snapshot.hpp"
#include "obs/trace.hpp"
#include "scenario/scenario.hpp"
#include "util/flags.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace geomcast;
using scenario::CellResult;
using scenario::DeliveryKey;
using scenario::draw_peers;
using scenario::make_overlay;
using scenario::Overlay;
using scenario::Record;
using scenario::run_cell;
using scenario::sent_of;
using scenario::tree_edges;

struct ScenarioParams {
  std::size_t peers = 1000;
  std::size_t group_count = 32;
  std::size_t subscribers = 32;
  std::size_t publishes = 8;
  std::size_t departures = 24;
  std::size_t midwave = 0;  // mid-wave forwarder kills (see file comment)
  double ack_timeout = 0.05;
  std::size_t max_retries = 5;
  std::size_t retention_window = 64;
  double batch_window = 0.0;   // root-side coalescing window (0 = off)
  std::size_t max_batch = 16;  // publishes per coalesced wave
  std::size_t pub_burst = 1;   // publishes per burst in the schedule
  /// Replica-sharded roots: R rendezvous anchors per group, 1 = one slot
  /// rooted at the group's rendezvous point. Only --hot-group sweeps this
  /// axis.
  std::size_t root_replicas = 1;
  /// Publisher-side coalescing window (0 = off, the historic one-envelope-
  /// per-publish path).
  double publisher_batch_window = 0.0;
  /// Membership drawn from each root's neighbourhood instead of uniformly.
  /// Corridor-greedy control routing is only guaranteed on the
  /// full-knowledge empty-rect equilibrium; on a grid-kNN local-knowledge
  /// overlay a distant target strands, so the 100k sweep cell keeps its
  /// control traffic inside each root's neighbourhood (tree dissemination
  /// is direct sends and is unaffected).
  bool local_members = false;
  std::uint64_t seed = 42;
};

/// num / den, or 0 when den is 0.
double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

// ------------------------------------------------------------ plumbing ----

/// The config every mode starts from: seed, QoS, per-link loss and the hop
/// layer's retry budget. Each mode adds the knobs it prices on top.
groups::PubSubConfig base_config(const ScenarioParams& params, multicast::QoS qos,
                                 double loss) {
  groups::PubSubConfig config;
  config.seed = params.seed;
  config.loss.drop_probability = loss;
  config.reliability.qos = qos;
  config.reliability.ack_timeout = params.ack_timeout;
  config.reliability.max_retries = params.max_retries;
  return config;
}

/// base_config plus every retention, batching and replica knob of params.
groups::PubSubConfig scenario_config(const ScenarioParams& params, multicast::QoS qos,
                                     double loss) {
  groups::PubSubConfig config = base_config(params, qos, loss);
  config.groups.retention_window = params.retention_window;
  config.batch_window = params.batch_window;
  config.max_batch = params.max_batch;
  config.root_replicas = params.root_replicas;
  config.publisher_batch_window = params.publisher_batch_window;
  return config;
}

// ---------------------------------------------------------------- JSON ----

/// A document's top-level fields, in order, each value already JSON.
using JsonFields = std::vector<std::pair<std::string, std::string>>;

const char* json_bool(bool value) { return value ? "true" : "false"; }

std::string json_number(double value) {
  std::ostringstream o;
  o.precision(10);
  o << value;
  return o.str();
}

/// `items` as a JSON array, one item per line, indented for nesting
/// `depth` levels deep in the document.
std::string json_array(const std::vector<std::string>& items, std::size_t depth = 1) {
  const std::string indent(2 * depth, ' ');
  std::ostringstream o;
  o << "[";
  for (std::size_t i = 0; i < items.size(); ++i)
    o << (i > 0 ? ",\n  " : "\n  ") << indent << items[i];
  o << "\n" << indent << "]";
  return o.str();
}

/// One scenario cell as a JSON object — the machine-readable slice the
/// perf trajectory (BENCH_pubsub.json) and CI artifacts are built from.
/// Hand-rolled: every value is a number or bool, so no escaping needed.
std::string scenario_json(const ScenarioParams& params, multicast::QoS qos,
                          double loss, const CellResult& r) {
  std::ostringstream o;
  o.precision(10);
  o << "{\"qos\":" << static_cast<int>(qos) << ",\"loss\":" << loss
    << ",\"batch_window\":" << params.batch_window
    << ",\"max_batch\":" << params.max_batch
    << ",\"pub_burst\":" << params.pub_burst
    << ",\"publishes\":" << r.total.publishes
    << ",\"delivery_ratio\":" << r.total.delivery_ratio()
    << ",\"deliveries\":" << r.total.deliveries
    << ",\"expected_deliveries\":" << r.total.expected_deliveries
    << ",\"payload_messages\":" << r.total.payload_messages
    << ",\"ack_messages\":" << r.total.ack_messages
    << ",\"nacks_sent\":" << r.total.nacks_sent
    << ",\"retransmissions\":" << r.total.retransmissions
    << ",\"duplicate_deliveries\":" << r.total.duplicate_deliveries
    << ",\"batch_flushes_window\":" << r.total.batch_flushes_window
    << ",\"batch_flushes_full\":" << r.total.batch_flushes_full
    << ",\"mean_batch_occupancy\":" << r.total.mean_batch_occupancy()
    << ",\"envelopes_saved\":" << r.total.envelopes_saved
    << ",\"sim_events\":" << r.events
    << ",\"run_secs\":" << r.run_secs
    // Observability columns (ISSUE 6): latency histograms populate
    // unconditionally (no trace sink required), and the NetworkStats block
    // carries the named sent_by_kind breakdown plus per-peer send/receive
    // hot-peer summaries (max / p99 / mean).
    << ",\"delivery_latency\":" << r.total.delivery_latency.to_json()
    << ",\"gap_repair_latency\":" << r.total.gap_repair_latency.to_json()
    << ",\"graft_latency\":" << r.total.graft_latency.to_json()
    << ",\"net\":" << obs::to_json(r.net) << "}";
  return o.str();
}

std::string params_json(const ScenarioParams& params) {
  std::ostringstream o;
  o.precision(10);
  o << "{\"peers\":" << params.peers << ",\"groups\":" << params.group_count
    << ",\"subscribers\":" << params.subscribers
    << ",\"publishes\":" << params.publishes
    << ",\"departures\":" << params.departures
    << ",\"pub_burst\":" << params.pub_burst
    << ",\"batch_window\":" << params.batch_window
    << ",\"max_batch\":" << params.max_batch
    << ",\"replicas\":" << params.root_replicas
    << ",\"publisher_batch_window\":" << params.publisher_batch_window
    << ",\"retention\":" << params.retention_window
    << ",\"seed\":" << params.seed << "}";
  return o.str();
}

void write_json_file(const std::string& path, const std::string& body) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write --json file: " + path);
  out << body << "\n";
}

// -------------------------------------------------------------- report ----

/// One acceptance gate of a mode.
struct Gate {
  std::string key;    // the JSON field, and the name in the stderr line
  std::string label;  // the acceptance line's text
  bool ok = false;
  std::string note = {};  // appended after PASS/FAIL
};

/// The one epilogue every mode ends in. Writes the --json document (when
/// `json_path` is set): bench, mode, `fields`, then one boolean per gate.
/// An empty `mode` is the single-run document, which carries neither a
/// mode nor its gates. Prints the table — CSV, or `banner`, the table and
/// one acceptance line per gate — names the failed gates on stderr and
/// returns the exit code: 0 when every gate passed, else 2.
int report(const std::string& mode, const std::vector<Gate>& gates,
           const util::Table& table, const std::string& banner, bool csv,
           const std::string& json_path, const JsonFields& fields) {
  bool all_ok = true;
  for (const Gate& gate : gates) all_ok = all_ok && gate.ok;
  if (!json_path.empty()) {
    std::string json = "{\n  \"bench\": \"pubsub_throughput\"";
    if (!mode.empty()) json += ",\n  \"mode\": \"" + mode + "\"";
    for (const auto& [key, value] : fields) json += ",\n  \"" + key + "\": " + value;
    if (!mode.empty())
      for (const Gate& gate : gates)
        json += ",\n  \"" + gate.key + "\": " + json_bool(gate.ok);
    write_json_file(json_path, json + "\n}");
  }
  if (csv) {
    table.print_csv(std::cout);
  } else {
    std::cout << banner << "\n\n";
    table.print(std::cout);
    std::cout << "\n";
    for (const Gate& gate : gates)
      std::cout << "acceptance: " << gate.label << ": " << (gate.ok ? "PASS" : "FAIL")
                << gate.note << "\n";
  }
  if (!all_ok) {
    std::cerr << "pubsub_throughput: " << (mode.empty() ? "acceptance" : mode)
              << " gate failed (";
    for (std::size_t i = 0; i < gates.size(); ++i)
      std::cerr << (i > 0 ? ", " : "") << gates[i].key << "=" << gates[i].ok;
    std::cerr << ")\n";
  }
  return all_ok ? 0 : 2;
}

// ---------------------------------------------------- standard workload ----

/// The standard workload's readings beyond the shared ones.
struct ScenarioOutcome : CellResult {
  std::size_t scheduled_departures = 0;
  std::size_t midwave_kills = 0;      // kills that found a relay to sever
  std::size_t severed_subscribers = 0;  // subscriber descendants cut off
  std::size_t retained_peak = 0;
  std::size_t retained_entries = 0;   // entries left across all buffers
  std::size_t retained_buffers = 0;   // live (peer, group) buffers
};

/// One full run of the standard workload on a prebuilt overlay. The
/// schedule (membership, publishes, departures) is a function of
/// params.seed alone, so runs at different (qos, loss) points are
/// apples-to-apples.
ScenarioOutcome run_scenario(const overlay::OverlayGraph& graph,
                             const ScenarioParams& params, multicast::QoS qos,
                             double loss, bool record_delivered = false,
                             obs::TraceSink* trace_sink = nullptr,
                             std::string* snapshot_json = nullptr,
                             double snapshot_interval = 0.5) {
  const std::size_t peers = graph.size();
  ScenarioOutcome outcome;
  std::optional<obs::Sampler> sampler;
  std::vector<bool> member_anywhere(peers, false);  // the kill injector reads it in run()
  const auto schedule = [&](groups::PubSubSystem& system) {
    // The sampler's ticks are simulator events, so a sampled run's
    // sim_events count differs from an unsampled one — attach only on
    // request; the stats themselves are unaffected.
    if (snapshot_json != nullptr) {
      sampler.emplace(system, snapshot_interval);
      sampler->start();
    }

    // Roots are excluded from membership and churn so the bench measures
    // steady-state group service, not rendezvous migration (which has its
    // own counter).
    std::vector<bool> is_root(peers, false);
    for (std::size_t g = 0; g < params.group_count; ++g)
      is_root[system.manager().root_of(g)] = true;
    std::size_t non_roots = 0;
    for (std::size_t p = 0; p < peers; ++p)
      if (!is_root[p]) ++non_roots;
    if (params.subscribers > non_roots)
      throw std::invalid_argument(
          "not enough non-root peers for --subscribers=" +
          std::to_string(params.subscribers) + " (have " + std::to_string(non_roots) +
          "); raise --peers or lower --groups");
    const std::size_t departures = std::min(params.departures, non_roots);

    // Membership: M distinct non-root subscribers per group, waves in (0, 1).
    util::Rng rng(params.seed ^ 0x736368656475ULL);  // schedule stream
    std::vector<std::vector<overlay::PeerId>> members(params.group_count);
    if (params.local_members) {
      // The M non-root peers nearest each group's rendezvous root, ties by
      // id — deterministic, and every subscribe/publish request routes a
      // handful of neighbourhood hops (see the knob comment above).
      std::vector<std::pair<double, overlay::PeerId>> by_dist;
      for (std::size_t g = 0; g < params.group_count; ++g) {
        const overlay::PeerId root = system.manager().root_of(g);
        by_dist.clear();
        for (overlay::PeerId p = 0; p < peers; ++p)
          if (!is_root[p])
            by_dist.emplace_back(
                geometry::l2_distance_sq(graph.point(p), graph.point(root)), p);
        std::partial_sort(by_dist.begin(),
                          by_dist.begin() + static_cast<std::ptrdiff_t>(params.subscribers),
                          by_dist.end());
        for (std::size_t i = 0; i < params.subscribers; ++i) {
          members[g].push_back(by_dist[i].second);
          system.subscribe_at(rng.uniform(0.0, 1.0), by_dist[i].second, g);
        }
      }
    } else {
      for (std::size_t g = 0; g < params.group_count; ++g)
        members[g] = draw_peers(rng, peers, params.subscribers, is_root,
                                [&](overlay::PeerId p, std::size_t) {
                                  system.subscribe_at(rng.uniform(0.0, 1.0), p, g);
                                });
    }

    // Warm publish per group at t=2 (pays the lazy builds), then churn
    // interleaved with publish rounds over t in [3, 9). Publishers that
    // depart before their slot are skipped, so total.publishes reports
    // what actually ran. With --pub-burst=K the remaining publishes are
    // issued in back-to-back bursts of K from one publisher at one instant
    // (the hot-group workload coalescing amortises); K=1 draws the exact
    // historic schedule, one (publisher, time) pair per publish.
    const std::size_t burst = std::max<std::size_t>(params.pub_burst, 1);
    for (std::size_t g = 0; g < params.group_count; ++g) {
      system.publish_at(2.0, members[g][0], g);
      for (std::size_t i = 1; i < params.publishes;) {
        const auto publisher = members[g][rng.next_below(params.subscribers)];
        const double when = rng.uniform(3.0, 9.0);
        const std::size_t count = std::min(burst, params.publishes - i);
        for (std::size_t j = 0; j < count; ++j) system.publish_at(when, publisher, g);
        i += count;
      }
    }
    outcome.scheduled_departures =
        draw_peers(rng, peers, departures, is_root, [&](overlay::PeerId p, std::size_t) {
          system.depart_at(rng.uniform(3.0, 9.0), p);
        }).size();

    // Mid-wave forwarder kills (--midwave=K, groups/failure_injection.hpp):
    // K dedicated waves after the churn phase, one group per kill
    // round-robin, each severing the wave's best relay (the one with the
    // most subscriber descendants) just before the wave reaches it — the
    // severed-subtree failure QoS 2 exists to repair. Two flush waves per
    // kill give the subtrees the later traffic gap detection needs. Kill
    // and flush waves publish from the group's root so the wave start time
    // is exact and the flushes cannot strand in greedy control routing
    // around the fresh departure.
    for (const auto& group_members : members)
      for (const overlay::PeerId p : group_members) member_anywhere[p] = true;
    // With batching on, a root-published wave buffers for one window before
    // it flushes; the kill must be timed against the flushed start or the
    // relay dies before the wave exists (and the tree repairs around it).
    const double wave_start_delay =
        (params.batch_window > 0.0 && params.max_batch > 1) ? params.batch_window : 0.0;
    for (std::size_t i = 0; i < params.midwave; ++i) {
      const auto g = static_cast<groups::GroupId>(i % params.group_count);
      const double wave_time = 10.0 + 2.0 * static_cast<double>(i);
      const overlay::PeerId root = system.manager().root_of(g);
      system.publish_at(wave_time, root, g);
      groups::schedule_midwave_kill(
          system, g, wave_time, member_anywhere,
          [&outcome](overlay::PeerId, std::size_t severed) {
            ++outcome.midwave_kills;
            outcome.severed_subscribers += severed;
          },
          wave_start_delay);
      system.publish_at(wave_time + 0.5, root, g);  // flushes reveal the gaps
      system.publish_at(wave_time + 1.0, root, g);
    }
  };
  const auto harvest = [&](groups::PubSubSystem& system) {
    outcome.retained_peak = system.manager().retained_peak();
    outcome.retained_entries = system.manager().retained_entry_total();
    outcome.retained_buffers = system.manager().retained_buffer_count();
    if (sampler) *snapshot_json = sampler->to_json();
  };
  static_cast<CellResult&>(outcome) =
      run_cell(graph, scenario_config(params, qos, loss), schedule,
               {.record = record_delivered ? Record::kDeliveredSet : Record::kNothing,
                .trace = trace_sink,
                .harvest = harvest});
  return outcome;
}

// ----------------------------------------------------------- single run ----

/// The default mode: one standard run at (--qos, --loss). Gates (ISSUE 1):
/// delivery ratio >= 0.99 at zero loss under churn, and the pruned
/// per-publish payload strictly below full-overlay dissemination (N-1
/// messages). --trace=FILE writes the run's wave-lifecycle trace as Chrome
/// trace-event JSON (Perfetto / chrome://tracing); --snapshot=FILE writes
/// the periodic obs::Sampler series (deliveries/sec, in-flight grafts,
/// retained seqs, event-queue depth, per-peer load).
int run_single(const ScenarioParams& params, std::size_t dims, multicast::QoS qos,
               double loss, bool csv, const std::string& json_path,
               const std::string& trace_path, const std::string& snapshot_path,
               double snapshot_interval) {
  const auto overlay = make_overlay(params.peers, dims, params.seed);
  obs::TraceSink sink(1u << 20);  // ~1M events: covers a full-size run
  std::string snapshot_json;
  const auto outcome =
      run_scenario(overlay.graph, params, qos, loss, /*record_delivered=*/false,
                   trace_path.empty() ? nullptr : &sink,
                   snapshot_path.empty() ? nullptr : &snapshot_json, snapshot_interval);
  if (!trace_path.empty()) {
    std::ofstream trace_out(trace_path);
    if (!trace_out) throw std::runtime_error("cannot write --trace file: " + trace_path);
    obs::write_chrome_trace(trace_out, sink.events());
    std::cerr << "pubsub_throughput: wrote " << sink.size() << " trace events ("
              << sink.dropped() << " dropped) to " << trace_path << "\n";
  }
  if (!snapshot_path.empty()) write_json_file(snapshot_path, snapshot_json);
  const auto& total = outcome.total;
  const double full_dissemination = static_cast<double>(params.peers - 1);
  const double payload_per_publish = ratio(total.payload_messages, total.publishes);

  util::Table table({"metric", "value"});
  auto row = [&table](const std::string& name, double value, int decimals = 3) {
    table.begin_row().add_cell(name).add_number(value, decimals);
  };
  row("peers", static_cast<double>(params.peers), 0);
  row("groups", static_cast<double>(params.group_count), 0);
  row("subscribers_per_group", static_cast<double>(params.subscribers), 0);
  row("departures", static_cast<double>(outcome.scheduled_departures), 0);
  row("midwave_kills", static_cast<double>(outcome.midwave_kills), 0);
  row("severed_subscribers", static_cast<double>(outcome.severed_subscribers), 0);
  row("loss", loss);
  row("qos", static_cast<double>(qos), 0);
  row("overlay_build_secs", overlay.build_secs);
  row("sim_events", static_cast<double>(outcome.events), 0);
  row("run_secs", outcome.run_secs);
  row("publishes", static_cast<double>(total.publishes), 0);
  row("publishes_per_sec", ratio(total.publishes, outcome.run_secs), 1);
  row("delivery_ratio", total.delivery_ratio(), 5);
  row("deliveries", static_cast<double>(total.deliveries), 0);
  row("expected_deliveries", static_cast<double>(total.expected_deliveries), 0);
  row("duplicates", static_cast<double>(total.duplicate_deliveries), 0);
  row("payload_msgs_per_publish", payload_per_publish, 2);
  row("full_dissemination_msgs", full_dissemination, 0);
  row("ack_msgs", static_cast<double>(total.ack_messages), 0);
  row("retransmissions", static_cast<double>(total.retransmissions), 0);
  row("retx_per_publish", ratio(total.retransmissions, total.publishes), 2);
  row("batch_flushes_window", static_cast<double>(total.batch_flushes_window), 0);
  row("batch_flushes_full", static_cast<double>(total.batch_flushes_full), 0);
  row("mean_batch_occupancy", total.mean_batch_occupancy(), 2);
  row("envelopes_saved", static_cast<double>(total.envelopes_saved), 0);
  row("batch_publishes_lost", static_cast<double>(total.batch_publishes_lost), 0);
  row("abandoned_hops", static_cast<double>(total.abandoned_hops), 0);
  row("gap_seqs_detected", static_cast<double>(total.gap_seqs_detected), 0);
  row("gap_seqs_repaired", static_cast<double>(total.gap_seqs_repaired), 0);
  row("gap_seqs_abandoned", static_cast<double>(total.gap_seqs_abandoned), 0);
  row("nacks_sent", static_cast<double>(total.nacks_sent), 0);
  row("nack_deferrals", static_cast<double>(total.nack_deferrals), 0);
  row("repairs_served", static_cast<double>(total.repairs_served), 0);
  row("repair_misses", static_cast<double>(total.repair_misses), 0);
  row("repair_escalations", static_cast<double>(total.repair_escalations), 0);
  row("mean_gap_latency", total.mean_gap_latency(), 4);
  row("retained_evictions", static_cast<double>(total.retained_evictions), 0);
  row("retained_peak", static_cast<double>(outcome.retained_peak), 0);
  row("pre_window_deliveries", static_cast<double>(total.pre_window_deliveries), 0);
  row("control_msgs", static_cast<double>(total.control_messages), 0);
  row("stranded_msgs", static_cast<double>(total.stranded_messages), 0);
  row("tree_builds", static_cast<double>(total.tree_builds), 0);
  row("build_msgs", static_cast<double>(total.build_messages), 0);
  row("cache_hits", static_cast<double>(total.cache_hits), 0);
  row("grafts", static_cast<double>(total.grafts), 0);
  row("repairs", static_cast<double>(total.repairs), 0);
  row("repair_msgs", static_cast<double>(total.repair_messages), 0);
  row("repair_failures", static_cast<double>(total.repair_failures), 0);
  row("root_migrations", static_cast<double>(total.root_migrations), 0);
  row("stranded_subscribers", static_cast<double>(total.stranded_subscribers), 0);
  row("maintenance_msgs_per_publish", total.maintenance_per_publish(), 2);
  row("network_dropped", static_cast<double>(outcome.net.dropped), 0);
  row("delivery_latency_p50", total.delivery_latency.p50(), 4);
  row("delivery_latency_p90", total.delivery_latency.p90(), 4);
  row("delivery_latency_p99", total.delivery_latency.p99(), 4);
  row("delivery_latency_max", total.delivery_latency.max(), 4);
  row("gap_repair_latency_p50", total.gap_repair_latency.p50(), 4);
  row("gap_repair_latency_p99", total.gap_repair_latency.p99(), 4);
  row("graft_latency_p50", total.graft_latency.p50(), 4);
  row("graft_latency_p99", total.graft_latency.p99(), 4);
  const auto send_load = obs::summarize_load(outcome.net.sent_by_node);
  const auto recv_load = obs::summarize_load(outcome.net.received_by_node);
  row("send_load_max", static_cast<double>(send_load.max), 0);
  row("send_load_p99", static_cast<double>(send_load.p99), 0);
  row("recv_load_max", static_cast<double>(recv_load.max), 0);
  row("recv_load_p99", static_cast<double>(recv_load.p99), 0);

  std::ostringstream banner;
  banner << "=== pub/sub throughput: " << params.group_count << " groups x "
         << params.subscribers << " subscribers on " << params.peers
         << " peers (D=" << dims << "), " << outcome.scheduled_departures
         << " departures, loss=" << loss << ", qos=" << static_cast<int>(qos)
         << ", seed=" << params.seed << " ===";
  return report("",
                {{"ratio_ok", "delivery_ratio >= 0.99 at zero loss",
                  loss > 0.0 || total.delivery_ratio() >= 0.99},
                 {"pruned_ok", "pruned tree beats full dissemination per publish",
                  payload_per_publish < full_dissemination}},
                table, banner.str(), csv, json_path,
                {{"params", params_json(params)},
                 {"run", scenario_json(params, qos, loss, outcome)}});
}

// ---------------------------------------------------------------- sweep ----

/// --sweep: the standard scenario for QoS 0, 1 and 2 at each loss in
/// {0, 0.05, 0.15}, one row per (loss, qos) cell — the loss axis of the
/// reliability story; --loss and --qos are ignored. Random churn gives way
/// to mid-wave forwarder kills (--midwave, default 4): churn removes
/// subscribers, whose in-flight waves no QoS level can deliver, which would
/// drown the subtree-repair signal the gates read. Gates: (ISSUE 2) at 5%
/// loss QoS 1 holds >= 0.99 while QoS 0 is visibly lower; (ISSUE 3) with the
/// kills QoS 2 holds >= 0.9999 while QoS 1, blind to a severed subtree,
/// drops below it, and retention stays bounded.
int run_sweep(const ScenarioParams& params, std::size_t dims, bool csv) {
  const auto overlay = make_overlay(params.peers, dims, params.seed);
  const std::vector<double> loss_axis{0.0, 0.05, 0.15};
  // Kills and severed-subscriber counts are per cell: stochastic loss also
  // drops subscribe control envelopes, so membership — and with it the
  // kill-selection DFS — differs across loss points.
  util::Table table({"loss", "qos", "kills", "severed", "publishes", "delivery_ratio",
                     "retx_per_publish", "duplicates", "abandoned_hops",
                     "payload_per_publish", "ack_msgs", "nacks", "repairs",
                     "escalations", "gaps_abandoned", "mean_gap_latency", "dropped",
                     "run_secs"});
  double qos0_at_5 = -1.0, qos1_at_5 = -1.0, qos2_at_5 = -1.0;
  bool qos1_ok = true, retention_ok = true;
  for (const double loss : loss_axis) {
    for (const auto qos : {multicast::QoS::kFireAndForget, multicast::QoS::kAcked,
                           multicast::QoS::kEndToEnd}) {
      const auto r = run_scenario(overlay.graph, params, qos, loss);
      const double delivery = r.total.delivery_ratio();
      table.begin_row()
          .add_number(loss, 2)
          .add_number(static_cast<double>(qos), 0)
          .add_number(static_cast<double>(r.midwave_kills), 0)
          .add_number(static_cast<double>(r.severed_subscribers), 0)
          .add_number(static_cast<double>(r.total.publishes), 0)
          .add_number(delivery, 5)
          .add_number(ratio(r.total.retransmissions, r.total.publishes), 2)
          .add_number(static_cast<double>(r.total.duplicate_deliveries), 0)
          .add_number(static_cast<double>(r.total.abandoned_hops), 0)
          .add_number(ratio(r.total.payload_messages, r.total.publishes), 2)
          .add_number(static_cast<double>(r.total.ack_messages), 0)
          .add_number(static_cast<double>(r.total.nacks_sent), 0)
          .add_number(static_cast<double>(r.total.repairs_served), 0)
          .add_number(static_cast<double>(r.total.repair_escalations), 0)
          .add_number(static_cast<double>(r.total.gap_seqs_abandoned), 0)
          .add_number(r.total.mean_gap_latency(), 4)
          .add_number(static_cast<double>(r.net.dropped), 0)
          .add_number(r.run_secs, 3);
      // The QoS 1 per-hop gate covers the link-loss points up to 5%: with
      // mid-wave kills in the workload, QoS 1's ratio also carries the
      // severed subtrees it is blind to by design (the QoS 2 gate's
      // subject), and at 15% loss the two effects mix on small --quick
      // runs. The 15% row still prints for the record.
      if (qos == multicast::QoS::kAcked && loss <= 0.05 && delivery < 0.99)
        qos1_ok = false;
      // Retention bound, two halves: peak occupancy within the window
      // (fails if RetainedBuffer eviction regresses) and aggregate entries
      // within buffers x window (fails if buffers leak entries across
      // peers/groups) — memory O(1) per responder-group pair, not O(waves).
      if (qos == multicast::QoS::kEndToEnd &&
          (r.retained_peak > params.retention_window ||
           r.retained_entries > r.retained_buffers * params.retention_window))
        retention_ok = false;
      if (loss == 0.05) {
        if (qos == multicast::QoS::kFireAndForget) qos0_at_5 = delivery;
        if (qos == multicast::QoS::kAcked) qos1_at_5 = delivery;
        if (qos == multicast::QoS::kEndToEnd) qos2_at_5 = delivery;
      }
    }
  }
  std::ostringstream banner;
  banner << "=== pub/sub QoS x loss sweep: " << params.group_count << " groups x "
         << params.subscribers << " subscribers on " << params.peers << " peers, "
         << params.midwave
         << " mid-wave forwarder kill rounds (per-cell kills/severed in the"
            " table), seed=" << params.seed << " (overlay built in "
         << util::format_number(overlay.build_secs, 2) << "s) ===";
  return report(
      "sweep",
      {{"qos1_ok", "QoS 1 delivery_ratio >= 0.99 at loss points <= 5%", qos1_ok},
       {"gap_ok", "at 5% loss QoS 0 visibly below QoS 1",
        qos1_at_5 >= 0.99 && qos0_at_5 < qos1_at_5 - 0.01},
       {"qos2_ok", "at 5% loss with mid-wave kills QoS 2 >= 0.9999, QoS 1 below",
        qos2_at_5 >= 0.9999 && qos1_at_5 < 0.9999},
       {"retention_ok",
        "retained-buffer peak <= retention window (" +
            std::to_string(params.retention_window) + ")",
        retention_ok}},
      table, banner.str(), csv, /*json_path=*/"", {});
}

// -------------------------------------------------------- batch compare ----

/// The ISSUE 4 acceptance harness (--batch-compare): the burst workload
/// (--pub-burst=K back-to-back publishes from one publisher, the load root
/// batching amortises) at every QoS rung, unbatched vs. batched
/// (--batch-window, --max-batch), gating on bit-identical delivered
/// (peer, group, seq) sets and a >= 3x payload+ack envelope reduction at
/// QoS 1. Churn/kills are off — equivalence is defined on stable
/// membership (a wave in flight to a departing subscriber dies at a
/// slightly different instant under the two pipelines, which is timing,
/// not correctness; the lossy/churny equivalence story lives in
/// tests/groups_batching_test.cpp where a QoS guarantee pins the set).
int run_batch_compare(ScenarioParams params, std::size_t dims, bool csv,
                      const std::string& json_path) {
  const auto overlay = make_overlay(params.peers, dims, params.seed);
  params.departures = 0;
  params.midwave = 0;
  if (params.pub_burst <= 1) params.pub_burst = 8;
  if (params.batch_window <= 0.0) params.batch_window = 0.1;
  util::Table table({"qos", "batched", "publishes", "delivery_ratio", "payload_msgs",
                     "ack_msgs", "payload+ack", "nacks", "retx", "waves", "occupancy",
                     "envelopes_saved", "identical_set", "run_secs"});
  std::vector<std::string> cells;
  bool all_identical = true;
  double reduction_qos1 = 0.0;
  for (const auto qos : {multicast::QoS::kFireAndForget, multicast::QoS::kAcked,
                         multicast::QoS::kEndToEnd}) {
    ScenarioParams unbatched = params;
    unbatched.batch_window = 0.0;
    const auto base = run_scenario(overlay.graph, unbatched, qos, 0.0, true);
    const auto coalesced = run_scenario(overlay.graph, params, qos, 0.0, true);
    const bool identical = base.delivered == coalesced.delivered &&
                           base.total.deliveries == base.delivered.size() &&
                           coalesced.total.deliveries == coalesced.delivered.size();
    all_identical = all_identical && identical;
    const auto envelopes = [](const CellResult& r) {
      return r.total.payload_messages + r.total.ack_messages;
    };
    if (qos == multicast::QoS::kAcked)
      reduction_qos1 = ratio(envelopes(base), envelopes(coalesced));
    for (const auto* r : {&base, &coalesced}) {
      const bool batched = r == &coalesced;
      table.begin_row()
          .add_number(static_cast<double>(qos), 0)
          .add_number(batched ? 1 : 0, 0)
          .add_number(static_cast<double>(r->total.publishes), 0)
          .add_number(r->total.delivery_ratio(), 5)
          .add_number(static_cast<double>(r->total.payload_messages), 0)
          .add_number(static_cast<double>(r->total.ack_messages), 0)
          .add_number(static_cast<double>(envelopes(*r)), 0)
          .add_number(static_cast<double>(r->total.nacks_sent), 0)
          .add_number(static_cast<double>(r->total.retransmissions), 0)
          .add_number(static_cast<double>(r->total.batch_flushes_window +
                                          r->total.batch_flushes_full),
                      0)
          .add_number(r->total.mean_batch_occupancy(), 2)
          .add_number(static_cast<double>(r->total.envelopes_saved), 0)
          .add_number(identical ? 1 : 0, 0)
          .add_number(r->run_secs, 3);
      cells.push_back(scenario_json(batched ? params : unbatched, qos, 0.0, *r));
    }
  }
  std::ostringstream banner;
  banner << "=== batch compare: bursts of " << params.pub_burst << " over "
         << params.group_count << " groups x " << params.subscribers
         << " subscribers on " << params.peers << " peers, batch_window="
         << params.batch_window << ", max_batch=" << params.max_batch
         << ", seed=" << params.seed << " (overlay built in "
         << util::format_number(overlay.build_secs, 2) << "s) ===";
  return report(
      "batch_compare",
      {{"gate_identical", "delivered (peer, group, seq) sets bit-identical at QoS 0/1/2",
        all_identical},
       {"gate_reduction_ge_3x", "payload+ack envelopes reduced >= 3x at QoS 1",
        reduction_qos1 >= 3.0, " (" + util::format_number(reduction_qos1, 2) + "x)"}},
      table, banner.str(), csv, json_path,
      {{"params", params_json(params)},
       {"cells", json_array(cells)},
       {"delivered_sets_identical", json_bool(all_identical)},
       {"payload_ack_reduction_qos1", json_number(reduction_qos1)}});
}

// ------------------------------------------------------------ graft cost ----

/// One (mode, loss, kills) cell of the graft-cost compare.
struct GraftCell : CellResult {
  /// Sorted (parent, child) edge set per group — the bit-identical gate's
  /// subject. Collected from the post-run cached trees (zero-loss cells
  /// end with every cache clean in both modes).
  std::vector<std::vector<std::pair<overlay::PeerId, overlay::PeerId>>> trees;
  bool attached_ok = true;  // every surviving registered member spanned
  std::size_t inflight = 0;
};

/// The graft-heavy workload: the late half of every group's membership
/// subscribes AFTER the warm publish built the tree, so each one exercises
/// the zone descent; `kills` mid-graft departures land inside the late-
/// subscribe window. Deterministic per (params.seed, routed, loss, kills).
/// Batching, retention and replica knobs stay at their defaults.
GraftCell run_graft_scenario(const overlay::OverlayGraph& graph,
                             const ScenarioParams& params, bool routed, double loss,
                             std::size_t kills) {
  const std::size_t peers = graph.size();
  groups::PubSubConfig config = base_config(params, multicast::QoS::kAcked, loss);
  config.routed_graft = routed;
  GraftCell cell;
  const auto schedule = [&](groups::PubSubSystem& system) {
    std::vector<bool> is_root(peers, false);
    for (std::size_t g = 0; g < params.group_count; ++g)
      is_root[system.manager().root_of(g)] = true;

    util::Rng rng(params.seed ^ 0x67726166747363ULL);  // graft-schedule stream
    std::vector<std::vector<overlay::PeerId>> members(params.group_count);
    for (std::size_t g = 0; g < params.group_count; ++g) {
      // Early half before the warm publish (the lazy build spans them);
      // late half in (3, 5) — every one a graft against the cached tree.
      members[g] = draw_peers(rng, peers, params.subscribers, is_root,
                              [&](overlay::PeerId p, std::size_t i) {
                                system.subscribe_at(i < params.subscribers / 2
                                                        ? rng.uniform(0.0, 1.0)
                                                        : rng.uniform(3.0, 5.0),
                                                    p, g);
                              });
      system.publish_at(2.0, members[g][0], g);  // warm: pays the build
      for (std::size_t i = 1; i < params.publishes; ++i)
        system.publish_at(rng.uniform(6.0, 9.0),
                          members[g][rng.next_below(params.subscribers / 2)], g);
    }
    draw_peers(rng, peers, kills, is_root, [&](overlay::PeerId p, std::size_t) {
      system.depart_at(rng.uniform(3.2, 4.8), p);  // inside the graft window
    });
  };
  const auto harvest = [&](groups::PubSubSystem& system) {
    cell.inflight = system.manager().inflight_graft_count();
    for (std::size_t g = 0; g < params.group_count; ++g) {
      if (const groups::GroupTree* gt = system.manager().cached_tree(g))
        cell.trees.push_back(tree_edges(*gt));
      else
        cell.trees.emplace_back();
    }
    // The attach gate reads REFRESHED trees (an abort defers the subscriber
    // to the next rebuild; tree() performs it) — run after the stats grab
    // so the refresh's builds don't pollute the cell's numbers.
    for (std::size_t g = 0; g < params.group_count; ++g) {
      const groups::GroupTree* gt = system.manager().tree(g);
      if (gt == nullptr) continue;
      for (overlay::PeerId p = 0; p < peers; ++p)
        if (system.manager().alive(p) && system.manager().is_subscribed(g, p) &&
            !gt->tree.delivers(p))
          cell.attached_ok = false;
    }
  };
  static_cast<CellResult&>(cell) =
      run_cell(graph, config, schedule, {.record = Record::kDeliveredSet, .harvest = harvest});
  return cell;
}

std::string graft_cell_json(const char* mode, double loss, std::size_t kills,
                            const GraftCell& cell, bool identical_ok) {
  std::ostringstream o;
  o.precision(10);
  o << "{\"mode\":\"" << mode << "\",\"loss\":" << loss << ",\"kills\":" << kills
    << ",\"subscribes\":" << cell.total.subscribes
    << ",\"grafts\":" << cell.total.grafts
    << ",\"graft_messages\":" << cell.total.graft_messages
    << ",\"graft_hops\":" << cell.total.graft_hops
    << ",\"hops_per_graft\":" << ratio(cell.total.graft_hops, cell.total.grafts)
    << ",\"graft_retries\":" << cell.total.graft_retries
    << ",\"graft_aborts\":" << cell.total.graft_aborts
    << ",\"graft_resubscribes\":" << cell.total.graft_resubscribes
    << ",\"stranded_rescues\":" << cell.total.stranded_rescues
    << ",\"delivery_ratio\":" << cell.total.delivery_ratio()
    << ",\"identical_to_local\":" << json_bool(identical_ok)
    << ",\"attached_ok\":" << json_bool(cell.attached_ok)
    << ",\"inflight_leaked\":" << cell.inflight
    << ",\"run_secs\":" << cell.run_secs
    << ",\"graft_latency\":" << cell.total.graft_latency.to_json()
    << ",\"delivery_latency\":" << cell.total.delivery_latency.to_json()
    << ",\"net\":" << obs::to_json(cell.net) << "}";
  return o.str();
}

/// The ISSUE 5 acceptance harness: per pinned seed (three of them), the
/// local-descent oracle vs the routed descent at zero loss — delivered
/// sets and tree edge sets must be bit-identical, with every routed hop
/// a kGraftRequestKind envelope on the transport — plus a routed churn
/// cell (5% loss, mid-graft kills) that must leave every surviving
/// registered member attached.
int run_graft_cost(ScenarioParams params, std::size_t dims, bool csv,
                   const std::string& json_path) {
  util::Table table({"seed", "mode", "loss", "kills", "subscribes", "grafts",
                     "graft_msgs", "graft_hops", "hops_per_graft", "retries",
                     "aborts", "resubs", "rescues", "request_envs",
                     "delivery_ratio", "identical", "attached", "run_secs"});
  bool identical_ok = true, visible_ok = true, attached_ok = true, leak_ok = true;
  std::vector<std::string> seeds;
  const std::size_t churn_kills = std::max<std::size_t>(params.departures / 4, 2);
  for (std::uint64_t seed = params.seed; seed < params.seed + 3; ++seed) {
    ScenarioParams cell_params = params;
    cell_params.seed = seed;
    const auto overlay = make_overlay(params.peers, dims, seed);
    const auto& graph = overlay.graph;

    const auto local = run_graft_scenario(graph, cell_params, /*routed=*/false, 0.0, 0);
    const auto routed = run_graft_scenario(graph, cell_params, /*routed=*/true, 0.0, 0);
    const auto churn =
        run_graft_scenario(graph, cell_params, /*routed=*/true, 0.05, churn_kills);

    const bool cell_identical =
        routed.delivered == local.delivered && routed.trees == local.trees &&
        routed.total.grafts == local.total.grafts &&
        routed.total.graft_messages == local.total.graft_messages;
    identical_ok = identical_ok && cell_identical && local.total.grafts > 0;
    // The transport's own count of descent envelopes: one per graft hop
    // when nothing is lost, none on the local path, and some under churn
    // (where retransmissions make it exceed graft_hops).
    visible_ok = visible_ok && routed.total.graft_hops > 0 &&
                 sent_of(routed.net, groups::kGraftRequestKind) == routed.total.graft_hops &&
                 sent_of(local.net, groups::kGraftRequestKind) == 0 &&
                 sent_of(churn.net, groups::kGraftRequestKind) > 0;
    attached_ok = attached_ok && local.attached_ok && routed.attached_ok &&
                  churn.attached_ok;
    leak_ok = leak_ok && routed.inflight == 0 && churn.inflight == 0;

    const struct {
      const char* name;
      const GraftCell* cell;
      double loss;
      std::size_t kills;
      bool identical;
    } rows[] = {{"local", &local, 0.0, 0, true},
                {"routed", &routed, 0.0, 0, cell_identical},
                {"routed+churn", &churn, 0.05, churn_kills, false}};
    std::vector<std::string> cells;
    for (const auto& row : rows) {
      table.begin_row()
          .add_number(static_cast<double>(seed), 0)
          .add_cell(row.name)
          .add_number(row.loss, 2)
          .add_number(static_cast<double>(row.kills), 0)
          .add_number(static_cast<double>(row.cell->total.subscribes), 0)
          .add_number(static_cast<double>(row.cell->total.grafts), 0)
          .add_number(static_cast<double>(row.cell->total.graft_messages), 0)
          .add_number(static_cast<double>(row.cell->total.graft_hops), 0)
          .add_number(ratio(row.cell->total.graft_hops, row.cell->total.grafts), 2)
          .add_number(static_cast<double>(row.cell->total.graft_retries), 0)
          .add_number(static_cast<double>(row.cell->total.graft_aborts), 0)
          .add_number(static_cast<double>(row.cell->total.graft_resubscribes), 0)
          .add_number(static_cast<double>(row.cell->total.stranded_rescues), 0)
          .add_number(static_cast<double>(
                          sent_of(row.cell->net, groups::kGraftRequestKind)),
                      0)
          .add_number(row.cell->total.delivery_ratio(), 5)
          .add_number(row.identical ? 1 : 0, 0)
          .add_number(row.cell->attached_ok ? 1 : 0, 0)
          .add_number(row.cell->run_secs, 3);
      cells.push_back(
          graft_cell_json(row.name, row.loss, row.kills, *row.cell, row.identical));
    }
    seeds.push_back("{\"seed\":" + std::to_string(seed) +
                    ",\"cells\":" + json_array(cells, 2) + "}");
  }
  std::ostringstream banner;
  banner << "=== graft cost: routed vs local descent, " << params.group_count
         << " groups x " << params.subscribers << " subscribers on " << params.peers
         << " peers, late half grafted, seeds " << params.seed << ".."
         << params.seed + 2 << " ===";
  return report(
      "graft_cost",
      {{"gate_identical",
        "routed graft bit-identical to local oracle at zero loss (trees + delivered sets)",
        identical_ok},
       {"gate_cost_visible",
        "graft cost visible on the transport (kGraftRequestKind envelopes = graft_hops)",
        visible_ok},
       {"gate_all_attached",
        "all surviving subscribers attached under 5% loss + mid-graft kills", attached_ok},
       {"gate_no_leaked_cursors", "no leaked in-flight graft cursors", leak_ok}},
      table, banner.str(), csv, json_path,
      {{"params", params_json(params)}, {"seeds", json_array(seeds)}});
}

// ---------------------------------------------------------- latency mode ----

/// The ISSUE 6 latency-pinning harness: per pinned seed (three of them, each
/// with its own overlay), the standard workload minus churn at every QoS
/// rung and loss in {0, 0.05}. Churn is off so the publish->delivery
/// distribution is a pure function of the (qos, loss) cell, not of which
/// subscribers happened to die mid-wave. Gates are structural — the
/// histogram quantiles must be ordered, the histogram must have counted
/// every delivery, and the per-peer load summary must be internally
/// consistent — so the pinned JSON (BENCH_latency.json) tracks drift
/// without hard-coding absolute latencies into the binary.
int run_latency(ScenarioParams params, std::size_t dims, bool csv,
                const std::string& json_path) {
  params.departures = 0;
  params.midwave = 0;
  const std::vector<double> loss_axis{0.0, 0.05};
  util::Table table({"seed", "loss", "qos", "publishes", "deliveries",
                     "delivery_ratio", "delivery_p50", "delivery_p90",
                     "delivery_p99", "delivery_max", "gap_p50", "gap_p99",
                     "send_load_max", "send_load_p99", "recv_load_max",
                     "recv_load_p99", "run_secs"});
  bool shape_ok = true, counts_ok = true, load_ok = true;
  std::vector<std::string> cells;
  for (std::uint64_t seed = params.seed; seed < params.seed + 3; ++seed) {
    ScenarioParams cell_params = params;
    cell_params.seed = seed;
    const auto overlay = make_overlay(params.peers, dims, seed);
    for (const double loss : loss_axis) {
      for (const auto qos : {multicast::QoS::kFireAndForget, multicast::QoS::kAcked,
                             multicast::QoS::kEndToEnd}) {
        const auto r = run_scenario(overlay.graph, cell_params, qos, loss);
        const auto& h = r.total.delivery_latency;
        shape_ok = shape_ok && h.p50() <= h.p90() && h.p90() <= h.p99() &&
                   h.p99() <= h.max();
        counts_ok = counts_ok && h.count() > 0 && h.p50() > 0.0 &&
                    h.count() == r.total.deliveries;
        const auto send = obs::summarize_load(r.net.sent_by_node);
        const auto recv = obs::summarize_load(r.net.received_by_node);
        load_ok = load_ok && send.max >= send.p99 && recv.max >= recv.p99 &&
                  send.max > 0;
        table.begin_row()
            .add_number(static_cast<double>(seed), 0)
            .add_number(loss, 2)
            .add_number(static_cast<double>(qos), 0)
            .add_number(static_cast<double>(r.total.publishes), 0)
            .add_number(static_cast<double>(r.total.deliveries), 0)
            .add_number(r.total.delivery_ratio(), 5)
            .add_number(h.p50(), 4)
            .add_number(h.p90(), 4)
            .add_number(h.p99(), 4)
            .add_number(h.max(), 4)
            .add_number(r.total.gap_repair_latency.p50(), 4)
            .add_number(r.total.gap_repair_latency.p99(), 4)
            .add_number(static_cast<double>(send.max), 0)
            .add_number(static_cast<double>(send.p99), 0)
            .add_number(static_cast<double>(recv.max), 0)
            .add_number(static_cast<double>(recv.p99), 0)
            .add_number(r.run_secs, 3);
        cells.push_back("{\"seed\":" + std::to_string(seed) + "," +
                        scenario_json(cell_params, qos, loss, r).substr(1));
      }
    }
  }
  std::ostringstream banner;
  banner << "=== publish->delivery latency: " << params.group_count << " groups x "
         << params.subscribers << " subscribers on " << params.peers
         << " peers, QoS {0,1,2} x loss {0, 0.05}, seeds " << params.seed << ".."
         << params.seed + 2 << " (churn off) ===";
  return report(
      "latency",
      {{"gate_quantiles_ordered", "p50 <= p90 <= p99 <= max in every cell", shape_ok},
       {"gate_histogram_counts_deliveries", "histogram count == deliveries, p50 > 0",
        counts_ok},
       {"gate_load_summary_consistent",
        "per-peer load summaries consistent (max >= p99 > 0)", load_ok}},
      table, banner.str(), csv, json_path,
      {{"params", params_json(params)}, {"cells", json_array(cells)}});
}

// ------------------------------------------------------------- root kill ----

/// One cell of the failover compare: the root-kill workload with warm
/// failover on or off, or its no-kill control.
struct FailoverCell : CellResult {
  std::size_t kills = 0;    // groups whose kill found a relay to sever
  std::size_t severed = 0;  // subscriber descendants cut off by relays
  /// Mean secs from a group's root death to its first delivery of a seq
  /// NEWER than the killed wave (in-flight tail deliveries of the killed
  /// wave and repairs of it don't count as "resumed service").
  double first_post_kill = -1.0;
};

/// The failover workload, shared by all four cells of a seed. Per group:
/// two warm-up waves (build the tree, initialize the subscriber windows),
/// a killed wave at a staggered kill time, one publish landing INSIDE the
/// successor batch window (so the root dies holding a pending batch —
/// lost cold, inherited warm), and two post-kill publishes from a
/// surviving member whose waves reveal the severed subtree's gap. With
/// `kill_on`, schedule_root_kill severs the wave's best relay mid-flight
/// and departs the root right after the flush; victim selection excludes
/// roots, subscribers, and every group's replica candidate, so the cold
/// and warm cells kill identical peers and the successor survives.
/// Root-side batching only: the publisher-side window stays off.
FailoverCell run_failover_cell(const overlay::OverlayGraph& graph,
                               const ScenarioParams& params, bool warm_on,
                               bool kill_on) {
  groups::PubSubConfig config =
      scenario_config(params, multicast::QoS::kEndToEnd, /*loss=*/0.0);
  config.publisher_batch_window = 0.0;
  config.warm_failover = warm_on;
  FailoverCell cell;
  const std::size_t peers = graph.size();

  // The killed wave is always seq 2 (two single-publish warm-up batches
  // precede it); deliveries of seq > 2 after the death mark resumed
  // service — warm via the inherited pending batch, cold only once the
  // post-kill publishes flow.
  constexpr std::uint64_t kKilledSeq = 2;
  std::vector<double> death_at(params.group_count, -1.0);
  std::vector<double> first_after(params.group_count, -1.0);
  const auto observe = [&death_at, &first_after](overlay::PeerId, groups::GroupId g,
                                                 std::uint64_t seq, double t) {
    if (g < death_at.size() && death_at[g] >= 0.0 && seq > kKilledSeq &&
        t > death_at[g] && first_after[g] < 0.0)
      first_after[g] = t - death_at[g];
  };

  std::vector<bool> protected_peers(peers, false);  // the kill injector reads it in run()
  const auto schedule = [&](groups::PubSubSystem& system) {
    for (std::size_t g = 0; g < params.group_count; ++g) {
      protected_peers[system.manager().root_of(g)] = true;
      const overlay::PeerId r = system.manager().replica_candidate(g);
      if (r != overlay::kInvalidPeer) protected_peers[r] = true;
    }

    // Membership: M distinct unprotected subscribers per group, waves in
    // (0, 1). Replica candidates stay out of membership so a promotion
    // never turns a subscriber into its own group's root.
    util::Rng rng(params.seed ^ 0x6661696c6f766572ULL);  // failover stream
    std::vector<std::vector<overlay::PeerId>> members(params.group_count);
    for (std::size_t g = 0; g < params.group_count; ++g)
      members[g] = draw_peers(rng, peers, params.subscribers, protected_peers,
                              [&](overlay::PeerId p, std::size_t) {
                                system.subscribe_at(rng.uniform(0.0, 1.0), p, g);
                              });
    // Members join the protected set only after selection (cross-group
    // membership overlap stays allowed); the injector reads the vector at
    // kill-selection time, so all groups' members are excluded everywhere.
    for (const auto& group_members : members)
      for (const overlay::PeerId p : group_members) protected_peers[p] = true;

    // Batching is forced on in this mode: the wave leaves the root one
    // batch window after the publish lands, and the root death trails the
    // flush far enough for the pending publish's replica sync (one publish
    // delay + one network latency) to land first.
    const double wave_start_delay = params.batch_window;
    const double kRootKillDelay = 0.04;
    for (std::size_t g = 0; g < params.group_count; ++g) {
      const overlay::PeerId root = system.manager().root_of(g);
      const auto group = static_cast<groups::GroupId>(g);
      const double kill_time = 10.0 + 2.0 * static_cast<double>(g);
      system.publish_at(2.0, root, group);
      system.publish_at(2.3, root, group);
      system.publish_at(kill_time, root, group);  // the killed wave
      // Lands after the killed wave's flush, before the root death: dies
      // pending in the root's fresh batch.
      system.publish_at(kill_time + wave_start_delay + 0.01, root, group);
      if (kill_on) {
        groups::schedule_root_kill(
            system, group, kill_time, protected_peers,
            [&cell, &death_at, g, kill_time, wave_start_delay, kRootKillDelay](
                overlay::PeerId, overlay::PeerId, std::size_t severed) {
              ++cell.kills;
              cell.severed += severed;
              death_at[g] = kill_time + wave_start_delay + kRootKillDelay;
            },
            wave_start_delay, kRootKillDelay);
      }
      system.publish_at(kill_time + 1.0, members[g][0], group);
      system.publish_at(kill_time + 1.3, members[g][0], group);
    }
  };
  static_cast<CellResult&>(cell) = run_cell(
      graph, config, schedule, {.record = Record::kDeliveredSet, .observe = observe});
  double sum = 0.0;
  std::size_t counted = 0;
  for (std::size_t g = 0; g < params.group_count; ++g)
    if (death_at[g] >= 0.0 && first_after[g] >= 0.0) {
      sum += first_after[g];
      ++counted;
    }
  if (counted > 0) cell.first_post_kill = sum / static_cast<double>(counted);
  return cell;
}

std::string failover_cell_json(const char* name, bool warm_on, bool kill_on,
                               const FailoverCell& r) {
  std::ostringstream o;
  o.precision(10);
  o << "{\"cell\":\"" << name << "\",\"warm_failover\":" << json_bool(warm_on)
    << ",\"kill\":" << json_bool(kill_on) << ",\"kills\":" << r.kills
    << ",\"severed_subscribers\":" << r.severed
    << ",\"publishes\":" << r.total.publishes
    << ",\"deliveries\":" << r.total.deliveries
    << ",\"expected_deliveries\":" << r.total.expected_deliveries
    << ",\"delivery_ratio\":" << r.total.delivery_ratio()
    << ",\"gap_seqs_detected\":" << r.total.gap_seqs_detected
    << ",\"gap_seqs_repaired\":" << r.total.gap_seqs_repaired
    << ",\"gap_seqs_abandoned\":" << r.total.gap_seqs_abandoned
    << ",\"batch_publishes_lost\":" << r.total.batch_publishes_lost
    << ",\"pending_publishes_inherited\":" << r.total.pending_publishes_inherited
    << ",\"warm_promotions\":" << r.total.warm_promotions
    << ",\"root_migrations\":" << r.total.root_migrations
    << ",\"replica_sync_envelopes\":" << r.total.replica_sync_envelopes
    << ",\"replica_sync_retries\":" << r.total.replica_sync_retries
    << ",\"migration_envelopes\":" << r.total.migration_envelopes
    << ",\"heartbeats_sent\":" << r.total.heartbeats_sent
    << ",\"time_to_first_post_kill_delivery\":" << r.first_post_kill
    << ",\"run_secs\":" << r.run_secs << ",\"net\":" << obs::to_json(r.net) << "}";
  return o.str();
}

/// The failover acceptance harness: per pinned seed, the root-kill
/// workload cold vs warm plus a no-kill control pair, gating on the cold
/// dip, the warm zero-dip with a priced handoff, warm's strictly faster
/// post-kill first delivery, and no-kill bit-identity.
int run_root_kill(ScenarioParams params, std::size_t dims, bool csv,
                  const std::string& json_path) {
  params.departures = 0;
  params.midwave = 0;
  if (params.batch_window <= 0.0) params.batch_window = 0.05;
  if (params.max_batch <= 1) params.max_batch = 16;
  util::Table table({"seed", "cell", "kills", "severed", "publishes",
                     "delivery_ratio", "gaps_abandoned", "batch_lost", "inherited",
                     "promotions", "repl_sync", "migr_env", "first_delivery",
                     "run_secs"});
  bool kills_ok = true, cold_ok = true, warm_ok = true, ttf_ok = true,
       identity_ok = true;
  std::vector<std::string> seeds;
  for (std::uint64_t seed = params.seed; seed < params.seed + 3; ++seed) {
    ScenarioParams cell_params = params;
    cell_params.seed = seed;
    const auto overlay = make_overlay(params.peers, dims, seed);
    const auto cell = [&](bool warm_on, bool kill_on) {
      return run_failover_cell(overlay.graph, cell_params, warm_on, kill_on);
    };
    const auto cold = cell(/*warm_on=*/false, /*kill_on=*/true);
    const auto warm = cell(/*warm_on=*/true, /*kill_on=*/true);
    const auto base_cold = cell(/*warm_on=*/false, /*kill_on=*/false);
    const auto base_warm = cell(/*warm_on=*/true, /*kill_on=*/false);

    // Identical victims (and the same skipped-publisher schedule) across
    // the cells, and the same migrations.
    kills_ok = kills_ok && cold.kills > 0 && cold.kills == warm.kills &&
               cold.severed == warm.severed &&
               cold.total.publishes == warm.total.publishes &&
               warm.total.root_migrations == cold.total.root_migrations;
    // Cold rebuild: the migrated-to root's empty RetainedBuffer abandons
    // the severed subtree's repairs, and pending batches die with their
    // roots — a measurable dip, with zero replication traffic.
    cold_ok = cold_ok && cold.total.gap_seqs_abandoned > 0 &&
              cold.total.deliveries < cold.total.expected_deliveries &&
              cold.total.batch_publishes_lost > 0 &&
              cold.total.pending_publishes_inherited == 0 &&
              cold.total.replica_sync_envelopes == 0 &&
              cold.total.migration_envelopes == 0;
    // Warm failover: zero dip, pending batches inherited instead of lost,
    // at least one promotion per kill (two groups can rendezvous to the
    // SAME root peer, so one death may promote several groups — and a kill
    // staged against an already-migrated group decapitates the successor,
    // promoting the group twice), and the handoff priced in migration
    // envelopes.
    warm_ok = warm_ok && warm.total.deliveries == warm.total.expected_deliveries &&
              warm.total.gap_seqs_abandoned == 0 &&
              warm.total.batch_publishes_lost == 0 &&
              warm.total.pending_publishes_inherited > 0 &&
              warm.total.warm_promotions >= warm.kills &&
              warm.total.replica_sync_envelopes > 0 &&
              warm.total.migration_envelopes > 0;
    ttf_ok = ttf_ok && warm.first_post_kill >= 0.0 && cold.first_post_kill >= 0.0 &&
             warm.first_post_kill < cold.first_post_kill;
    // The knob-oracle guarantee at bench scale: with nobody dying, warm
    // replication is pure extra traffic — delivered sets bit-identical.
    identity_ok = identity_ok && base_cold.delivered == base_warm.delivered &&
                  base_cold.total.deliveries == base_cold.delivered.size() &&
                  base_warm.total.deliveries == base_warm.delivered.size() &&
                  base_warm.total.replica_sync_envelopes > 0 &&
                  base_cold.total.replica_sync_envelopes == 0;

    const struct {
      const char* name;
      const FailoverCell* cell;
      bool warm;
      bool kill;
    } rows[] = {{"cold+kill", &cold, false, true},
                {"warm+kill", &warm, true, true},
                {"cold", &base_cold, false, false},
                {"warm", &base_warm, true, false}};
    std::vector<std::string> cells;
    for (const auto& row : rows) {
      table.begin_row()
          .add_number(static_cast<double>(seed), 0)
          .add_cell(row.name)
          .add_number(static_cast<double>(row.cell->kills), 0)
          .add_number(static_cast<double>(row.cell->severed), 0)
          .add_number(static_cast<double>(row.cell->total.publishes), 0)
          .add_number(row.cell->total.delivery_ratio(), 5)
          .add_number(static_cast<double>(row.cell->total.gap_seqs_abandoned), 0)
          .add_number(static_cast<double>(row.cell->total.batch_publishes_lost), 0)
          .add_number(static_cast<double>(row.cell->total.pending_publishes_inherited),
                      0)
          .add_number(static_cast<double>(row.cell->total.warm_promotions), 0)
          .add_number(static_cast<double>(row.cell->total.replica_sync_envelopes), 0)
          .add_number(static_cast<double>(row.cell->total.migration_envelopes), 0)
          .add_number(row.cell->first_post_kill, 4)
          .add_number(row.cell->run_secs, 3);
      cells.push_back(failover_cell_json(row.name, row.warm, row.kill, *row.cell));
    }
    seeds.push_back("{\"seed\":" + std::to_string(seed) +
                    ",\"cells\":" + json_array(cells, 2) + "}");
  }
  std::ostringstream banner;
  banner << "=== root-kill failover: cold rebuild vs warm failover, "
         << params.group_count << " groups x " << params.subscribers
         << " subscribers on " << params.peers << " peers, QoS 2, batch_window="
         << params.batch_window << ", seeds " << params.seed << ".." << params.seed + 2
         << " ===";
  return report(
      "root_kill",
      {{"gate_kills_consistent", "cold and warm cells kill identical victims", kills_ok},
       {"gate_cold_dip",
        "cold rebuild shows the dip (abandons, ratio < 1, pending batch lost)", cold_ok},
       {"gate_warm_zero_dip",
        "warm failover erases it (ratio == 1, zero abandons, batch inherited,"
        " handoff priced)",
        warm_ok},
       {"gate_warm_faster_first_delivery", "warm resumes deliveries faster after the kill",
        ttf_ok},
       {"gate_no_kill_identical", "no-kill delivered sets bit-identical warm vs cold",
        identity_ok}},
      table, banner.str(), csv, json_path,
      {{"params", params_json(params)}, {"seeds", json_array(seeds)}});
}

// ------------------------------------------------------------- sim core ----

/// The simulator's own cost on the 1000-peer QoS 1 batched gate cell
/// (full-knowledge overlay) and a 100k-peer sweep cell on a grid-kNN
/// local-knowledge overlay (build_equilibrium stays quadratic in the peer
/// count, so a 100k full-knowledge build would dominate the cell). Each
/// cell runs twice and keeps the faster run_secs: the first run's ~26k
/// first-touch page faults land on fresh pages, a repeat's mostly on pages
/// the first left in the heap. Gates on the two runs agreeing on sim_events
/// and the stats; reports events/sec for the regression trajectory
/// (BENCH_simcore.json).
int run_simcore(ScenarioParams params, std::size_t dims, multicast::QoS qos,
                double loss, bool csv, const std::string& json_path,
                std::size_t sweep_peers, std::size_t knn_k) {
  util::Table table({"cell", "peers", "overlay_secs", "events", "run_secs",
                     "events_per_sec", "delivery_ratio"});
  std::vector<std::string> cells;
  bool repeat_ok = true;
  const auto measure = [&](const char* name, const Overlay& overlay,
                           const ScenarioParams& cell_params) {
    auto r = run_scenario(overlay.graph, cell_params, qos, loss);
    const auto again = run_scenario(overlay.graph, cell_params, qos, loss);
    repeat_ok = repeat_ok && again.events == r.events &&
                obs::to_json(again.total) == obs::to_json(r.total) &&
                obs::to_json(again.net) == obs::to_json(r.net);
    r.run_secs = std::min(r.run_secs, again.run_secs);
    const double events_per_sec = ratio(r.events, r.run_secs);
    table.begin_row()
        .add_cell(name)
        .add_number(static_cast<double>(overlay.graph.size()), 0)
        .add_number(overlay.build_secs, 3)
        .add_number(static_cast<double>(r.events), 0)
        .add_number(r.run_secs, 4)
        .add_number(events_per_sec, 0)
        .add_number(r.total.delivery_ratio(), 5);
    std::ostringstream o;
    o.precision(10);
    o << "{\"cell\":\"" << name << "\",\"peers\":" << overlay.graph.size()
      << ",\"overlay_secs\":" << overlay.build_secs << ",\"sim_events\":" << r.events
      << ",\"events_per_sec\":" << events_per_sec
      << ",\n     \"run\":" << scenario_json(cell_params, qos, loss, r) << "}";
    cells.push_back(o.str());
  };
  measure("gate1k", make_overlay(params.peers, dims, params.seed), params);
  if (sweep_peers > 0) {
    ScenarioParams sweep = params;
    sweep.peers = sweep_peers;
    // Few publishes: the sweep cell exists to push peer-count-proportional
    // state (window slots, dedup tables, queue depth) to 100k within
    // the CI budget, not to maximise wave traffic.
    sweep.publishes = std::min<std::size_t>(sweep.publishes, 8);
    sweep.local_members = true;
    measure("sweep100k", make_overlay(sweep.peers, dims, params.seed + 1, knn_k), sweep);
  }
  std::ostringstream banner;
  banner << "=== pub/sub simulator core: events/sec, qos=" << static_cast<int>(qos)
         << ", loss=" << loss << ", seed " << params.seed << " ===";
  return report(
      "simcore",
      {{"gate_repeat_identical", "both runs of each cell agree on sim_events and stats",
        repeat_ok}},
      table, banner.str(), csv, json_path,
      {{"params", params_json(params)},
       {"cells", json_array(cells)},
       {"hardware_threads",
        std::to_string(std::max(1u, std::thread::hardware_concurrency()))}});
}

// -------------------------------------------------------------- hot group ----

/// One (replicas, qos) cell of the hot-group compare.
struct HotGroupCell : CellResult {
  std::size_t replicas = 1;
  multicast::QoS qos = multicast::QoS::kFireAndForget;
  obs::LoadSummary send_load, receive_load, total_load;
  /// max over the cell's slot roots of (sent + received) envelopes — the
  /// busiest root replica, the number sharding exists to flatten.
  std::uint64_t hot_root_load = 0;
  std::vector<overlay::PeerId> slot_roots;
  bool delivered_identical = true;  // vs. the R=1 cell at the same qos
};

/// The hot-group workload: ONE group, every eligible peer subscribed, burst
/// publishes from publishers strided across the id space (random points
/// make the stride a spatial spread, so at R > 1 publishes land at
/// different owner slots and the seq-lease plane is exercised). Every 8th
/// eligible peer subscribes late — in a quiet window after the main
/// publish phase — so the routed graft plane carries real descents; three
/// post-graft waves then reach them, and because the grafts settle before
/// those waves, the delivered (peer, group, seq) set is a function of the
/// schedule alone, identical at every R. `excluded` holds the slot roots
/// of EVERY R on the axis (plus the legacy root), so membership — and with
/// it the oracle comparison — is the same set in every cell.
HotGroupCell run_hot_group_cell(const overlay::OverlayGraph& graph,
                                const ScenarioParams& params, multicast::QoS qos,
                                std::size_t replicas,
                                const std::vector<bool>& excluded) {
  const std::size_t peers = graph.size();
  groups::PubSubConfig config = scenario_config(params, qos, /*loss=*/0.0);
  config.root_replicas = replicas;
  HotGroupCell cell;
  cell.replicas = replicas;
  cell.qos = qos;
  const groups::GroupId g = 0;
  const auto schedule = [&](groups::PubSubSystem& system) {
    util::Rng rng(params.seed ^ 0x686f7467727075ULL);  // hot-group stream
    std::vector<overlay::PeerId> early;
    std::size_t eligible = 0;
    for (overlay::PeerId p = 0; p < peers; ++p) {
      if (excluded[p]) continue;
      if (eligible++ % 8 == 7) {
        system.subscribe_at(10.0 + rng.uniform(0.0, 0.5), p, g);
      } else {
        early.push_back(p);
        system.subscribe_at(rng.uniform(0.0, 1.0), p, g);
      }
    }

    std::vector<overlay::PeerId> publishers;
    const std::size_t want = std::min<std::size_t>(16, early.size());
    for (std::size_t i = 0; i < want; ++i)
      publishers.push_back(early[i * early.size() / want]);

    system.publish_at(2.0, publishers[0], g);  // warm: pays the lazy build
    const std::size_t burst = std::max<std::size_t>(params.pub_burst, 1);
    for (std::size_t i = 1; i < params.publishes;) {
      const auto publisher = publishers[rng.next_below(publishers.size())];
      const double when = rng.uniform(3.0, 9.0);
      const std::size_t count = std::min(burst, params.publishes - i);
      for (std::size_t j = 0; j < count; ++j) system.publish_at(when, publisher, g);
      i += count;
    }
    // Post-graft waves: always the schedule's last three commits, so the
    // late joiners' delivered seqs are the same three in every cell.
    for (std::size_t i = 0; i < 3; ++i)
      system.publish_at(12.0 + static_cast<double>(i),
                        publishers[i % publishers.size()], g);
  };
  const auto harvest = [&](groups::PubSubSystem& system) {
    for (std::uint32_t s = 0; s < replicas; ++s)
      cell.slot_roots.push_back(system.manager().slot_root(g, s));
  };
  static_cast<CellResult&>(cell) =
      run_cell(graph, config, schedule, {.record = Record::kDeliveredSet, .harvest = harvest});
  std::vector<std::uint64_t> load(peers, 0);
  for (std::size_t p = 0; p < peers; ++p)
    load[p] = (p < cell.net.sent_by_node.size() ? cell.net.sent_by_node[p] : 0) +
              (p < cell.net.received_by_node.size() ? cell.net.received_by_node[p] : 0);
  cell.send_load = obs::summarize_load(cell.net.sent_by_node);
  cell.receive_load = obs::summarize_load(cell.net.received_by_node);
  cell.total_load = obs::summarize_load(load);
  for (const overlay::PeerId root : cell.slot_roots)
    cell.hot_root_load = std::max(cell.hot_root_load, load[root]);
  return cell;
}

std::string hot_group_cell_json(const HotGroupCell& cell) {
  std::ostringstream o;
  o.precision(10);
  o << "{\"replicas\":" << cell.replicas << ",\"qos\":" << static_cast<int>(cell.qos)
    << ",\"publishes\":" << cell.total.publishes
    << ",\"delivery_ratio\":" << cell.total.delivery_ratio()
    << ",\"deliveries\":" << cell.total.deliveries
    << ",\"delivered_keys\":" << cell.delivered.size()
    << ",\"graft_hops\":" << cell.total.graft_hops
    << ",\"grafts\":" << cell.total.grafts
    << ",\"seq_lease_requests\":" << cell.total.seq_lease_requests
    << ",\"seq_leases_granted\":" << cell.total.seq_leases_granted
    << ",\"seq_grants_lost\":" << cell.total.seq_grants_lost
    << ",\"shard_waves\":" << cell.total.shard_waves
    << ",\"shard_handoffs\":" << cell.total.shard_handoffs
    << ",\"publisher_batches\":" << cell.total.publisher_batches
    << ",\"publisher_envelopes_saved\":" << cell.total.publisher_envelopes_saved
    << ",\"envelopes_saved\":" << cell.total.envelopes_saved
    << ",\"send_load\":" << obs::to_json(cell.send_load)
    << ",\"receive_load\":" << obs::to_json(cell.receive_load)
    << ",\"total_load\":" << obs::to_json(cell.total_load)
    << ",\"hot_root_load\":" << cell.hot_root_load << ",\"slot_roots\":[";
  for (std::size_t i = 0; i < cell.slot_roots.size(); ++i) {
    if (i > 0) o << ",";
    o << cell.slot_roots[i];
  }
  o << "],\"delivered_identical\":" << json_bool(cell.delivered_identical)
    << ",\"sim_events\":" << cell.events << ",\"run_secs\":" << cell.run_secs << "}";
  return o.str();
}

/// The hot-group acceptance harness (--hot-group): one group, all eligible
/// peers subscribed, burst publishes, swept over the root_replicas axis
/// (default {1, 2, 4}) at every QoS rung. R=1 is the reference: delivered
/// (peer, group, seq) sets must be bit-identical at each qos, and the
/// busiest root replica's (sent + received) load — the hot-root hot spot —
/// must flatten monotonically with R and drop >= 1.8x at the axis maximum
/// (both load gates read the QoS 1 cells, where the ack plane makes the
/// root's per-wave cost realistic). BENCH_hotgroup.json is the checked-in
/// full-size run; CI replays it and validates the schema.
int run_hot_group(ScenarioParams params, std::size_t dims, bool csv,
                  const std::string& json_path, std::vector<std::size_t> axis) {
  std::sort(axis.begin(), axis.end());
  axis.erase(std::unique(axis.begin(), axis.end()), axis.end());
  if (axis.empty() || axis.front() != 1) axis.insert(axis.begin(), 1);
  params.group_count = 1;

  const auto overlay = make_overlay(params.peers, dims, params.seed);
  const auto& graph = overlay.graph;

  // Membership must be the same set in every cell, so no peer that is a
  // slot root at ANY R on the axis subscribes or publishes (anchors are
  // immutable and there is no churn, so a throwaway system per R names
  // them exactly).
  std::vector<bool> excluded(graph.size(), false);
  for (const std::size_t r : axis) {
    groups::PubSubConfig probe;
    probe.seed = params.seed;
    probe.root_replicas = r;
    groups::PubSubSystem sys(graph, probe);
    for (std::uint32_t s = 0; s < r; ++s)
      excluded[sys.manager().slot_root(0, s)] = true;
  }

  const std::array<multicast::QoS, 3> rungs{multicast::QoS::kFireAndForget,
                                            multicast::QoS::kAcked,
                                            multicast::QoS::kEndToEnd};
  std::vector<HotGroupCell> cells;
  cells.reserve(axis.size() * rungs.size());  // oracle pointers must stay valid
  std::map<int, const std::set<DeliveryKey>*> oracle;  // qos -> R=1 delivered set
  bool identical_ok = true;
  for (const std::size_t r : axis)
    for (const auto qos : rungs) {
      cells.push_back(run_hot_group_cell(graph, params, qos, r, excluded));
      HotGroupCell& cell = cells.back();
      const int q = static_cast<int>(qos);
      if (r == 1) {
        oracle[q] = &cell.delivered;
      } else {
        cell.delivered_identical = cell.delivered == *oracle[q];
        identical_ok = identical_ok && cell.delivered_identical;
        if (!cell.delivered_identical) {
          // Diagnostics for the gate report: which side owns the skew.
          std::vector<DeliveryKey> only_cell, only_oracle;
          std::set_difference(cell.delivered.begin(), cell.delivered.end(),
                              oracle[q]->begin(), oracle[q]->end(),
                              std::back_inserter(only_cell));
          std::set_difference(oracle[q]->begin(), oracle[q]->end(),
                              cell.delivered.begin(), cell.delivered.end(),
                              std::back_inserter(only_oracle));
          std::cerr << "pubsub_throughput: hot-group R=" << r << " qos=" << q
                    << " delivered set skew: +" << only_cell.size() << " / -"
                    << only_oracle.size() << " vs oracle;";
          for (std::size_t i = 0; i < std::min<std::size_t>(4, only_cell.size()); ++i)
            std::cerr << " +(" << std::get<0>(only_cell[i]) << ","
                      << std::get<2>(only_cell[i]) << ")";
          for (std::size_t i = 0; i < std::min<std::size_t>(4, only_oracle.size()); ++i)
            std::cerr << " -(" << std::get<0>(only_oracle[i]) << ","
                      << std::get<2>(only_oracle[i]) << ")";
          std::cerr << "\n";
        }
      }
    }

  // Load gates, from the QoS 1 column: monotone non-increasing hot-root
  // load along the axis, and >= 1.8x flattening at the axis maximum.
  std::vector<std::pair<std::size_t, std::uint64_t>> hot_by_r;
  for (const HotGroupCell& cell : cells)
    if (cell.qos == multicast::QoS::kAcked)
      hot_by_r.emplace_back(cell.replicas, cell.hot_root_load);
  bool monotonic_ok = true;
  for (std::size_t i = 1; i < hot_by_r.size(); ++i)
    monotonic_ok = monotonic_ok && hot_by_r[i].second <= hot_by_r[i - 1].second;
  // The >= 1.8x drop is the ISSUE's 1000-peer claim: subscribe/graft/publish
  // control is what sharding splits, and on --quick's 200 peers the root's
  // per-wave cost (which does NOT split R ways — every slot root drives
  // every committed range over its shard tree) outweighs it. Smaller runs
  // report the ratio without gating on it; monotonicity gates everywhere.
  const bool flatten_gated =
      hot_by_r.size() > 1 && hot_by_r.back().second > 0 && params.peers >= 1000;
  const double flatten_ratio =
      hot_by_r.size() > 1 ? ratio(hot_by_r.front().second, hot_by_r.back().second) : 0.0;

  util::Table table({"replicas", "qos", "publishes", "delivery_ratio", "graft_hops",
                     "seq_leases", "shard_waves", "handoffs", "send_max", "total_max",
                     "total_p99", "hot_root_load", "identical", "run_secs"});
  std::vector<std::string> cells_json;
  for (const HotGroupCell& cell : cells) {
    table.begin_row()
        .add_number(static_cast<double>(cell.replicas), 0)
        .add_number(static_cast<double>(cell.qos), 0)
        .add_number(static_cast<double>(cell.total.publishes), 0)
        .add_number(cell.total.delivery_ratio(), 5)
        .add_number(static_cast<double>(cell.total.graft_hops), 0)
        .add_number(static_cast<double>(cell.total.seq_leases_granted), 0)
        .add_number(static_cast<double>(cell.total.shard_waves), 0)
        .add_number(static_cast<double>(cell.total.shard_handoffs), 0)
        .add_number(static_cast<double>(cell.send_load.max), 0)
        .add_number(static_cast<double>(cell.total_load.max), 0)
        .add_number(static_cast<double>(cell.total_load.p99), 0)
        .add_number(static_cast<double>(cell.hot_root_load), 0)
        .add_cell(cell.delivered_identical ? "yes" : "NO")
        .add_number(cell.run_secs, 3);
    cells_json.push_back(hot_group_cell_json(cell));
  }
  std::string axis_json = "[", hot_json = "{", axis_text;
  for (std::size_t i = 0; i < axis.size(); ++i) {
    axis_json += (i > 0 ? "," : "") + std::to_string(axis[i]);
    axis_text += (i > 0 ? ", " : "") + std::to_string(axis[i]);
  }
  for (std::size_t i = 0; i < hot_by_r.size(); ++i)
    hot_json += (i > 0 ? ",\"" : "\"") + std::to_string(hot_by_r[i].first) +
                "\":" + std::to_string(hot_by_r[i].second);
  std::ostringstream banner;
  banner << "=== hot group: 1 group, all eligible peers subscribed on " << graph.size()
         << " peers (D=" << dims << "), bursts of " << params.pub_burst
         << ", batch_window=" << params.batch_window
         << ", publisher_batch_window=" << params.publisher_batch_window
         << ", replicas axis {" << axis_text << "}, seed=" << params.seed
         << " (overlay built in " << util::format_number(overlay.build_secs, 2) << "s) ===";
  return report(
      "hot_group",
      {{"gate_delivered_identical",
        "delivered (peer, group, seq) sets bit-identical to R=1 at every QoS rung",
        identical_ok},
       {"gate_hot_root_monotonic",
        "hot-root load max flattens monotonically along the replica axis (QoS 1)",
        monotonic_ok},
       {"gate_hot_root_flatten_1_8x",
        "hot-root load max drops >= 1.8x at R=" + std::to_string(axis.back()) +
            " vs R=1",
        !flatten_gated || flatten_ratio >= 1.8,
        std::string(flatten_gated ? "" : " (not gated)") + " (" +
            util::format_number(flatten_ratio, 2) + "x)"}},
      table, banner.str(), csv, json_path,
      {{"params", params_json(params)},
       {"replica_axis", axis_json + "]"},
       {"overlay_secs", json_number(overlay.build_secs)},
       {"cells", json_array(cells_json)},
       {"hot_root_load_qos1", hot_json + "}"},
       {"load_flatten_ratio", json_number(flatten_ratio)},
       {"flatten_gated", json_bool(flatten_gated)}});
}

}  // namespace

int main(int argc, char** argv) {
  try {
    // Every flag the bench knows is read here, before any mode runs, so
    // whatever is left unread is unknown and rejected.
    const util::Flags flags(argc, argv);
    ScenarioParams params;
    params.peers = static_cast<std::size_t>(flags.get_int("peers", 1000));
    const auto dims = static_cast<std::size_t>(flags.get_int("dims", 3));
    params.group_count = static_cast<std::size_t>(flags.get_int("groups", 32));
    params.subscribers = static_cast<std::size_t>(flags.get_int("subscribers", 32));
    params.publishes = static_cast<std::size_t>(flags.get_int("publishes", 8));
    params.departures = static_cast<std::size_t>(flags.get_int("departures", 24));
    params.ack_timeout = flags.get_double("ack-timeout", 0.05);
    params.max_retries = static_cast<std::size_t>(flags.get_int("retries", 5));
    params.retention_window = static_cast<std::size_t>(flags.get_int("retention", 64));
    params.batch_window = flags.get_double("batch-window", 0.0);
    params.max_batch = static_cast<std::size_t>(flags.get_int("max-batch", 16));
    params.pub_burst = static_cast<std::size_t>(flags.get_int("pub-burst", 1));
    params.seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
    params.publisher_batch_window = flags.get_double("publisher-batch-window", 0.0);
    const double loss = flags.get_double("loss", 0.0);
    const std::int64_t qos_level = flags.get_int("qos", 0);
    if (qos_level < 0 || qos_level > 2)
      throw std::invalid_argument("--qos must be 0, 1 or 2");
    const auto qos = static_cast<multicast::QoS>(qos_level);
    const bool csv = flags.get_bool("csv", false);
    const bool quick = flags.get_bool("quick", false);
    const bool sweep = flags.get_bool("sweep", false);
    const bool batch_compare = flags.get_bool("batch-compare", false);
    const bool graft_cost = flags.get_bool("graft-cost", false);
    const bool latency = flags.get_bool("latency", false);
    const bool root_kill = flags.get_bool("root-kill", false);
    const bool simcore = flags.get_bool("simcore", false);
    const bool hot_group = flags.get_bool("hot-group", false);
    const std::string json_path = flags.get_string("json", "");
    const std::string trace_path = flags.get_string("trace", "");
    const std::string snapshot_path = flags.get_string("snapshot", "");
    const double snapshot_interval = flags.get_double("snapshot-interval", 0.5);
    const auto replica_list = flags.get_int_list("replicas", {1, 2, 4});
    const auto simcore_peers =
        static_cast<std::size_t>(flags.get_int("simcore-peers", 100000));
    const auto simcore_k = static_cast<std::size_t>(flags.get_int("simcore-k", 16));
    // Sweep mode gates on subtree repair, so its departures are mid-wave
    // forwarder kills; random churn (which removes subscribers outright)
    // stays a non-sweep knob.
    params.midwave = static_cast<std::size_t>(flags.get_int("midwave", sweep ? 4 : 0));
    flags.reject_unused();

    if (sweep) params.departures = 0;
    if (quick) {
      params.peers = 200;
      params.group_count = 8;
      params.departures = sweep ? 0 : 6;
      if (batch_compare) params.publishes = std::max<std::size_t>(params.publishes, 16);
      // One kill: at 200 peers a severed subtree is a big enough slice of
      // the traffic that two would push QoS 1 below the >= 0.99 per-hop
      // gate for reasons that have nothing to do with link loss.
      if (sweep && !flags.has("midwave")) params.midwave = 1;
      // Root-kill selection needs an unsubscribed non-leaf child of every
      // root; at 200 peers the default 32-per-group membership blankets
      // the roots' neighborhoods and starves the victim pool.
      if (root_kill && !flags.has("subscribers"))
        params.subscribers = std::min<std::size_t>(params.subscribers, 12);
    }

    // Sim-core throughput: defaults mirror the gate cell (1000 peers,
    // QoS 1, 0.1s batching, bursts of 8) unless overridden;
    // --simcore-peers sizes the grid-kNN sweep cell (0 skips it).
    if (simcore) {
      if (!flags.has("subscribers")) params.subscribers = 64;
      if (!flags.has("publishes")) params.publishes = 64;
      if (!flags.has("batch-window")) params.batch_window = 0.1;
      if (!flags.has("pub-burst")) params.pub_burst = 8;
    } else if (hot_group) {
      // Hot group (ISSUE 10): one group, all eligible peers subscribed,
      // burst publishes, swept over the --replicas axis at every QoS rung.
      // Defaults make the workload the regime replica sharding exists for:
      // bursts of 8 coalesced at both ends (root batching + publisher
      // batching).
      if (!flags.has("publishes")) params.publishes = 64;
      if (!flags.has("pub-burst")) params.pub_burst = 8;
      if (!flags.has("batch-window")) params.batch_window = 0.05;
      if (!flags.has("publisher-batch-window")) params.publisher_batch_window = 0.02;
    }

    // The workload checks, in one place: after the mode's defaults, before
    // any overlay is built. Each group's warm publish is one of
    // --publishes; the hot group subscribes every eligible peer instead of
    // --subscribers; the graft-cost workload grafts the late half of each
    // membership. --simcore wins over --hot-group, which wins over the rest.
    if (params.publishes == 0) throw std::invalid_argument("--publishes must be >= 1");
    if (!hot_group || simcore) {
      if (params.subscribers == 0) throw std::invalid_argument("--subscribers must be >= 1");
      if (graft_cost && !simcore && params.subscribers < 2)
        throw std::invalid_argument("--graft-cost needs --subscribers >= 2");
    }
    std::vector<std::size_t> axis;
    for (const std::int64_t r : replica_list) {
      if (r < 1) throw std::invalid_argument("--replicas entries must be >= 1");
      axis.push_back(static_cast<std::size_t>(r));
    }

    if (simcore)
      return run_simcore(params, dims, flags.has("qos") ? qos : multicast::QoS::kAcked, loss,
                         csv, json_path, simcore_peers, simcore_k);
    if (hot_group) return run_hot_group(params, dims, csv, json_path, std::move(axis));
    if (graft_cost) return run_graft_cost(params, dims, csv, json_path);
    if (latency) return run_latency(params, dims, csv, json_path);
    if (root_kill) return run_root_kill(params, dims, csv, json_path);
    if (batch_compare) return run_batch_compare(params, dims, csv, json_path);
    if (sweep) return run_sweep(params, dims, csv);
    return run_single(params, dims, qos, loss, csv, json_path, trace_path, snapshot_path,
                      snapshot_interval);
  } catch (const std::exception& error) {
    std::cerr << "pubsub_throughput: " << error.what() << '\n';
    return 1;
  }
}
