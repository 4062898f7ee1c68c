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
// Mid-wave departure injection (--midwave=K): after the churn phase, K
// dedicated waves publish (round-robin over the groups, from each group's
// root so the wave start is exact) and the forwarding relay with the most
// subscriber descendants is departed just before that wave reaches it —
// the severed-subtree failure QoS 2 exists to repair; two flush waves per
// kill give the subtrees the later traffic gap detection needs.
//
// Acceptance gates:
//  * (ISSUE 1) with >= 32 groups and >= 1000 peers under churn at zero
//    loss, delivery ratio >= 0.99 and pruned per-publish payload strictly
//    below full-overlay dissemination;
//  * (ISSUE 2, --sweep) under 5% per-link loss, QoS 1 delivery ratio
//    >= 0.99 while QoS 0 is visibly lower;
//  * (ISSUE 3, --sweep) with mid-wave forwarder departures at 5% loss,
//    QoS 2 delivery ratio >= 0.9999 while QoS 1 drops below it, and the
//    retained-buffer peak stays within the configured retention window.
//
// Flags: --peers=N --dims=D --groups=G --subscribers=M --publishes=P
//        --departures=C --midwave=K --loss=p --qos=0|1|2 --retries=R
//        --ack-timeout=T --retention=W --seed=S --csv --quick --sweep
//        --batch-window=W --max-batch=B --pub-burst=K --json=FILE
//        --batch-compare --graft-cost --latency --root-kill
//        --trace=FILE --snapshot=FILE --snapshot-interval=T
//        --hot-group --replicas=1,2,4 --publisher-batch-window=W
//
// Hot group (replica-sharded roots PR): --hot-group prices the single-hot-
// group regime — ONE group, every eligible peer subscribed, burst
// publishes — swept over the PubSubConfig::root_replicas axis
// (--replicas, default {1, 2, 4}) at every QoS rung, with root-side AND
// publisher-side batching on by default (the stack the hot-root load
// multiplies through). R=1 is the reference cell: gates are identical
// delivered (peer, group, seq) sets per qos, hot-root
// (sent + received) load max flattening monotonically along the axis, and
// a >= 1.8x drop at the axis maximum (QoS 1 cells). BENCH_hotgroup.json
// is the checked-in full-size run.
//
// Observability (ISSUE 6): --trace=FILE writes the single-scenario run's
// wave-lifecycle trace as Chrome trace-event JSON (open in Perfetto /
// chrome://tracing); --snapshot=FILE attaches the periodic obs::Sampler
// and writes its time series (deliveries/sec, in-flight grafts, retained
// seqs, event-queue depth, per-peer load). Every mode's --json now carries
// the publish->delivery / gap-repair / graft latency histograms and the
// full NetworkStats block (sent_by_kind named through the message-kind
// registry, per-peer send/receive hot-peer summaries).
//
// Latency pinning (--latency): 3 pinned seeds x QoS {0,1,2} x loss
// {0, 0.05} on per-seed overlays, churn off so the distribution is a pure
// function of the (qos, loss) cell. Gates are structural — p50 <= p90 <=
// p99 <= max, histogram count == deliveries, per-peer load max >= p99 —
// and the full-size run is checked in as BENCH_latency.json.
//
// Graft cost (ISSUE 5): --graft-cost prices the distributed control plane
// on a graft-heavy workload (half the members subscribe AFTER the warm
// publish, so every one of them is a zone-descent graft against the clean
// cached tree). Per pinned seed it runs the local-descent oracle and the
// routed descent at zero loss — gating on bit-identical delivered
// (peer, group, seq) sets and tree edge sets — plus a routed cell at 5%
// loss with mid-graft kills, gating on every surviving registered member
// ending up spanned (graft_aborts each resolved by abort-and-resubscribe
// plus rebuild+rescue). The table reports control_envelopes, graft hops,
// mean hops per graft, retries, and aborts; --json pins it machine-
// readable (BENCH_graft_cost.json is the checked-in full-size run).
//
// Root failover (warm failover PR): --root-kill prices root death at
// QoS 2 with batching on. Per pinned seed (three of them, each with its
// own overlay) it runs the root-kill workload — warm-up waves, a killed
// wave whose best relay is severed mid-flight and whose root dies right
// after the flush holding a pending batch, then post-kill traffic that
// reveals the severed subtree's gap — once with cold rebuild and once
// with warm failover, plus a no-kill control pair. Gates: the cold cell
// shows the dip (abandoned gap seqs, delivery_ratio < 1, pending batch
// lost), the warm cell erases it (ratio == 1.0, zero abandons, pending
// batch inherited, migration envelopes > 0 pricing the handoff), warm
// resumes deliveries strictly faster after the kill, and the no-kill
// pair delivers bit-identical sets (the knob is passive without deaths).
// BENCH_failover.json is the checked-in full-size run.
//
// --sweep ignores --loss/--qos and instead runs the same scenario for
// QoS 0, 1 and 2 at each loss in {0, 0.05, 0.15}, printing one row per
// (loss, qos) cell — the loss axis of the reliability story. In sweep
// mode the random churn departures are replaced by mid-wave forwarder
// kills (--midwave, default 4): random churn removes subscribers, whose
// in-flight waves no QoS level can deliver, which would drown the
// subtree-repair signal the sweep gates on.
//
// Wave coalescing (ISSUE 4): --batch-window/--max-batch switch on root-
// side publish batching, --pub-burst=K turns the publish schedule into
// back-to-back bursts of K from one publisher (the workload batching
// amortises), and --batch-compare runs the burst workload at every QoS
// rung both unbatched and batched, gating on (a) the delivered
// (peer, group, seq) set being bit-identical and (b) payload+ack
// envelopes shrinking >= 3x at QoS 1. --json=FILE emits the run's
// numbers machine-readable (the perf-trajectory artifact CI uploads).
#include <algorithm>
#include <array>
#include <chrono>
#include <fstream>
#include <iostream>
#include <optional>
#include <set>
#include <sstream>
#include <thread>
#include <tuple>
#include <vector>

#include "geometry/distance.hpp"
#include "geometry/random_points.hpp"
#include "groups/failure_injection.hpp"
#include "groups/pubsub.hpp"
#include "obs/snapshot.hpp"
#include "obs/trace.hpp"
#include "overlay/empty_rect.hpp"
#include "overlay/equilibrium.hpp"
#include "overlay/grid_knn.hpp"
#include "util/flags.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace geomcast;

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
  /// Simulator-core fast path (timer wheel + interval dedup); false runs
  /// the historic heap/set oracle. Only --simcore mode flips this.
  bool sim_core = true;
  /// Membership drawn from each root's neighbourhood instead of uniformly.
  /// Corridor-greedy control routing is only guaranteed on the
  /// full-knowledge empty-rect equilibrium; on a grid-kNN local-knowledge
  /// overlay a distant target strands, so the 100k sweep cell keeps its
  /// control traffic inside each root's neighbourhood (tree dissemination
  /// is direct sends and is unaffected).
  bool local_members = false;
  std::uint64_t seed = 42;
};

/// One application-level delivery, the unit the batching-equivalence gate
/// compares: batched and unbatched runs must deliver the identical set.
using DeliveryKey = std::tuple<overlay::PeerId, groups::GroupId, std::uint64_t>;

struct ScenarioOutcome {
  groups::GroupStats total;
  sim::NetworkStats net;
  std::size_t events = 0;
  std::size_t scheduled_departures = 0;
  std::size_t midwave_kills = 0;      // kills that found a relay to sever
  std::size_t severed_subscribers = 0;  // subscriber descendants cut off
  std::size_t retained_peak = 0;
  std::size_t retained_entries = 0;   // entries left across all buffers
  std::size_t retained_buffers = 0;   // live (peer, group) buffers
  double run_secs = 0.0;

  [[nodiscard]] double payload_per_publish() const {
    return total.publishes ? static_cast<double>(total.payload_messages) /
                                 static_cast<double>(total.publishes)
                           : 0.0;
  }
  [[nodiscard]] double retx_per_publish() const {
    return total.publishes ? static_cast<double>(total.retransmissions) /
                                 static_cast<double>(total.publishes)
                           : 0.0;
  }
};

/// One full run of the standard workload on a prebuilt overlay. The
/// schedule (membership, publishes, departures) is a function of
/// params.seed alone, so runs at different (qos, loss) points are
/// apples-to-apples.
ScenarioOutcome run_scenario(const overlay::OverlayGraph& graph,
                             const ScenarioParams& params, multicast::QoS qos,
                             double loss,
                             std::set<DeliveryKey>* delivered_out = nullptr,
                             obs::TraceSink* trace_sink = nullptr,
                             std::string* snapshot_json = nullptr,
                             double snapshot_interval = 0.5) {
  const std::size_t peers = graph.size();
  groups::PubSubConfig config;
  config.seed = params.seed;
  config.loss.drop_probability = loss;
  config.reliability.qos = qos;
  config.reliability.ack_timeout = params.ack_timeout;
  config.reliability.max_retries = params.max_retries;
  config.groups.retention_window = params.retention_window;
  config.batch_window = params.batch_window;
  config.max_batch = params.max_batch;
  config.root_replicas = params.root_replicas;
  config.publisher_batch_window = params.publisher_batch_window;
  config.sim_core = params.sim_core;
  groups::PubSubSystem system(graph, config);
  if (trace_sink != nullptr) system.set_trace_sink(trace_sink);
  // The sampler's ticks are simulator events, so a sampled run's
  // sim_events count differs from an unsampled one — attach only on
  // request; the stats themselves are unaffected.
  std::optional<obs::Sampler> sampler;
  if (snapshot_json != nullptr) {
    sampler.emplace(system, snapshot_interval);
    sampler->start();
  }
  if (delivered_out != nullptr)
    system.set_delivery_probe([delivered_out](overlay::PeerId peer, groups::GroupId group,
                                              std::uint64_t seq, double) {
      delivered_out->emplace(peer, group, seq);
    });

  // Roots are excluded from membership and churn so the bench measures
  // steady-state group service, not rendezvous migration (which has its
  // own counter).
  std::vector<bool> is_root(peers, false);
  for (std::size_t g = 0; g < params.group_count; ++g)
    is_root[system.manager().root_of(g)] = true;
  std::size_t non_roots = 0;
  for (std::size_t p = 0; p < peers; ++p)
    if (!is_root[p]) ++non_roots;
  if (params.subscribers == 0) throw std::invalid_argument("--subscribers must be >= 1");
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
    for (std::size_t g = 0; g < params.group_count; ++g) {
      std::vector<bool> chosen(peers, false);
      while (members[g].size() < params.subscribers) {
        const auto p = static_cast<overlay::PeerId>(rng.next_below(peers));
        if (chosen[p] || is_root[p]) continue;
        chosen[p] = true;
        members[g].push_back(p);
        system.subscribe_at(rng.uniform(0.0, 1.0), p, g);
      }
    }
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
  ScenarioOutcome outcome;
  {
    std::vector<bool> doomed(peers, false);
    while (outcome.scheduled_departures < departures) {
      const auto p = static_cast<overlay::PeerId>(rng.next_below(peers));
      if (doomed[p] || is_root[p]) continue;
      doomed[p] = true;
      system.depart_at(rng.uniform(3.0, 9.0), p);
      ++outcome.scheduled_departures;
    }
  }

  // Mid-wave forwarder kills (groups/failure_injection.hpp): dedicated
  // waves after the churn phase, one group per kill round-robin, each
  // severing the wave's best relay just before the wave reaches it. Kill
  // and flush waves publish from the group's root so the wave start time
  // is exact and the flushes cannot strand in greedy control routing
  // around the fresh departure.
  std::vector<bool> member_anywhere(peers, false);
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

  const auto t_run = std::chrono::steady_clock::now();
  outcome.events = system.run();
  outcome.run_secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t_run).count();
  outcome.total = system.total_stats();
  outcome.net = system.simulator().stats();
  outcome.retained_peak = system.manager().retained_peak();
  outcome.retained_entries = system.manager().retained_entry_total();
  outcome.retained_buffers = system.manager().retained_buffer_count();
  if (snapshot_json != nullptr) *snapshot_json = sampler->to_json();
  // Pool reset between cells: return the payload pool's cached blocks
  // before the next cell's system constructs, so one cell's high-water
  // mark never sits resident while another cell measures.
  system.release_pools();
  return outcome;
}

int run_sweep(const overlay::OverlayGraph& graph, const ScenarioParams& params,
              bool csv, double overlay_secs) {
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
      const auto r = run_scenario(graph, params, qos, loss);
      const double ratio = r.total.delivery_ratio();
      table.begin_row()
          .add_number(loss, 2)
          .add_number(static_cast<double>(qos), 0)
          .add_number(static_cast<double>(r.midwave_kills), 0)
          .add_number(static_cast<double>(r.severed_subscribers), 0)
          .add_number(static_cast<double>(r.total.publishes), 0)
          .add_number(ratio, 5)
          .add_number(r.retx_per_publish(), 2)
          .add_number(static_cast<double>(r.total.duplicate_deliveries), 0)
          .add_number(static_cast<double>(r.total.abandoned_hops), 0)
          .add_number(r.payload_per_publish(), 2)
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
      if (qos == multicast::QoS::kAcked && loss <= 0.05 && ratio < 0.99)
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
        if (qos == multicast::QoS::kFireAndForget) qos0_at_5 = ratio;
        if (qos == multicast::QoS::kAcked) qos1_at_5 = ratio;
        if (qos == multicast::QoS::kEndToEnd) qos2_at_5 = ratio;
      }
    }
  }
  // ISSUE 2 acceptance: at 5% per-link loss QoS 1 holds >= 0.99 while
  // QoS 0 is visibly lower. ISSUE 3 acceptance: with mid-wave forwarder
  // departures QoS 2 holds >= 0.9999 at 5% loss while QoS 1 — blind to a
  // severed subtree — drops below it, and retention stays bounded.
  const bool gap_ok = qos1_at_5 >= 0.99 && qos0_at_5 < qos1_at_5 - 0.01;
  const bool qos2_ok = qos2_at_5 >= 0.9999 && qos1_at_5 < 0.9999;
  const bool all_ok = qos1_ok && gap_ok && qos2_ok && retention_ok;
  if (csv) {
    table.print_csv(std::cout);
    if (!all_ok)
      std::cerr << "pubsub_throughput: sweep acceptance gate failed (qos1_ok="
                << qos1_ok << ", gap_ok=" << gap_ok << ", qos2_ok=" << qos2_ok
                << ", retention_ok=" << retention_ok << ")\n";
  } else {
    std::cout << "=== pub/sub QoS x loss sweep: " << params.group_count << " groups x "
              << params.subscribers << " subscribers on " << graph.size() << " peers, "
              << params.midwave
              << " mid-wave forwarder kill rounds (per-cell kills/severed in the"
                 " table), seed=" << params.seed << " (overlay built in "
              << util::format_number(overlay_secs, 2) << "s) ===\n\n";
    table.print(std::cout);
    std::cout << "\nacceptance: QoS 1 delivery_ratio >= 0.99 at loss points <= 5%: "
              << (qos1_ok ? "PASS" : "FAIL")
              << "\nacceptance: at 5% loss QoS 0 visibly below QoS 1: "
              << (gap_ok ? "PASS" : "FAIL")
              << "\nacceptance: at 5% loss with mid-wave kills QoS 2 >= 0.9999, QoS 1 below: "
              << (qos2_ok ? "PASS" : "FAIL")
              << "\nacceptance: retained-buffer peak <= retention window ("
              << params.retention_window << "): " << (retention_ok ? "PASS" : "FAIL")
              << "\n";
  }
  return all_ok ? 0 : 2;
}

// ---------------------------------------------------------------- JSON ----

/// One scenario cell as a JSON object — the machine-readable slice the
/// perf trajectory (BENCH_pubsub.json) and CI artifacts are built from.
/// Hand-rolled: every value is a number or bool, so no escaping needed.
std::string scenario_json(const ScenarioParams& params, multicast::QoS qos,
                          double loss, const ScenarioOutcome& r) {
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

// -------------------------------------------------------- batch compare ----

/// The ISSUE 4 acceptance harness: the burst workload at every QoS rung,
/// unbatched vs. batched, gating on bit-identical delivered
/// (peer, group, seq) sets and a >= 3x payload+ack envelope reduction at
/// QoS 1. Churn/kills are off — equivalence is defined on stable
/// membership (a wave in flight to a departing subscriber dies at a
/// slightly different instant under the two pipelines, which is timing,
/// not correctness; the lossy/churny equivalence story lives in
/// tests/groups_batching_test.cpp where a QoS guarantee pins the set).
int run_batch_compare(const overlay::OverlayGraph& graph, ScenarioParams params,
                      bool csv, const std::string& json_path, double overlay_secs) {
  params.departures = 0;
  params.midwave = 0;
  if (params.pub_burst <= 1) params.pub_burst = 8;
  if (params.batch_window <= 0.0) params.batch_window = 0.1;
  util::Table table({"qos", "batched", "publishes", "delivery_ratio", "payload_msgs",
                     "ack_msgs", "payload+ack", "nacks", "retx", "waves", "occupancy",
                     "envelopes_saved", "identical_set", "run_secs"});
  std::ostringstream cells;
  bool all_identical = true;
  double reduction_qos1 = 0.0;
  for (const auto qos : {multicast::QoS::kFireAndForget, multicast::QoS::kAcked,
                         multicast::QoS::kEndToEnd}) {
    ScenarioParams unbatched = params;
    unbatched.batch_window = 0.0;
    std::set<DeliveryKey> set_unbatched, set_batched;
    const auto base = run_scenario(graph, unbatched, qos, 0.0, &set_unbatched);
    const auto coalesced = run_scenario(graph, params, qos, 0.0, &set_batched);
    const bool identical = set_unbatched == set_batched &&
                           base.total.deliveries == set_unbatched.size() &&
                           coalesced.total.deliveries == set_batched.size();
    all_identical = all_identical && identical;
    const auto envelopes = [](const ScenarioOutcome& r) {
      return r.total.payload_messages + r.total.ack_messages;
    };
    if (qos == multicast::QoS::kAcked && envelopes(coalesced) > 0)
      reduction_qos1 = static_cast<double>(envelopes(base)) /
                       static_cast<double>(envelopes(coalesced));
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
      if (cells.tellp() > 0) cells << ",";
      cells << "\n    "
            << scenario_json(batched ? params : unbatched, qos, 0.0, *r);
    }
  }
  const bool reduction_ok = reduction_qos1 >= 3.0;
  const bool all_ok = all_identical && reduction_ok;
  std::ostringstream json;
  json.precision(10);
  json << "{\n  \"bench\": \"pubsub_throughput\",\n  \"mode\": \"batch_compare\",\n"
       << "  \"params\": " << params_json(params) << ",\n  \"cells\": [" << cells.str()
       << "\n  ],\n  \"delivered_sets_identical\": " << (all_identical ? "true" : "false")
       << ",\n  \"payload_ack_reduction_qos1\": " << reduction_qos1
       << ",\n  \"gate_identical\": " << (all_identical ? "true" : "false")
       << ",\n  \"gate_reduction_ge_3x\": " << (reduction_ok ? "true" : "false") << "\n}";
  if (!json_path.empty()) write_json_file(json_path, json.str());
  if (csv) {
    table.print_csv(std::cout);
    if (!all_ok)
      std::cerr << "pubsub_throughput: batch-compare gate failed (identical="
                << all_identical << ", reduction=" << reduction_qos1 << ")\n";
  } else {
    std::cout << "=== batch compare: bursts of " << params.pub_burst << " over "
              << params.group_count << " groups x " << params.subscribers
              << " subscribers on " << graph.size() << " peers, batch_window="
              << params.batch_window << ", max_batch=" << params.max_batch
              << ", seed=" << params.seed << " (overlay built in "
              << util::format_number(overlay_secs, 2) << "s) ===\n\n";
    table.print(std::cout);
    std::cout << "\nacceptance: delivered (peer, group, seq) sets bit-identical at"
                 " QoS 0/1/2: "
              << (all_identical ? "PASS" : "FAIL")
              << "\nacceptance: payload+ack envelopes reduced >= 3x at QoS 1: "
              << (reduction_ok ? "PASS" : "FAIL") << " ("
              << util::format_number(reduction_qos1, 2) << "x)\n";
  }
  return all_ok ? 0 : 2;
}

// ------------------------------------------------------------ graft cost ----

/// One (mode, loss, kills) cell of the graft-cost compare.
struct GraftCell {
  groups::GroupStats total;
  sim::NetworkStats net;
  std::set<DeliveryKey> delivered;
  /// Sorted (parent, child) edge set per group — the bit-identical gate's
  /// subject. Collected from the post-run cached trees (zero-loss cells
  /// end with every cache clean in both modes).
  std::vector<std::vector<std::pair<overlay::PeerId, overlay::PeerId>>> trees;
  bool attached_ok = true;  // every surviving registered member spanned
  std::size_t inflight = 0;
  double run_secs = 0.0;

  [[nodiscard]] double hops_per_graft() const {
    return total.grafts ? static_cast<double>(total.graft_hops) /
                              static_cast<double>(total.grafts)
                        : 0.0;
  }
};

/// The graft-heavy workload: the late half of every group's membership
/// subscribes AFTER the warm publish built the tree, so each one exercises
/// the zone descent; `kills` mid-graft departures land inside the late-
/// subscribe window. Deterministic per (params.seed, routed, loss, kills).
GraftCell run_graft_scenario(const overlay::OverlayGraph& graph,
                             const ScenarioParams& params, bool routed, double loss,
                             std::size_t kills) {
  groups::PubSubConfig config;
  config.seed = params.seed;
  config.routed_graft = routed;
  config.loss.drop_probability = loss;
  config.reliability.qos = multicast::QoS::kAcked;
  config.reliability.ack_timeout = params.ack_timeout;
  config.reliability.max_retries = params.max_retries;
  groups::PubSubSystem system(graph, config);
  GraftCell cell;
  system.set_delivery_probe([&cell](overlay::PeerId peer, groups::GroupId group,
                                    std::uint64_t seq, double) {
    cell.delivered.emplace(peer, group, seq);
  });

  const std::size_t peers = graph.size();
  std::vector<bool> is_root(peers, false);
  for (std::size_t g = 0; g < params.group_count; ++g)
    is_root[system.manager().root_of(g)] = true;

  util::Rng rng(params.seed ^ 0x67726166747363ULL);  // graft-schedule stream
  std::vector<std::vector<overlay::PeerId>> members(params.group_count);
  for (std::size_t g = 0; g < params.group_count; ++g) {
    std::vector<bool> chosen(peers, false);
    while (members[g].size() < params.subscribers) {
      const auto p = static_cast<overlay::PeerId>(rng.next_below(peers));
      if (chosen[p] || is_root[p]) continue;
      chosen[p] = true;
      const std::size_t i = members[g].size();
      members[g].push_back(p);
      // Early half before the warm publish (the lazy build spans them);
      // late half in (3, 5) — every one a graft against the cached tree.
      system.subscribe_at(i < params.subscribers / 2 ? rng.uniform(0.0, 1.0)
                                                     : rng.uniform(3.0, 5.0),
                          p, g);
    }
    system.publish_at(2.0, members[g][0], g);  // warm: pays the build
    for (std::size_t i = 1; i < params.publishes; ++i)
      system.publish_at(rng.uniform(6.0, 9.0),
                        members[g][rng.next_below(params.subscribers / 2)], g);
  }
  {
    std::vector<bool> doomed(peers, false);
    std::size_t scheduled = 0;
    while (scheduled < kills) {
      const auto p = static_cast<overlay::PeerId>(rng.next_below(peers));
      if (doomed[p] || is_root[p]) continue;
      doomed[p] = true;
      system.depart_at(rng.uniform(3.2, 4.8), p);  // inside the graft window
      ++scheduled;
    }
  }

  const auto t_run = std::chrono::steady_clock::now();
  system.run();
  cell.run_secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t_run).count();
  cell.total = system.total_stats();
  cell.net = system.simulator().stats();
  cell.inflight = system.manager().inflight_graft_count();
  for (std::size_t g = 0; g < params.group_count; ++g) {
    std::vector<std::pair<overlay::PeerId, overlay::PeerId>> edges;
    if (const groups::GroupTree* gt = system.manager().cached_tree(g)) {
      for (overlay::PeerId p = 0; p < peers; ++p)
        if (p != gt->tree.root() && gt->tree.reached(p))
          edges.emplace_back(gt->tree.parent(p), p);
      std::sort(edges.begin(), edges.end());
    }
    cell.trees.push_back(std::move(edges));
  }
  // The attach gate reads REFRESHED trees (an abort defers the subscriber
  // to the next rebuild; tree() performs it) — run after the stats grab so
  // the refresh's builds don't pollute the cell's numbers.
  for (std::size_t g = 0; g < params.group_count; ++g) {
    const groups::GroupTree* gt = system.manager().tree(g);
    if (gt == nullptr) continue;
    for (overlay::PeerId p = 0; p < peers; ++p)
      if (system.manager().alive(p) && system.manager().is_subscribed(g, p) &&
          !(gt->is_subscriber[p] && gt->tree.reached(p)))
        cell.attached_ok = false;
  }
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
    << ",\"hops_per_graft\":" << cell.hops_per_graft()
    << ",\"graft_retries\":" << cell.total.graft_retries
    << ",\"graft_aborts\":" << cell.total.graft_aborts
    << ",\"graft_resubscribes\":" << cell.total.graft_resubscribes
    << ",\"stranded_rescues\":" << cell.total.stranded_rescues
    << ",\"control_envelopes\":" << cell.net.control_envelopes
    << ",\"net_graft_hops\":" << cell.net.graft_hops
    << ",\"delivery_ratio\":" << cell.total.delivery_ratio()
    << ",\"identical_to_local\":" << (identical_ok ? "true" : "false")
    << ",\"attached_ok\":" << (cell.attached_ok ? "true" : "false")
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
/// visible in NetworkStats — plus a routed churn cell (5% loss, mid-graft
/// kills) that must leave every surviving registered member attached.
int run_graft_cost(ScenarioParams params, std::size_t dims, bool csv,
                   const std::string& json_path) {
  util::Table table({"seed", "mode", "loss", "kills", "subscribes", "grafts",
                     "graft_msgs", "graft_hops", "hops_per_graft", "retries",
                     "aborts", "resubs", "rescues", "control_env",
                     "delivery_ratio", "identical", "attached", "run_secs"});
  bool identical_ok = true, visible_ok = true, attached_ok = true, leak_ok = true;
  std::ostringstream seeds_json;
  const std::size_t churn_kills = std::max<std::size_t>(params.departures / 4, 2);
  for (std::uint64_t seed = params.seed; seed < params.seed + 3; ++seed) {
    ScenarioParams cell_params = params;
    cell_params.seed = seed;
    util::Rng rng(seed);
    const auto points = geometry::random_points(rng, params.peers, dims, 100.0);
    const auto graph = overlay::build_equilibrium(points, overlay::EmptyRectSelector{});

    const auto local = run_graft_scenario(graph, cell_params, /*routed=*/false, 0.0, 0);
    const auto routed = run_graft_scenario(graph, cell_params, /*routed=*/true, 0.0, 0);
    const auto churn =
        run_graft_scenario(graph, cell_params, /*routed=*/true, 0.05, churn_kills);

    const bool cell_identical =
        routed.delivered == local.delivered && routed.trees == local.trees &&
        routed.total.grafts == local.total.grafts &&
        routed.total.graft_messages == local.total.graft_messages;
    identical_ok = identical_ok && cell_identical && local.total.grafts > 0;
    visible_ok = visible_ok && routed.total.graft_hops > 0 &&
                 routed.net.control_envelopes > 0 &&
                 routed.net.graft_hops == routed.total.graft_hops &&
                 churn.net.control_envelopes > 0;
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
          .add_number(row.cell->hops_per_graft(), 2)
          .add_number(static_cast<double>(row.cell->total.graft_retries), 0)
          .add_number(static_cast<double>(row.cell->total.graft_aborts), 0)
          .add_number(static_cast<double>(row.cell->total.graft_resubscribes), 0)
          .add_number(static_cast<double>(row.cell->total.stranded_rescues), 0)
          .add_number(static_cast<double>(row.cell->net.control_envelopes), 0)
          .add_number(row.cell->total.delivery_ratio(), 5)
          .add_number(row.identical ? 1 : 0, 0)
          .add_number(row.cell->attached_ok ? 1 : 0, 0)
          .add_number(row.cell->run_secs, 3);
    }
    if (seeds_json.tellp() > 0) seeds_json << ",";
    seeds_json << "\n    {\"seed\":" << seed << ",\"cells\":["
               << "\n      " << graft_cell_json("local", 0.0, 0, local, true) << ","
               << "\n      " << graft_cell_json("routed", 0.0, 0, routed, cell_identical)
               << ","
               << "\n      "
               << graft_cell_json("routed+churn", 0.05, churn_kills, churn, false)
               << "\n    ]}";
  }
  const bool all_ok = identical_ok && visible_ok && attached_ok && leak_ok;
  if (!json_path.empty()) {
    std::ostringstream json;
    json << "{\n  \"bench\": \"pubsub_throughput\",\n  \"mode\": \"graft_cost\",\n"
         << "  \"params\": " << params_json(params) << ",\n  \"seeds\": ["
         << seeds_json.str() << "\n  ],\n  \"gate_identical\": "
         << (identical_ok ? "true" : "false")
         << ",\n  \"gate_cost_visible\": " << (visible_ok ? "true" : "false")
         << ",\n  \"gate_all_attached\": " << (attached_ok ? "true" : "false")
         << ",\n  \"gate_no_leaked_cursors\": " << (leak_ok ? "true" : "false")
         << "\n}";
    write_json_file(json_path, json.str());
  }
  if (csv) {
    table.print_csv(std::cout);
    if (!all_ok)
      std::cerr << "pubsub_throughput: graft-cost gate failed (identical="
                << identical_ok << ", visible=" << visible_ok << ", attached="
                << attached_ok << ", leaks=" << !leak_ok << ")\n";
  } else {
    std::cout << "=== graft cost: routed vs local descent, " << params.group_count
              << " groups x " << params.subscribers << " subscribers on "
              << params.peers << " peers, late half grafted, seeds "
              << params.seed << ".." << params.seed + 2 << " ===\n\n";
    table.print(std::cout);
    std::cout << "\nacceptance: routed graft bit-identical to local oracle at zero"
                 " loss (trees + delivered sets): "
              << (identical_ok ? "PASS" : "FAIL")
              << "\nacceptance: graft cost visible in NetworkStats"
                 " (control_envelopes, graft_hops): "
              << (visible_ok ? "PASS" : "FAIL")
              << "\nacceptance: all surviving subscribers attached under 5% loss"
                 " + mid-graft kills: "
              << (attached_ok ? "PASS" : "FAIL")
              << "\nacceptance: no leaked in-flight graft cursors: "
              << (leak_ok ? "PASS" : "FAIL") << "\n";
  }
  return all_ok ? 0 : 2;
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
  std::ostringstream cells;
  for (std::uint64_t seed = params.seed; seed < params.seed + 3; ++seed) {
    ScenarioParams cell_params = params;
    cell_params.seed = seed;
    util::Rng rng(seed);
    const auto points = geometry::random_points(rng, params.peers, dims, 100.0);
    const auto graph = overlay::build_equilibrium(points, overlay::EmptyRectSelector{});
    for (const double loss : loss_axis) {
      for (const auto qos : {multicast::QoS::kFireAndForget, multicast::QoS::kAcked,
                             multicast::QoS::kEndToEnd}) {
        const auto r = run_scenario(graph, cell_params, qos, loss);
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
        if (cells.tellp() > 0) cells << ",";
        cells << "\n    {\"seed\":" << seed << ","
              << scenario_json(cell_params, qos, loss, r).substr(1);
      }
    }
  }
  const bool all_ok = shape_ok && counts_ok && load_ok;
  if (!json_path.empty()) {
    std::ostringstream json;
    json << "{\n  \"bench\": \"pubsub_throughput\",\n  \"mode\": \"latency\",\n"
         << "  \"params\": " << params_json(params) << ",\n  \"cells\": ["
         << cells.str() << "\n  ],\n  \"gate_quantiles_ordered\": "
         << (shape_ok ? "true" : "false")
         << ",\n  \"gate_histogram_counts_deliveries\": "
         << (counts_ok ? "true" : "false")
         << ",\n  \"gate_load_summary_consistent\": " << (load_ok ? "true" : "false")
         << "\n}";
    write_json_file(json_path, json.str());
  }
  if (csv) {
    table.print_csv(std::cout);
    if (!all_ok)
      std::cerr << "pubsub_throughput: latency gate failed (shape=" << shape_ok
                << ", counts=" << counts_ok << ", load=" << load_ok << ")\n";
  } else {
    std::cout << "=== publish->delivery latency: " << params.group_count
              << " groups x " << params.subscribers << " subscribers on "
              << params.peers << " peers, QoS {0,1,2} x loss {0, 0.05}, seeds "
              << params.seed << ".." << params.seed + 2 << " (churn off) ===\n\n";
    table.print(std::cout);
    std::cout << "\nacceptance: p50 <= p90 <= p99 <= max in every cell: "
              << (shape_ok ? "PASS" : "FAIL")
              << "\nacceptance: histogram count == deliveries, p50 > 0: "
              << (counts_ok ? "PASS" : "FAIL")
              << "\nacceptance: per-peer load summaries consistent (max >= p99 > 0): "
              << (load_ok ? "PASS" : "FAIL") << "\n";
  }
  return all_ok ? 0 : 2;
}

// ------------------------------------------------------------- root kill ----

/// One cell of the failover compare: the root-kill workload with warm
/// failover on or off, or its no-kill control.
struct FailoverCell {
  groups::GroupStats total;
  sim::NetworkStats net;
  std::size_t kills = 0;    // groups whose kill found a relay to sever
  std::size_t severed = 0;  // subscriber descendants cut off by relays
  std::set<DeliveryKey> delivered;
  /// Mean secs from a group's root death to its first delivery of a seq
  /// NEWER than the killed wave (in-flight tail deliveries of the killed
  /// wave and repairs of it don't count as "resumed service").
  double first_post_kill = -1.0;
  double run_secs = 0.0;
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
FailoverCell run_failover_cell(const overlay::OverlayGraph& graph,
                               const ScenarioParams& params, bool warm_on,
                               bool kill_on) {
  groups::PubSubConfig config;
  config.seed = params.seed;
  config.reliability.qos = multicast::QoS::kEndToEnd;
  config.reliability.ack_timeout = params.ack_timeout;
  config.reliability.max_retries = params.max_retries;
  config.groups.retention_window = params.retention_window;
  config.batch_window = params.batch_window;
  config.max_batch = params.max_batch;
  config.warm_failover = warm_on;
  groups::PubSubSystem system(graph, config);
  FailoverCell cell;

  const std::size_t peers = graph.size();
  std::vector<bool> protected_peers(peers, false);
  for (std::size_t g = 0; g < params.group_count; ++g) {
    protected_peers[system.manager().root_of(g)] = true;
    const overlay::PeerId r = system.manager().replica_candidate(g);
    if (r != overlay::kInvalidPeer) protected_peers[r] = true;
  }

  // The killed wave is always seq 2 (two single-publish warm-up batches
  // precede it); deliveries of seq > 2 after the death mark resumed
  // service — warm via the inherited pending batch, cold only once the
  // post-kill publishes flow.
  constexpr std::uint64_t kKilledSeq = 2;
  std::vector<double> death_at(params.group_count, -1.0);
  std::vector<double> first_after(params.group_count, -1.0);
  system.set_delivery_probe(
      [&cell, &death_at, &first_after](overlay::PeerId p, groups::GroupId g,
                                       std::uint64_t seq, double t) {
        cell.delivered.emplace(p, g, seq);
        if (g < death_at.size() && death_at[g] >= 0.0 && seq > kKilledSeq &&
            t > death_at[g] && first_after[g] < 0.0)
          first_after[g] = t - death_at[g];
      });

  // Membership: M distinct unprotected subscribers per group, waves in
  // (0, 1). Replica candidates stay out of membership so a promotion
  // never turns a subscriber into its own group's root.
  util::Rng rng(params.seed ^ 0x6661696c6f766572ULL);  // failover stream
  std::vector<std::vector<overlay::PeerId>> members(params.group_count);
  for (std::size_t g = 0; g < params.group_count; ++g) {
    std::vector<bool> chosen(peers, false);
    while (members[g].size() < params.subscribers) {
      const auto p = static_cast<overlay::PeerId>(rng.next_below(peers));
      if (chosen[p] || protected_peers[p]) continue;
      chosen[p] = true;
      members[g].push_back(p);
      system.subscribe_at(rng.uniform(0.0, 1.0), p, g);
    }
  }
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

  const auto t_run = std::chrono::steady_clock::now();
  system.run();
  cell.run_secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t_run).count();
  cell.total = system.total_stats();
  cell.net = system.simulator().stats();
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
  o << "{\"cell\":\"" << name << "\",\"warm_failover\":" << (warm_on ? "true" : "false")
    << ",\"kill\":" << (kill_on ? "true" : "false") << ",\"kills\":" << r.kills
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
  std::ostringstream seeds_json;
  for (std::uint64_t seed = params.seed; seed < params.seed + 3; ++seed) {
    ScenarioParams cell_params = params;
    cell_params.seed = seed;
    util::Rng rng(seed);
    const auto points = geometry::random_points(rng, params.peers, dims, 100.0);
    const auto graph = overlay::build_equilibrium(points, overlay::EmptyRectSelector{});

    const auto cold = run_failover_cell(graph, cell_params, /*warm_on=*/false,
                                        /*kill_on=*/true);
    const auto warm = run_failover_cell(graph, cell_params, /*warm_on=*/true,
                                        /*kill_on=*/true);
    const auto base_cold = run_failover_cell(graph, cell_params, /*warm_on=*/false,
                                             /*kill_on=*/false);
    const auto base_warm = run_failover_cell(graph, cell_params, /*warm_on=*/true,
                                             /*kill_on=*/false);

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
    }
    if (seeds_json.tellp() > 0) seeds_json << ",";
    seeds_json << "\n    {\"seed\":" << seed << ",\"cells\":[";
    bool first = true;
    for (const auto& row : rows) {
      if (!first) seeds_json << ",";
      first = false;
      seeds_json << "\n      "
                 << failover_cell_json(row.name, row.warm, row.kill, *row.cell);
    }
    seeds_json << "\n    ]}";
  }
  const bool all_ok = kills_ok && cold_ok && warm_ok && ttf_ok && identity_ok;
  if (!json_path.empty()) {
    std::ostringstream json;
    json << "{\n  \"bench\": \"pubsub_throughput\",\n  \"mode\": \"root_kill\",\n"
         << "  \"params\": " << params_json(params) << ",\n  \"seeds\": ["
         << seeds_json.str() << "\n  ],\n  \"gate_kills_consistent\": "
         << (kills_ok ? "true" : "false")
         << ",\n  \"gate_cold_dip\": " << (cold_ok ? "true" : "false")
         << ",\n  \"gate_warm_zero_dip\": " << (warm_ok ? "true" : "false")
         << ",\n  \"gate_warm_faster_first_delivery\": " << (ttf_ok ? "true" : "false")
         << ",\n  \"gate_no_kill_identical\": " << (identity_ok ? "true" : "false")
         << "\n}";
    write_json_file(json_path, json.str());
  }
  if (csv) {
    table.print_csv(std::cout);
    if (!all_ok)
      std::cerr << "pubsub_throughput: root-kill gate failed (kills=" << kills_ok
                << ", cold_dip=" << cold_ok << ", warm_zero_dip=" << warm_ok
                << ", first_delivery=" << ttf_ok << ", identical=" << identity_ok
                << ")\n";
  } else {
    std::cout << "=== root-kill failover: cold rebuild vs warm failover, "
              << params.group_count << " groups x " << params.subscribers
              << " subscribers on " << params.peers << " peers, QoS 2, batch_window="
              << params.batch_window << ", seeds " << params.seed << ".."
              << params.seed + 2 << " ===\n\n";
    table.print(std::cout);
    std::cout << "\nacceptance: cold and warm cells kill identical victims: "
              << (kills_ok ? "PASS" : "FAIL")
              << "\nacceptance: cold rebuild shows the dip (abandons, ratio < 1,"
                 " pending batch lost): "
              << (cold_ok ? "PASS" : "FAIL")
              << "\nacceptance: warm failover erases it (ratio == 1, zero abandons,"
                 " batch inherited, handoff priced): "
              << (warm_ok ? "PASS" : "FAIL")
              << "\nacceptance: warm resumes deliveries faster after the kill: "
              << (ttf_ok ? "PASS" : "FAIL")
              << "\nacceptance: no-kill delivered sets bit-identical warm vs cold: "
              << (identity_ok ? "PASS" : "FAIL") << "\n";
  }
  return all_ok ? 0 : 2;
}

// ------------------------------------------------------------- sim core ----

/// Deterministic slice of a run — everything that must be bit-identical
/// across the sim_core knob. run_secs and events/sec are measurement, not
/// behaviour, so they live outside this string.
std::string core_stats_json(const ScenarioOutcome& r) {
  std::string json = obs::to_json(r.total);
  json += '\n';
  json += obs::to_json(r.net);
  return json;
}

struct SimCoreCell {
  std::string name;
  std::size_t peers = 0;
  double overlay_secs = 0.0;
  ScenarioOutcome fast;
  ScenarioOutcome oracle;
  bool delivered_identical = false;
  bool stats_identical = false;
  bool events_identical = false;

  [[nodiscard]] bool identical() const {
    return delivered_identical && stats_identical && events_identical;
  }
  [[nodiscard]] static double events_per_sec(const ScenarioOutcome& r) {
    return r.run_secs > 0.0 ? static_cast<double>(r.events) / r.run_secs : 0.0;
  }
};

/// Runs one workload cell with sim_core on and off on the same overlay and
/// checks the fast path is bit-passive: identical delivered
/// (peer, group, seq) sets, byte-identical counter JSON, equal event count.
SimCoreCell run_simcore_cell(const std::string& name,
                             const overlay::OverlayGraph& graph,
                             ScenarioParams params, multicast::QoS qos, double loss,
                             double overlay_secs) {
  SimCoreCell cell;
  cell.name = name;
  cell.peers = graph.size();
  cell.overlay_secs = overlay_secs;
  // The cores run fast, oracle, oracle, fast and each keeps its faster
  // time. With one run each, run order decided the 100k cell: its ~26k
  // page faults per run land on fresh pages or on pages an earlier run
  // left in the heap, depending on glibc's mmap threshold and trimming,
  // and the oracle, run second, read up to 2x faster.
  std::set<DeliveryKey> fast_set, oracle_set;
  const auto run_core = [&](bool fast) {
    params.sim_core = fast;
    ScenarioOutcome& outcome = fast ? cell.fast : cell.oracle;
    std::set<DeliveryKey>& delivered = fast ? fast_set : oracle_set;
    if (delivered.empty()) {
      outcome = run_scenario(graph, params, qos, loss, &delivered);
    } else {
      outcome.run_secs =
          std::min(outcome.run_secs, run_scenario(graph, params, qos, loss).run_secs);
    }
  };
  for (const bool fast : {true, false, false, true}) run_core(fast);
  cell.delivered_identical = fast_set == oracle_set && !fast_set.empty();
  cell.stats_identical = core_stats_json(cell.fast) == core_stats_json(cell.oracle);
  cell.events_identical = cell.fast.events == cell.oracle.events;
  return cell;
}

/// The ISSUE tentpole acceptance harness: the 1000-peer QoS 1 batched gate
/// cell on the full-knowledge overlay, plus a 100k-peer sweep cell on a
/// grid-kNN local-knowledge overlay (build_equilibrium stays quadratic in
/// the peer count, so a 100k full-knowledge build would dominate the cell;
/// the fast-vs-oracle comparison runs both modes on the SAME overlay, so the
/// equivalence gate is unaffected by how the overlay was built). Gates on
/// bit-identical delivered sets, byte-identical stats JSON, and equal
/// sim_events in every cell; reports events/sec per mode for the
/// regression trajectory (BENCH_simcore.json).
int run_simcore(ScenarioParams params, std::size_t dims, multicast::QoS qos,
                double loss, bool csv, const std::string& json_path,
                std::size_t sweep_peers, std::size_t knn_k) {
  std::vector<SimCoreCell> cells;
  {
    util::Rng rng(params.seed);
    const auto points = geometry::random_points(rng, params.peers, dims, 100.0);
    const auto t0 = std::chrono::steady_clock::now();
    const auto graph = overlay::build_equilibrium(points, overlay::EmptyRectSelector{});
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    cells.push_back(run_simcore_cell("gate1k", graph, params, qos, loss, secs));
  }
  if (sweep_peers > 0) {
    ScenarioParams sweep = params;
    sweep.peers = sweep_peers;
    // Few publishes: the sweep cell exists to push peer-count-proportional
    // state (window slots, dedup tables, wheel occupancy) to 100k within
    // the CI budget, not to maximise wave traffic.
    sweep.publishes = std::min<std::size_t>(sweep.publishes, 8);
    sweep.local_members = true;
    util::Rng rng(params.seed + 1);
    const auto points = geometry::random_points(rng, sweep.peers, dims, 100.0);
    const auto t0 = std::chrono::steady_clock::now();
    const auto graph =
        overlay::build_equilibrium_local(points, overlay::EmptyRectSelector{}, knn_k);
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    cells.push_back(run_simcore_cell("sweep100k", graph, sweep, qos, loss, secs));
  }

  bool delivered_ok = true, stats_ok = true, events_ok = true;
  util::Table table({"cell", "peers", "overlay_secs", "mode", "events", "run_secs",
                     "events_per_sec", "delivery_ratio", "identical"});
  std::ostringstream cells_json;
  cells_json.precision(10);
  for (const auto& cell : cells) {
    delivered_ok = delivered_ok && cell.delivered_identical;
    stats_ok = stats_ok && cell.stats_identical;
    events_ok = events_ok && cell.events_identical;
    const struct {
      const char* mode;
      const ScenarioOutcome* r;
    } rows[] = {{"fast", &cell.fast}, {"oracle", &cell.oracle}};
    for (const auto& row : rows) {
      table.begin_row()
          .add_cell(cell.name)
          .add_number(static_cast<double>(cell.peers), 0)
          .add_number(cell.overlay_secs, 3)
          .add_cell(row.mode)
          .add_number(static_cast<double>(row.r->events), 0)
          .add_number(row.r->run_secs, 4)
          .add_number(SimCoreCell::events_per_sec(*row.r), 0)
          .add_number(row.r->total.delivery_ratio(), 5)
          .add_cell(cell.identical() ? "yes" : "NO");
    }
    if (cells_json.tellp() > 0) cells_json << ",";
    cells_json << "\n    {\"cell\":\"" << cell.name << "\",\"peers\":" << cell.peers
               << ",\"overlay_secs\":" << cell.overlay_secs
               << ",\"sim_events\":" << cell.fast.events
               << ",\"events_per_sec_fast\":" << SimCoreCell::events_per_sec(cell.fast)
               << ",\"events_per_sec_oracle\":"
               << SimCoreCell::events_per_sec(cell.oracle)
               << ",\"delivered_identical\":"
               << (cell.delivered_identical ? "true" : "false")
               << ",\"stats_identical\":" << (cell.stats_identical ? "true" : "false")
               << ",\"events_identical\":" << (cell.events_identical ? "true" : "false")
               << ",\n     \"fast\":" << scenario_json(params, qos, loss, cell.fast)
               << ",\n     \"oracle\":" << scenario_json(params, qos, loss, cell.oracle)
               << "}";
  }
  const unsigned hw_threads = std::max(1u, std::thread::hardware_concurrency());
  const bool all_ok = delivered_ok && stats_ok && events_ok;
  if (!json_path.empty()) {
    std::ostringstream json;
    json.precision(10);
    json << "{\n  \"bench\": \"pubsub_throughput\",\n  \"mode\": \"simcore\",\n"
         << "  \"params\": " << params_json(params) << ",\n  \"cells\": ["
         << cells_json.str() << "\n  ],\n  \"hardware_threads\": " << hw_threads
         << ",\n  \"gate_delivered_identical\": "
         << (delivered_ok ? "true" : "false")
         << ",\n  \"gate_stats_identical\": " << (stats_ok ? "true" : "false")
         << ",\n  \"gate_events_identical\": " << (events_ok ? "true" : "false")
         << "\n}";
    write_json_file(json_path, json.str());
  }
  if (csv) {
    table.print_csv(std::cout);
  } else {
    std::cout << "=== pub/sub simulator-core equivalence: fast path vs heap/set"
                 " oracle, qos=" << static_cast<int>(qos) << ", loss=" << loss
              << ", seed " << params.seed << " ===\n\n";
    table.print(std::cout);
    std::cout << "\nacceptance: delivered (peer, group, seq) sets bit-identical: "
              << (delivered_ok ? "PASS" : "FAIL")
              << "\nacceptance: GroupStats+NetworkStats JSON byte-identical: "
              << (stats_ok ? "PASS" : "FAIL")
              << "\nacceptance: sim_events equal: " << (events_ok ? "PASS" : "FAIL")
              << "\n";
  }
  if (!all_ok)
    std::cerr << "pubsub_throughput: simcore gate failed (delivered=" << delivered_ok
              << ", stats=" << stats_ok << ", events=" << events_ok << ")\n";
  return all_ok ? 0 : 2;
}

// -------------------------------------------------------------- hot group ----

/// One (replicas, qos) cell of the hot-group compare.
struct HotGroupCell {
  std::size_t replicas = 1;
  multicast::QoS qos = multicast::QoS::kFireAndForget;
  groups::GroupStats total;
  sim::NetworkStats net;
  std::set<DeliveryKey> delivered;
  obs::LoadSummary send_load, receive_load, total_load;
  /// max over the cell's slot roots of (sent + received) envelopes — the
  /// busiest root replica, the number sharding exists to flatten.
  std::uint64_t hot_root_load = 0;
  std::vector<overlay::PeerId> slot_roots;
  std::size_t events = 0;
  double run_secs = 0.0;
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
  groups::PubSubConfig config;
  config.seed = params.seed;
  config.reliability.qos = qos;
  config.reliability.ack_timeout = params.ack_timeout;
  config.reliability.max_retries = params.max_retries;
  config.groups.retention_window = params.retention_window;
  config.batch_window = params.batch_window;
  config.max_batch = params.max_batch;
  config.root_replicas = replicas;
  config.publisher_batch_window = params.publisher_batch_window;
  groups::PubSubSystem system(graph, config);
  HotGroupCell cell;
  cell.replicas = replicas;
  cell.qos = qos;
  system.set_delivery_probe([&cell](overlay::PeerId peer, groups::GroupId group,
                                    std::uint64_t seq, double) {
    cell.delivered.emplace(peer, group, seq);
  });

  const groups::GroupId g = 0;
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

  const auto t_run = std::chrono::steady_clock::now();
  cell.events = system.run();
  cell.run_secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t_run).count();
  cell.total = system.total_stats();
  cell.net = system.simulator().stats();
  for (std::uint32_t s = 0; s < replicas; ++s)
    cell.slot_roots.push_back(system.manager().slot_root(g, s));
  std::vector<std::uint64_t> load(peers, 0);
  for (std::size_t p = 0; p < peers; ++p)
    load[p] = (p < cell.net.sent_by_node.size() ? cell.net.sent_by_node[p] : 0) +
              (p < cell.net.received_by_node.size() ? cell.net.received_by_node[p] : 0);
  cell.send_load = obs::summarize_load(cell.net.sent_by_node);
  cell.receive_load = obs::summarize_load(cell.net.received_by_node);
  cell.total_load = obs::summarize_load(load);
  for (const overlay::PeerId root : cell.slot_roots)
    cell.hot_root_load = std::max(cell.hot_root_load, load[root]);
  system.release_pools();
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
    << ",\"control_envelopes\":" << cell.net.control_envelopes
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
  o << "],\"delivered_identical\":" << (cell.delivered_identical ? "true" : "false")
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

  util::Rng rng(params.seed);
  const auto points = geometry::random_points(rng, params.peers, dims, 100.0);
  const auto t0 = std::chrono::steady_clock::now();
  const auto graph = overlay::build_equilibrium(points, overlay::EmptyRectSelector{});
  const double overlay_secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

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
      hot_by_r.size() > 1 && hot_by_r.back().second > 0
          ? static_cast<double>(hot_by_r.front().second) /
                static_cast<double>(hot_by_r.back().second)
          : 0.0;
  const bool flatten_ok = !flatten_gated || flatten_ratio >= 1.8;
  const bool all_ok = identical_ok && monotonic_ok && flatten_ok;

  util::Table table({"replicas", "qos", "publishes", "delivery_ratio", "control_env",
                     "graft_hops", "seq_leases", "shard_waves", "handoffs",
                     "send_max", "total_max", "total_p99", "hot_root_load",
                     "identical", "run_secs"});
  std::ostringstream cells_json;
  for (const HotGroupCell& cell : cells) {
    table.begin_row()
        .add_number(static_cast<double>(cell.replicas), 0)
        .add_number(static_cast<double>(cell.qos), 0)
        .add_number(static_cast<double>(cell.total.publishes), 0)
        .add_number(cell.total.delivery_ratio(), 5)
        .add_number(static_cast<double>(cell.net.control_envelopes), 0)
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
    if (cells_json.tellp() > 0) cells_json << ",";
    cells_json << "\n    " << hot_group_cell_json(cell);
  }
  if (!json_path.empty()) {
    std::ostringstream json;
    json.precision(10);
    json << "{\n  \"bench\": \"pubsub_throughput\",\n  \"mode\": \"hot_group\",\n"
         << "  \"params\": " << params_json(params) << ",\n  \"replica_axis\": [";
    for (std::size_t i = 0; i < axis.size(); ++i)
      json << (i > 0 ? "," : "") << axis[i];
    json << "],\n  \"overlay_secs\": " << overlay_secs << ",\n  \"cells\": ["
         << cells_json.str() << "\n  ],\n  \"hot_root_load_qos1\": {";
    for (std::size_t i = 0; i < hot_by_r.size(); ++i)
      json << (i > 0 ? "," : "") << "\"" << hot_by_r[i].first
           << "\":" << hot_by_r[i].second;
    json << "},\n  \"load_flatten_ratio\": " << flatten_ratio
         << ",\n  \"flatten_gated\": " << (flatten_gated ? "true" : "false")
         << ",\n  \"gate_delivered_identical\": " << (identical_ok ? "true" : "false")
         << ",\n  \"gate_hot_root_monotonic\": " << (monotonic_ok ? "true" : "false")
         << ",\n  \"gate_hot_root_flatten_1_8x\": " << (flatten_ok ? "true" : "false")
         << "\n}";
    write_json_file(json_path, json.str());
  }
  if (csv) {
    table.print_csv(std::cout);
  } else {
    std::cout << "=== hot group: 1 group, all eligible peers subscribed on "
              << graph.size() << " peers (D=" << dims << "), bursts of "
              << params.pub_burst << ", batch_window=" << params.batch_window
              << ", publisher_batch_window=" << params.publisher_batch_window
              << ", replicas axis {";
    for (std::size_t i = 0; i < axis.size(); ++i)
      std::cout << (i > 0 ? ", " : "") << axis[i];
    std::cout << "}, seed=" << params.seed << " (overlay built in "
              << util::format_number(overlay_secs, 2) << "s) ===\n\n";
    table.print(std::cout);
    std::cout << "\nacceptance: delivered (peer, group, seq) sets bit-identical to"
                 " R=1 at every QoS rung: "
              << (identical_ok ? "PASS" : "FAIL")
              << "\nacceptance: hot-root load max flattens monotonically along the"
                 " replica axis (QoS 1): "
              << (monotonic_ok ? "PASS" : "FAIL")
              << "\nacceptance: hot-root load max drops >= 1.8x at R="
              << axis.back() << " vs R=1: "
              << (flatten_ok ? (flatten_gated ? "PASS" : "PASS (not gated)")
                             : "FAIL")
              << " (" << util::format_number(flatten_ratio, 2) << "x)\n";
  }
  if (!all_ok)
    std::cerr << "pubsub_throughput: hot-group gate failed (identical="
              << identical_ok << ", monotonic=" << monotonic_ok
              << ", flatten=" << flatten_ratio << ")\n";
  return all_ok ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
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
    const double loss = flags.get_double("loss", 0.0);
    const std::int64_t qos_level = flags.get_int("qos", 0);
    if (qos_level < 0 || qos_level > 2)
      throw std::invalid_argument("--qos must be 0, 1 or 2");
    const auto qos = static_cast<multicast::QoS>(qos_level);
    const bool csv = flags.get_bool("csv", false);
    const bool sweep = flags.get_bool("sweep", false);
    const bool batch_compare = flags.get_bool("batch-compare", false);
    const bool graft_cost = flags.get_bool("graft-cost", false);
    const bool latency = flags.get_bool("latency", false);
    const bool root_kill = flags.get_bool("root-kill", false);
    const bool simcore = flags.get_bool("simcore", false);
    const bool hot_group = flags.get_bool("hot-group", false);
    params.publisher_batch_window = flags.get_double("publisher-batch-window", 0.0);
    const std::string json_path = flags.get_string("json", "");
    const std::string trace_path = flags.get_string("trace", "");
    const std::string snapshot_path = flags.get_string("snapshot", "");
    const double snapshot_interval = flags.get_double("snapshot-interval", 0.5);
    // Sweep mode gates on subtree repair, so its departures are mid-wave
    // forwarder kills; random churn (which removes subscribers outright)
    // stays a non-sweep knob.
    params.midwave = static_cast<std::size_t>(flags.get_int("midwave", sweep ? 4 : 0));
    if (sweep) params.departures = 0;
    if (flags.get_bool("quick", false)) {
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

    // Sim-core equivalence: defaults mirror the tentpole gate cell
    // (1000 peers, QoS 1, 0.1s batching, bursts of 8) unless overridden;
    // --simcore-peers sizes the grid-kNN sweep cell (0 skips it).
    if (simcore) {
      if (!flags.has("subscribers")) params.subscribers = 64;
      if (!flags.has("publishes")) params.publishes = 64;
      if (!flags.has("batch-window")) params.batch_window = 0.1;
      if (!flags.has("pub-burst")) params.pub_burst = 8;
      const auto simcore_qos = flags.has("qos") ? qos : multicast::QoS::kAcked;
      const auto sweep_peers =
          static_cast<std::size_t>(flags.get_int("simcore-peers", 100000));
      const auto knn_k = static_cast<std::size_t>(flags.get_int("simcore-k", 16));
      return run_simcore(params, dims, simcore_qos, loss, csv, json_path,
                         sweep_peers, knn_k);
    }

    // Hot group (ISSUE 10): one group, all eligible peers subscribed,
    // burst publishes, swept over the --replicas axis at every QoS rung.
    // Defaults make the workload the regime replica sharding exists for:
    // bursts of 8 coalesced at both ends (root batching + publisher
    // batching).
    if (hot_group) {
      if (!flags.has("publishes")) params.publishes = 64;
      if (!flags.has("pub-burst")) params.pub_burst = 8;
      if (!flags.has("batch-window")) params.batch_window = 0.05;
      if (!flags.has("publisher-batch-window")) params.publisher_batch_window = 0.02;
      const auto replica_list = flags.get_int_list("replicas", {1, 2, 4});
      std::vector<std::size_t> axis;
      for (const std::int64_t r : replica_list) {
        if (r < 1) throw std::invalid_argument("--replicas entries must be >= 1");
        axis.push_back(static_cast<std::size_t>(r));
      }
      return run_hot_group(params, dims, csv, json_path, std::move(axis));
    }

    // Graft-cost, latency, and root-kill build one overlay per pinned seed
    // themselves; dispatch before paying for the shared overlay below.
    if (graft_cost) return run_graft_cost(params, dims, csv, json_path);
    if (latency) return run_latency(params, dims, csv, json_path);
    if (root_kill) return run_root_kill(params, dims, csv, json_path);

    util::Rng rng(params.seed);
    const auto points = geometry::random_points(rng, params.peers, dims, 100.0);
    const auto t_overlay = std::chrono::steady_clock::now();
    const auto graph = overlay::build_equilibrium(points, overlay::EmptyRectSelector{});
    const double overlay_secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t_overlay).count();

    if (batch_compare) return run_batch_compare(graph, params, csv, json_path, overlay_secs);
    if (sweep) return run_sweep(graph, params, csv, overlay_secs);

    obs::TraceSink sink(1u << 20);  // ~1M events: covers a full-size run
    std::string snapshot_json;
    const auto outcome = run_scenario(
        graph, params, qos, loss, /*delivered_out=*/nullptr,
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
    if (!json_path.empty())
      write_json_file(json_path,
                      "{\n  \"bench\": \"pubsub_throughput\",\n  \"params\": " +
                          params_json(params) + ",\n  \"run\": " +
                          scenario_json(params, qos, loss, outcome) + "\n}");
    const auto& total = outcome.total;
    const double full_dissemination = static_cast<double>(params.peers - 1);
    const double publishes_per_sec =
        outcome.run_secs > 0.0
            ? static_cast<double>(total.publishes) / outcome.run_secs
            : 0.0;

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
    row("overlay_build_secs", overlay_secs);
    row("sim_events", static_cast<double>(outcome.events), 0);
    row("run_secs", outcome.run_secs);
    row("publishes", static_cast<double>(total.publishes), 0);
    row("publishes_per_sec", publishes_per_sec, 1);
    row("delivery_ratio", total.delivery_ratio(), 5);
    row("deliveries", static_cast<double>(total.deliveries), 0);
    row("expected_deliveries", static_cast<double>(total.expected_deliveries), 0);
    row("duplicates", static_cast<double>(total.duplicate_deliveries), 0);
    row("payload_msgs_per_publish", outcome.payload_per_publish(), 2);
    row("full_dissemination_msgs", full_dissemination, 0);
    row("ack_msgs", static_cast<double>(total.ack_messages), 0);
    row("retransmissions", static_cast<double>(total.retransmissions), 0);
    row("retx_per_publish", outcome.retx_per_publish(), 2);
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
    row("network_retransmitted", static_cast<double>(outcome.net.retransmitted), 0);
    row("network_abandoned_hops", static_cast<double>(outcome.net.abandoned_hops), 0);
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

    const bool ratio_ok = loss > 0.0 || total.delivery_ratio() >= 0.99;
    const bool pruned_ok = outcome.payload_per_publish() < full_dissemination;
    if (csv) {
      table.print_csv(std::cout);
      if (!ratio_ok || !pruned_ok)  // keep stdout machine-readable
        std::cerr << "pubsub_throughput: acceptance gate failed (ratio_ok="
                  << ratio_ok << ", pruned_ok=" << pruned_ok << ")\n";
    } else {
      std::cout << "=== pub/sub throughput: " << params.group_count << " groups x "
                << params.subscribers << " subscribers on " << params.peers
                << " peers (D=" << dims << "), " << outcome.scheduled_departures
                << " departures, loss=" << loss << ", qos="
                << static_cast<int>(qos) << ", seed=" << params.seed << " ===\n\n";
      table.print(std::cout);
      std::cout << "\nacceptance: delivery_ratio >= 0.99 at zero loss: "
                << (ratio_ok ? "PASS" : "FAIL")
                << "\nacceptance: pruned tree beats full dissemination per publish: "
                << (pruned_ok ? "PASS" : "FAIL") << "\n";
    }
    return ratio_ok && pruned_ok ? 0 : 2;
  } catch (const std::exception& error) {
    std::cerr << "pubsub_throughput: " << error.what() << '\n';
    return 1;
  }
}
