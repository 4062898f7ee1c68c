// End-to-end and per-layer benchmark for the geomcast pub/sub stack.
//
//   geomcast_perf --workload NAME --seed N --seconds S --trace 0|1
//
// One process runs one workload. The workload's inputs (points, membership,
// publish bursts, churn) are a pure function of --seed. The process repeats
// the identical deterministic work — overlay build, PubSubSystem
// construction, scheduling, run() — for --seconds of wall time after one
// discarded warm-up repetition, checks every repetition's outputs, and prints
// one JSON result as its last stdout line.
//
// --trace 0 reports the end-to-end metrics, all from untraced repetitions.
// --trace 1 alternates untraced and traced repetitions (obs::TraceSink and
// obs::Sampler attached, every public call timed) and reports the per-layer
// metrics. The traced delivered set must equal the untraced one.
//
// run() time is the per-segment best over the measured repetitions (see
// best_run_s) and setup_s the sum of its phases' bests. Every other metric is exact for a
// seed and must repeat bit for bit, or the process exits 1. See README.md
// for the workloads, the metric definitions and how each layer metric is
// expected to move an end-to-end one.
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "geometry/random_points.hpp"
#include "groups/failure_injection.hpp"
#include "groups/group_manager.hpp"
#include "groups/message_kinds.hpp"
#include "groups/pubsub.hpp"
#include "obs/snapshot.hpp"
#include "obs/trace.hpp"
#include "overlay/empty_rect.hpp"
#include "overlay/equilibrium.hpp"
#include "overlay/grid_knn.hpp"

namespace {

using namespace geomcast;
using Clock = std::chrono::steady_clock;
using groups::GroupId;
using overlay::PeerId;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ------------------------------------------------------------ workloads ----

enum class OverlayKind { kFullKnowledge, kGridKnn };

struct Workload {
  const char* name;
  OverlayKind overlay;
  std::size_t peers;
  std::size_t dims = 2;
  std::size_t knn_k = 16;
  std::size_t groups;
  std::size_t members;  // per group; 0 = every eligible peer
  std::size_t publishes;  // per group, main phase, after one warm publish
  std::size_t burst = 1;  // publishes per (publisher, instant)
  double publish_span = 4.0;  // main publish phase is [5, 5 + span)
  std::size_t departures = 0;
  std::size_t midwave_kills = 0;
  multicast::QoS qos;
  double data_loss = 0.0;  // drop probability on data-plane kinds only
  double batch_window = 0.0;
  std::size_t root_replicas = 1;
  double publisher_batch_window = 0.0;
  std::size_t publishers_per_group = 0;  // 0 = any surviving member
  std::size_t late_join_every = 0;  // every Nth member joins a built tree; 0 = none
};

// Why each workload exists is in README.md. The sizes put each run() near a
// second of wall time, so a 10 s measurement holds 5-15 repetitions.
const Workload kWorkloads[] = {
    {.name = "steady_qos1",
     .overlay = OverlayKind::kFullKnowledge,
     .peers = 3000,
     .groups = 256,
     .members = 32,
     .publishes = 24,
     .burst = 4,
     .departures = 60,
     .qos = multicast::QoS::kAcked,
     .batch_window = 0.02,
     .late_join_every = 8},
    {.name = "repair_qos2",
     .overlay = OverlayKind::kFullKnowledge,
     .peers = 2000,
     .groups = 128,
     .members = 24,
     .publishes = 12,
     .departures = 40,
     .midwave_kills = 128,
     .qos = multicast::QoS::kEndToEnd,
     .data_loss = 0.05},
    {.name = "scale_100k",
     .overlay = OverlayKind::kGridKnn,
     .peers = 100000,
     .groups = 64,
     .members = 256,
     .publishes = 64,
     .departures = 200,
     .qos = multicast::QoS::kAcked},
    {.name = "hot_group",
     .overlay = OverlayKind::kFullKnowledge,
     .peers = 4000,
     .groups = 1,
     .members = 0,
     .publishes = 800,
     .burst = 8,
     .publish_span = 20.0,
     .qos = multicast::QoS::kAcked,
     .batch_window = 0.02,
     .root_replicas = 4,
     .publisher_batch_window = 0.01,
     .publishers_per_group = 16,
     .late_join_every = 8},
};

// ------------------------------------------------------------- schedule ----

constexpr double kNever = std::numeric_limits<double>::infinity();

struct Op {
  double time;
  PeerId peer;
  GroupId group;
};

/// The benchmark's own schedule: what it asked the system to do, kept so
/// delivery and failure ratios are counted against it, not against the
/// system's own idea of what was expected.
struct Plan {
  std::vector<Op> subscribes;
  std::vector<Op> publishes;
  std::vector<double> depart_time;  // per peer; kNever if it stays
  std::vector<std::vector<PeerId>> members;  // per group
  std::vector<std::vector<double>> subscribed_at;  // parallel to members
  std::vector<bool> member_anywhere;
  std::size_t midwave_kills = 0;  // kills that found a relay to sever
};

/// Draws the workload's schedule from `seed` into `plan` and books it on
/// `system`. Roots (every slot root at R > 1) are kept out of membership and
/// churn, so the run measures group service rather than root migration.
/// `plan` must outlive system.run(): the mid-wave kill hooks refer into it.
void schedule(const Workload& w, groups::PubSubSystem& system, std::uint64_t seed, Plan& plan) {
  const std::size_t peers = system.simulator().node_count();
  groups::GroupManager& manager = system.manager();
  std::vector<bool> is_root(peers, false);
  for (GroupId g = 0; g < w.groups; ++g) {
    is_root[manager.root_of(g)] = true;
    for (std::uint32_t s = 0; s < w.root_replicas && manager.sharded(); ++s)
      is_root[manager.slot_root(g, s)] = true;
  }

  util::Rng rng(seed ^ 0x70657266626e6368ULL);
  plan.depart_time.assign(peers, kNever);
  plan.members.resize(w.groups);
  plan.subscribed_at.resize(w.groups);
  plan.member_anywhere.assign(peers, false);

  // Churn first, so publishers can be drawn among peers that survive. It
  // runs with the main publish phase, after the late joins: a departure
  // repairs trees and leaves their zones stale, which turns a graft into a
  // rebuild.
  for (std::size_t n = 0; n < w.departures;) {
    const auto p = static_cast<PeerId>(rng.next_below(peers));
    if (is_root[p] || plan.depart_time[p] != kNever) continue;
    plan.depart_time[p] = rng.uniform(5.0, 9.0);
    ++n;
  }
  // Membership: subscribes land in [0, 1), before the warm publish at t = 4
  // builds the trees. With late_join_every = N, every Nth member instead
  // joins in [4.2, 4.5), after the build, so the routed graft plane splices
  // it into the cached tree before the main phase starts at t = 5.
  for (GroupId g = 0; g < w.groups; ++g) {
    std::vector<PeerId>& members = plan.members[g];
    if (w.members == 0) {
      for (PeerId p = 0; p < peers; ++p)
        if (!is_root[p]) members.push_back(p);
    } else {
      std::vector<bool> chosen(peers, false);
      while (members.size() < w.members) {
        const auto p = static_cast<PeerId>(rng.next_below(peers));
        if (is_root[p] || chosen[p]) continue;
        chosen[p] = true;
        members.push_back(p);
      }
    }
    for (std::size_t i = 0; i < members.size(); ++i) {
      const PeerId p = members[i];
      const bool late = w.late_join_every > 0 && i % w.late_join_every == w.late_join_every - 1;
      plan.member_anywhere[p] = true;
      plan.subscribed_at[g].push_back(late ? rng.uniform(4.2, 4.5) : rng.uniform(0.0, 1.0));
      plan.subscribes.push_back({plan.subscribed_at[g].back(), p, g});
    }
  }
  for (const Op& op : plan.subscribes) system.subscribe_at(op.time, op.peer, op.group);

  // Publishes: one warm publish per group at t = 4 pays the lazy tree
  // build, then bursts over [5, 5 + publish_span) from members alive for the
  // whole run. On hot_group the long span keeps the share of bursts that
  // meet in one batching window, and so the wave count, steady across seeds.
  for (GroupId g = 0; g < w.groups; ++g) {
    std::vector<PeerId> survivors;
    for (const PeerId p : plan.members[g])
      if (plan.depart_time[p] == kNever) survivors.push_back(p);
    if (survivors.empty()) throw std::runtime_error("a group has no surviving member");
    if (w.publishers_per_group > 0 && survivors.size() > w.publishers_per_group) {
      std::vector<PeerId> spread;
      for (std::size_t i = 0; i < w.publishers_per_group; ++i)
        spread.push_back(survivors[i * survivors.size() / w.publishers_per_group]);
      survivors = std::move(spread);
    }
    plan.publishes.push_back({4.0, survivors[0], g});
    for (std::size_t i = 0; i < w.publishes;) {
      const PeerId publisher = survivors[rng.next_below(survivors.size())];
      const double when = rng.uniform(5.0, 5.0 + w.publish_span);
      for (std::size_t j = 0; j < w.burst && i < w.publishes; ++j, ++i)
        plan.publishes.push_back({when, publisher, g});
    }
  }
  // Mid-wave forwarder kills: a dedicated wave per kill published from the
  // group's root, its best non-member relay departed just before the wave
  // reaches it, then two root publishes whose arrival reveals the gaps.
  for (std::size_t i = 0; i < w.midwave_kills; ++i) {
    const GroupId g = i % w.groups;
    const double wave_time = 6.0 + w.publish_span + 0.25 * static_cast<double>(i);
    const PeerId root = manager.root_of(g);
    plan.publishes.push_back({wave_time, root, g});
    groups::schedule_midwave_kill(system, g, wave_time, plan.member_anywhere,
                                  [&plan](PeerId, std::size_t) { ++plan.midwave_kills; });
    plan.publishes.push_back({wave_time + 0.1, root, g});
    plan.publishes.push_back({wave_time + 0.2, root, g});
  }
  for (const Op& op : plan.publishes) system.publish_at(op.time, op.peer, op.group);
  for (PeerId p = 0; p < peers; ++p)
    if (plan.depart_time[p] != kNever) system.depart_at(plan.depart_time[p], p);
}

/// (member, publish) pairs the schedule owes a delivery: every member
/// subscribed before the publish and not departed by it.
/// Mid-wave kills depart relays that are subscribed nowhere, so they never
/// change this count.
std::uint64_t expected_pairs(const Plan& plan) {
  std::uint64_t pairs = 0;
  for (const Op& pub : plan.publishes) {
    const std::vector<PeerId>& members = plan.members[pub.group];
    for (std::size_t i = 0; i < members.size(); ++i)
      if (plan.subscribed_at[pub.group][i] < pub.time &&
          plan.depart_time[members[i]] > pub.time)
        ++pairs;
  }
  return pairs;
}

// ------------------------------------------------------------ one run -----

/// Events per timed run() segment: 10-30 ms of wall time.
constexpr std::size_t kSegmentEvents = 10000;

struct DeliveryKey {
  std::uint64_t peer_group;  // group << 32 | peer
  std::uint64_t seq;
  auto operator<=>(const DeliveryKey&) const = default;
};

struct Timings {
  double overlay_build = 0, knn = 0, init = 0, schedule = 0, run = 0, teardown = 0;
  double tree_build = 0, snapshot = 0;
  [[nodiscard]] double setup() const { return overlay_build + init + schedule; }
};

struct Outcome {
  Timings t;
  std::vector<double> segments;  // wall time of each run() segment
  std::uint64_t events = 0;
  std::uint64_t delivered = 0;  // unique (peer, group, seq)
  std::uint64_t delivered_hash = 0;
  std::uint64_t expected = 0;
  std::uint64_t scheduled_subscribes = 0, scheduled_publishes = 0;
  std::uint64_t unregistered_subscribes = 0, unaccepted_publishes = 0;
  std::size_t midwave_kills = 0;
  double degree_mean = 0;
  groups::GroupStats stats;
  sim::NetworkStats net;
  multicast::HopStats hop;
  std::size_t retained_peak = 0;
  // Traced repetitions only.
  std::uint64_t trace_events = 0, trace_dropped = 0, queue_depth_max = 0;
  std::uint64_t fresh_tree_builds = 0;
  std::string error;  // first failed output check, empty when all passed
};

/// One repetition of `w` on its seed. `points` are generated once per
/// process (input generation is not set-up). `traced` attaches the trace
/// sink and sampler and times the extra per-layer calls.
Outcome run_once(const Workload& w, const std::vector<geometry::Point>& points,
                 std::uint64_t seed, std::size_t threads, bool traced) {
  Outcome out;
  auto start = Clock::now();
  const overlay::EmptyRectSelector selector;
  const overlay::OverlayGraph graph =
      w.overlay == OverlayKind::kGridKnn
          ? overlay::build_equilibrium_local(points, selector, w.knn_k)
          : overlay::build_equilibrium(points, selector, threads);
  out.t.overlay_build = seconds_since(start);

  groups::PubSubConfig config;
  config.seed = seed;
  config.reliability.qos = w.qos;
  config.reliability.ack_timeout = 0.05;
  config.reliability.max_retries = 5;
  config.batch_window = w.batch_window;
  config.root_replicas = w.root_replicas;
  config.groups.root_replicas = w.root_replicas;
  config.publisher_batch_window = w.publisher_batch_window;
  if (w.data_loss > 0.0) {
    // Data-plane loss only: control routing stays lossless so a failed
    // subscribe or publish always means a routing failure, never a coin.
    auto draws = std::make_shared<util::Rng>(seed ^ 0x6c6f7373ULL);
    config.loss.drop_if = [draws, p = w.data_loss](const sim::Envelope& e) {
      return e.kind >= groups::kDeliverKind && e.kind <= groups::kRepairMissKind &&
             draws->chance(p);
    };
  }

  start = Clock::now();
  auto system = std::make_unique<groups::PubSubSystem>(graph, config);
  out.t.init = seconds_since(start);

  std::vector<DeliveryKey> keys;
  system->set_delivery_probe([&keys](PeerId peer, GroupId group, std::uint64_t seq, double) {
    keys.push_back({group << 32 | peer, seq});
  });
  std::optional<obs::TraceSink> sink;
  std::optional<obs::Sampler> sampler;
  if (traced) {
    sink.emplace(std::size_t{1} << 20);
    system->set_trace_sink(&*sink);
    sampler.emplace(*system, 0.5);
    sampler->start();
  }

  start = Clock::now();
  Plan plan;
  schedule(w, *system, seed, plan);
  out.t.schedule = seconds_since(start);
  // Sized up front so the probe's storage never reallocates inside run().
  out.expected = expected_pairs(plan);
  keys.reserve(out.expected);

  // run() in fixed event-count segments, each timed on its own; see
  // best_run_s for why.
  for (;;) {
    start = Clock::now();
    const std::size_t n = system->run(kSegmentEvents);
    out.segments.push_back(seconds_since(start));
    out.t.run += out.segments.back();
    out.events += n;
    if (n < kSegmentEvents) break;
  }

  out.stats = system->total_stats();
  out.net = system->simulator().stats();
  out.hop = system->hop_stats();
  out.retained_peak = system->manager().retained_peak();
  out.midwave_kills = plan.midwave_kills;
  if (traced) {
    start = Clock::now();
    const std::string snapshot = obs::to_json(out.stats) + obs::to_json(out.net) +
                                 obs::to_json(out.hop) + sampler->to_json();
    out.t.snapshot = seconds_since(start);
    if (snapshot.empty()) out.error = "empty snapshot";
    out.trace_events = sink->recorded();
    out.trace_dropped = sink->dropped();
    for (const obs::SnapshotSample& s : sampler->samples())
      out.queue_depth_max = std::max<std::uint64_t>(out.queue_depth_max, s.queue_pending);
  }
  start = Clock::now();
  sampler.reset();
  system.reset();
  out.t.teardown = seconds_since(start);

  // Output checks, against the schedule.
  std::sort(keys.begin(), keys.end());
  if (std::adjacent_find(keys.begin(), keys.end()) != keys.end())
    out.error = "duplicate delivery key";
  std::vector<std::vector<bool>> is_member(w.groups, std::vector<bool>(points.size()));
  for (GroupId g = 0; g < w.groups; ++g)
    for (const PeerId m : plan.members[g]) is_member[g][m] = true;
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const DeliveryKey& k : keys) {
    const GroupId g = k.peer_group >> 32;
    const auto peer = static_cast<PeerId>(k.peer_group & 0xffffffffu);
    if (g >= w.groups || peer >= points.size() || !is_member[g][peer])
      out.error = "delivery to a (peer, group) pair the schedule never subscribed";
    for (const std::uint64_t word : {k.peer_group, k.seq}) {
      hash ^= word;
      hash *= 0x100000001b3ULL;
    }
  }
  out.delivered = keys.size();
  out.delivered_hash = hash;
  out.scheduled_subscribes = plan.subscribes.size();
  out.scheduled_publishes = plan.publishes.size();
  out.unregistered_subscribes =
      out.scheduled_subscribes - std::min(out.scheduled_subscribes, out.stats.subscribes);
  out.unaccepted_publishes =
      out.scheduled_publishes - std::min(out.scheduled_publishes, out.stats.publishes);
  if (out.stats.subscribes > out.scheduled_subscribes ||
      out.stats.publishes > out.scheduled_publishes)
    out.error = "the system accepted operations the schedule never made";
  if (out.delivered > out.expected) out.error = "more deliveries than the schedule owes";

  std::uint64_t degree_sum = 0;
  for (PeerId p = 0; p < graph.size(); ++p) degree_sum += graph.degree(p);
  out.degree_mean = static_cast<double>(degree_sum) / static_cast<double>(graph.size());

  if (traced) {
    // The overlay layer's kNN query, timed on its own (build_equilibrium_local
    // runs it inside), and a tree build on a fresh GroupManager: every
    // scheduled member subscribed locally, then tree(g) for every group.
    start = Clock::now();
    const auto knn = overlay::grid_knn(points, w.knn_k);
    out.t.knn = seconds_since(start);
    if (knn.size() != points.size()) out.error = "grid_knn returned a short list";
    start = Clock::now();
    groups::GroupManager manager(graph, config.groups);
    for (GroupId g = 0; g < w.groups; ++g) {
      for (const PeerId m : plan.members[g]) manager.subscribe(g, m);
      if (manager.tree(g) == nullptr) out.error = "GroupManager built no tree";
    }
    out.t.tree_build = seconds_since(start);
    out.fresh_tree_builds = manager.total_stats().tree_builds;
  }
  return out;
}

// -------------------------------------------------------------- report ----

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double min_of(const std::vector<double>& v) { return *std::min_element(v.begin(), v.end()); }

/// (max - min) / min over the measured repetitions: the per-run spread
/// recorded beside each wall metric.
double spread(const std::vector<double>& v) {
  const double lo = min_of(v);
  return lo > 0 ? (*std::max_element(v.begin(), v.end()) - lo) / lo : 0.0;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Best run() time over repetitions of identical work, taken per segment:
/// segment j executes the same events in every repetition, so its fastest
/// repetition is its least-disturbed one, and the sum over segments is the
/// run's wall time with the interference of the noisiest moments removed.
/// On a shared VM whose neighbours' memory traffic comes and goes within
/// seconds, this repeats far better from process to process than the best
/// whole run.
double best_run_s(const std::vector<Outcome>& reps) {
  std::vector<double> best = reps.front().segments;
  for (const Outcome& o : reps)
    for (std::size_t j = 0; j < best.size() && j < o.segments.size(); ++j)
      best[j] = std::min(best[j], o.segments[j]);
  double total = 0;
  for (const double b : best) total += b;
  return total;
}

double sent_of(const sim::NetworkStats& net, sim::MessageKind kind) {
  const auto it = net.sent_by_kind.find(kind);
  return it == net.sent_by_kind.end() ? 0.0 : static_cast<double>(it->second);
}

/// Envelopes sent + received per peer, hottest first.
std::vector<std::uint64_t> peer_loads(const sim::NetworkStats& net) {
  std::vector<std::uint64_t> load(std::max(net.sent_by_node.size(), net.received_by_node.size()));
  for (std::size_t p = 0; p < net.sent_by_node.size(); ++p) load[p] += net.sent_by_node[p];
  for (std::size_t p = 0; p < net.received_by_node.size(); ++p) load[p] += net.received_by_node[p];
  std::sort(load.rbegin(), load.rend());
  return load;
}

/// Field-wise best over repetitions of identical work: each phase's least
/// disturbed repetition, as best_run_s does for run() segments.
Timings best_timings(const std::vector<Outcome>& reps) {
  Timings best = reps.front().t;
  for (const Outcome& o : reps)
    for (double Timings::*f :
         {&Timings::overlay_build, &Timings::knn, &Timings::init, &Timings::schedule,
          &Timings::run, &Timings::teardown, &Timings::tree_build, &Timings::snapshot})
      best.*f = std::min(best.*f, o.t.*f);
  return best;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return 0.0;
}

std::size_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

class MetricsJson {
 public:
  void add(const std::string& name, double value, const char* unit) {
    body_ += (body_.empty() ? "" : ", ") + ("\"" + name + "\": {\"value\": ") + num(value) +
             ", \"unit\": \"" + unit + "\"}";
  }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// The ten end-to-end metrics. Delivery and failure ratios are counted
/// against the benchmark's schedule (GroupStats::delivery_ratio() reads 1.0
/// when nothing reached a root; it is reported per layer only).
void add_end_to_end(MetricsJson& m, const Outcome& o, double setup_s, double run_s,
                    double rss_mb) {
  const double join_envelopes =
      sent_of(o.net, groups::kSubscribeKind) + sent_of(o.net, groups::kGraftRequestKind) +
      sent_of(o.net, groups::kGraftAcceptKind) + sent_of(o.net, groups::kGraftRejectKind) +
      sent_of(o.net, groups::kGraftAckKind) + sent_of(o.net, groups::kGraftBatchKind);
  const std::vector<std::uint64_t> load = peer_loads(o.net);
  // Mean over the hottest 1% of peers: the single hottest peer's load moves
  // 10-20% from seed to seed, the top percentile's by a few percent.
  const std::size_t top = std::max<std::size_t>(1, load.size() / 100);
  double hot = 0;
  for (std::size_t i = 0; i < top && i < load.size(); ++i) hot += static_cast<double>(load[i]);
  hot /= static_cast<double>(top);
  const double ops = static_cast<double>(o.scheduled_subscribes + o.scheduled_publishes);
  m.add("setup_s", setup_s, "s");
  m.add("deliveries_per_s", ratio(static_cast<double>(o.delivered), run_s), "1/s");
  m.add("peak_rss_mb", rss_mb, "MB");
  m.add("delivery_ratio", ratio(static_cast<double>(o.delivered), static_cast<double>(o.expected)),
        "1");
  m.add("ops_completed_ratio",
        ratio(ops - static_cast<double>(o.unregistered_subscribes + o.unaccepted_publishes), ops),
        "1");
  m.add("delivery_p50_ms", 1e3 * o.stats.delivery_latency.p50(), "ms");
  m.add("delivery_p99_ms", 1e3 * o.stats.delivery_latency.p99(), "ms");
  m.add("envelopes_per_delivery",
        ratio(static_cast<double>(o.net.sent), static_cast<double>(o.delivered)), "1");
  m.add("join_msgs_per_subscribe",
        ratio(join_envelopes, static_cast<double>(o.scheduled_subscribes)), "1");
  m.add("hot_peer_load", hot, "envelopes");
}

/// Message kinds reported one by one in the traced run, zero when a
/// workload sends none, so every workload emits the same metric names.
constexpr sim::MessageKind kReportedKinds[] = {
    groups::kSubscribeKind,     groups::kUnsubscribeKind,  groups::kPublishKind,
    groups::kDeliverKind,       groups::kDeliverAckKind,   groups::kNackKind,
    groups::kRepairKind,        groups::kRepairMissKind,   groups::kGraftRequestKind,
    groups::kGraftAcceptKind,   groups::kGraftRejectKind,  groups::kGraftAckKind,
    groups::kReplicaSyncKind,   groups::kReplicaAckKind,   groups::kHeartbeatKind,
    groups::kSeqLeaseKind,      groups::kSeqGrantKind,     groups::kShardWaveKind,
    groups::kCoordAckKind,      groups::kGraftBatchKind};

void add_per_layer(MetricsJson& m, const Outcome& o, const Timings& best,
                   double untraced_run_s) {
  const groups::GroupStats& s = o.stats;
  const auto count = [&m](const std::string& name, double v) { m.add(name, v, "count"); };
  m.add("overlay.build_s", best.overlay_build, "s");
  m.add("overlay.knn_s", best.knn, "s");
  m.add("overlay.degree_mean", o.degree_mean, "1");
  m.add("groups.init_s", best.init, "s");
  m.add("groups.schedule_s", best.schedule, "s");
  m.add("groups.teardown_s", best.teardown, "s");
  m.add("groups.tree_build_s", best.tree_build, "s");
  m.add("sim.run_s", untraced_run_s, "s");
  count("sim.events", static_cast<double>(o.events));
  m.add("sim.ns_per_event", 1e9 * ratio(untraced_run_s, static_cast<double>(o.events)), "ns");
  count("sim.queue_depth_max", static_cast<double>(o.queue_depth_max));
  for (const sim::MessageKind k : kReportedKinds)
    count(std::string("sim.sent_by_kind.") + groups::kind_name(k), sent_of(o.net, k));
  count("sim.sent", static_cast<double>(o.net.sent));
  const std::vector<std::uint64_t> load = peer_loads(o.net);
  count("sim.peer_load_max", load.empty() ? 0.0 : static_cast<double>(load.front()));
  count("sim.dropped", static_cast<double>(o.net.dropped));
  count("multicast.hop.data", static_cast<double>(o.hop.data_messages));
  count("multicast.hop.acks", static_cast<double>(o.hop.ack_messages));
  count("multicast.hop.retx", static_cast<double>(o.hop.retransmissions));
  count("multicast.hop.abandoned", static_cast<double>(o.hop.abandoned_hops));
  m.add("multicast.hop.useful_ratio",
        ratio(static_cast<double>(o.hop.data_messages - o.hop.retransmissions),
              static_cast<double>(o.hop.data_messages)),
        "1");
  count("groups.tree_builds", static_cast<double>(s.tree_builds));
  count("groups.fresh_tree_builds", static_cast<double>(o.fresh_tree_builds));
  count("groups.build_messages", static_cast<double>(s.build_messages));
  count("groups.grafts", static_cast<double>(s.grafts));
  count("groups.graft_hops", static_cast<double>(s.graft_hops));
  m.add("groups.cache_hit_ratio",
        ratio(static_cast<double>(s.cache_hits), static_cast<double>(s.publishes)), "1");
  count("groups.window.gaps_detected", static_cast<double>(s.gap_seqs_detected));
  count("groups.window.repaired", static_cast<double>(s.gap_seqs_repaired));
  count("groups.window.abandoned", static_cast<double>(s.gap_seqs_abandoned));
  count("groups.nacks", static_cast<double>(s.nacks_sent));
  count("groups.repairs_served", static_cast<double>(s.repairs_served));
  count("groups.retained_peak", static_cast<double>(o.retained_peak));
  m.add("groups.batch_occupancy", s.mean_batch_occupancy(), "1");
  count("groups.envelopes_saved", static_cast<double>(s.envelopes_saved));
  count("groups.seq_leases", static_cast<double>(s.seq_leases_granted));
  count("groups.shard_waves", static_cast<double>(s.shard_waves));
  count("groups.stranded_msgs", static_cast<double>(s.stranded_messages));
  count("groups.subscribes_unregistered", static_cast<double>(o.unregistered_subscribes));
  count("groups.publishes_unaccepted", static_cast<double>(o.unaccepted_publishes));
  count("groups.midwave_kills", static_cast<double>(o.midwave_kills));
  // The groups layer's own delivery accounting, beside the schedule-based
  // delivery_ratio: it reads 1.0 when nothing reached a root.
  m.add("groups.stats_delivery_ratio", s.delivery_ratio(), "1");
  count("groups.expected_deliveries", static_cast<double>(s.expected_deliveries));
  count("groups.delivery_latency_samples", static_cast<double>(s.delivery_latency.count()));
  m.add("obs.trace_overhead_s", best.run - untraced_run_s, "s");
  count("obs.trace_events", static_cast<double>(o.trace_events));
  count("obs.trace_dropped", static_cast<double>(o.trace_dropped));
  m.add("obs.snapshot_s", best.snapshot, "s");
}

/// Outputs every repetition of one seed must reproduce exactly.
bool same_outputs(const Outcome& a, const Outcome& b, bool compare_events) {
  return a.delivered_hash == b.delivered_hash && a.delivered == b.delivered &&
         a.net.sent == b.net.sent && (!compare_events || a.events == b.events);
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "geomcast_perf: %s\nusage: geomcast_perf --workload NAME --seed N "
               "--seconds S --trace 0|1\n",
               why.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) try {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) usage("unexpected argument " + key);
    args[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0) usage("every flag takes a value");
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads)
    if (args["workload"] == w.name) workload = &w;
  if (workload == nullptr) usage("unknown --workload '" + args["workload"] + "'");
  std::uint64_t seed = 0;
  double seconds = 0;
  bool traced = false;
  try {
    seed = std::stoull(args.at("seed"));
    seconds = std::stod(args.at("seconds"));
    traced = std::stoi(args.at("trace")) != 0;
  } catch (const std::exception&) {
    usage("--seed, --seconds and --trace are required numbers");
  }
  if (!(seconds > 0)) usage("--seconds must be positive");

  const Workload& w = *workload;
  const std::size_t threads = std::min<std::size_t>(
      usable_cpus(), std::max(1u, std::thread::hardware_concurrency()));
  util::Rng point_rng(seed);
  const std::vector<geometry::Point> points =
      geometry::random_points(point_rng, w.peers, w.dims);

  // Warm-up repetition, discarded: faults in the allocator's arenas and the
  // code, so the measured repetitions all start from the same state.
  const Outcome reference = run_once(w, points, seed, threads, false);
  std::string error = reference.error;
  // Peak RSS of one repetition in a fresh process. Read before the measured
  // repetitions, whose reuse of the allocator's freed memory varies from
  // run to run.
  const double rss = peak_rss_mb();

  constexpr std::size_t kMinReps = 3;
  std::vector<Outcome> plain, with_trace;
  const auto measure_start = Clock::now();
  while (error.empty() &&
         (plain.size() < kMinReps || seconds_since(measure_start) < seconds)) {
    plain.push_back(run_once(w, points, seed, threads, false));
    const Outcome& o = plain.back();
    if (!o.error.empty()) error = o.error;
    else if (!same_outputs(o, reference, true))
      error = "deterministic outputs differ between repetitions";
    if (!traced || !error.empty()) continue;
    with_trace.push_back(run_once(w, points, seed, threads, true));
    const Outcome& t = with_trace.back();
    if (!t.error.empty()) error = t.error;
    // Sampler ticks are simulator events, so only the delivered set and
    // the envelope count must match the untraced run.
    else if (!same_outputs(t, reference, false))
      error = "traced delivered set differs from the untraced run";
    else if (!with_trace.empty() && with_trace.front().events != t.events)
      error = "traced event counts differ between repetitions";
  }

  const std::size_t attempted = 1 + plain.size() + with_trace.size();
  // A failed check can stop the loop before any measured repetition.
  if (plain.empty()) plain.push_back(reference);
  std::vector<double> setup, run;
  for (const Outcome& o : plain) {
    setup.push_back(o.t.setup());
    run.push_back(o.t.run);
  }
  const double best_run = best_run_s(plain);
  const double setup_s = best_timings(plain).setup();

  MetricsJson metrics;
  if (traced && !with_trace.empty()) {
    add_per_layer(metrics, with_trace.front(), best_timings(with_trace), best_run);
  } else {
    add_end_to_end(metrics, reference, setup_s, best_run, rss);
  }

  std::printf(
      "{\"provenance\": {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"hardware_threads\": %u, \"usable_cpus\": %zu, \"build_threads\": %zu, "
      "\"build_type\": \"%s\", \"k\": %zu, \"warmup_reps\": 1, "
      "\"setup_s\": {\"phase_best\": %s, \"median\": %s, \"spread\": %s}, "
      "\"run_s\": {\"segment_best\": %s, \"min\": %s, \"median\": %s, \"spread\": %s}, "
      "\"events\": %llu, \"delivered\": %llu, \"expected\": %llu}}\n",
      w.name, static_cast<unsigned long long>(seed), traced ? 1 : 0,
      std::thread::hardware_concurrency(), usable_cpus(), threads, GEOMCAST_PERF_BUILD_TYPE,
      plain.size(), num(setup_s).c_str(), num(median(setup)).c_str(),
      num(spread(setup)).c_str(), num(best_run).c_str(), num(min_of(run)).c_str(),
      num(median(run)).c_str(),
      num(spread(run)).c_str(), static_cast<unsigned long long>(reference.events),
      static_cast<unsigned long long>(reference.delivered),
      static_cast<unsigned long long>(reference.expected));
  if (!error.empty()) std::fprintf(stderr, "geomcast_perf: output check failed: %s\n", error.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %d, \"metrics\": %s}\n",
              error.empty() ? "true" : "false", attempted,
              error.empty() ? 0 : 1, metrics.str().c_str());
  return error.empty() ? 0 : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "geomcast_perf: %s\n", e.what());
  return 1;
}
