// One pub/sub scenario cell as a library call: build a seeded overlay,
// book a schedule on a PubSubSystem, run it, read the outcome. The pub/sub
// bench (bench/pubsub_throughput.cpp) and the groups/obs test batteries run
// their cells through here, and the multicast and routing tests take their
// overlays from it. perfbench does not: it stays the independent referee
// that counts delivery against its own schedule.
//
// PubSubConfig is the cell's plain-data description; this library adds no
// second one. Each schedule stays code next to the test or bench mode that
// owns it, and every draw keeps the RNG stream order its pins depend on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "groups/pubsub.hpp"
#include "obs/trace.hpp"
#include "overlay/graph.hpp"
#include "util/rng.hpp"

namespace geomcast::scenario {

using groups::GroupId;
using overlay::PeerId;

/// A seeded overlay and its build's wall time.
struct Overlay {
  overlay::OverlayGraph graph;
  double build_secs = 0.0;
};

/// `peers` uniform points in [0, 100)^dims drawn from Rng(seed), linked by
/// the full-knowledge empty-rect equilibrium or, with knn_k > 0, by the
/// grid-kNN local-knowledge build.
Overlay make_overlay(std::size_t peers, std::size_t dims, std::uint64_t seed,
                     std::size_t knn_k = 0);

/// Called right after each draw with (peer, index of the draw).
using OnPick = std::function<void(PeerId, std::size_t)>;

/// Draws `count` distinct peers outside `excluded` uniformly from `rng`.
/// `on_pick` runs right after each draw, so the draws a schedule makes for
/// the peer (its subscribe or departure time) interleave with the picks.
std::vector<PeerId> draw_peers(util::Rng& rng, std::size_t n, std::size_t count,
                               const std::vector<bool>& excluded, const OnPick& on_pick = {});

/// `count` distinct peers other than `root`, drawn from the member stream
/// of `seed`: a pure function of (n, root, count, seed).
std::vector<PeerId> pick_members(std::size_t n, PeerId root, std::size_t count,
                                 std::uint64_t seed);

/// `count` distinct peers of [0, n) other than `group`'s root, drawn from
/// `rng`, the i-th subscribed at 0.001 x (i + 1).
std::vector<PeerId> subscribe_drawn(groups::PubSubSystem& system, std::size_t n,
                                    util::Rng& rng, GroupId group, std::size_t count);

/// subscribe_drawn from the member stream of `seed`: the picks are
/// pick_members(graph.size(), root, count, seed).
std::vector<PeerId> subscribe_members(groups::PubSubSystem& system,
                                      const overlay::OverlayGraph& graph, GroupId group,
                                      std::size_t count, std::uint64_t seed);

/// The first `count` peers by id that are neither `members` nor `group`'s
/// root, the i-th subscribed at time + 0.01 x (i + 1): late joiners that
/// enter through the graft plane once the tree exists.
std::vector<PeerId> subscribe_late(groups::PubSubSystem& system, std::size_t n,
                                   GroupId group, const std::vector<PeerId>& members,
                                   std::size_t count, double time);

/// A leaf subscriber of `group`'s cached tree other than `exclude`, found by
/// a lossless QoS 2 dry run of subscribe_members plus `publishes` publishes
/// from the first member. The tree is a pure function of (graph, root,
/// membership), so the pick holds for lossy reruns of the same seed.
PeerId find_leaf_subscriber(const overlay::OverlayGraph& graph, GroupId group,
                            std::size_t member_count, std::uint64_t seed,
                            std::size_t publishes, PeerId exclude = overlay::kInvalidPeer);

/// One application-level delivery, the unit the equivalence gates compare.
using DeliveryKey = std::tuple<PeerId, GroupId, std::uint64_t>;

/// One delivery-probe call.
struct Delivery {
  PeerId peer = 0;
  GroupId group = 0;
  std::uint64_t seq = 0;
  double time = 0.0;
};

/// What a cell keeps of its delivery probe.
enum class Record { kNothing, kDeliveredSet, kProbeLog };

using DeliveryObserver = std::function<void(PeerId, GroupId, std::uint64_t, double)>;

/// What a caller hangs on run_cell besides its schedule.
struct CellHooks {
  Record record = Record::kNothing;
  DeliveryObserver observe = {};
  obs::TraceSink* trace = nullptr;
  /// Reads the finished system after the stats grab: state the stats do
  /// not carry, or work that must not count in them.
  std::function<void(groups::PubSubSystem&)> harvest = {};
};

/// What every cell reports.
struct CellResult {
  groups::GroupStats total;
  sim::NetworkStats net;
  multicast::HopStats hop;    // the data plane's
  multicast::HopStats coord;  // the slot-root coordination plane's
  std::set<DeliveryKey> delivered;  // Record::kDeliveredSet
  std::vector<Delivery> probes;     // Record::kProbeLog, in call order
  std::size_t probe_calls = 0;      // counted whenever a record is kept
  std::size_t events = 0;
  double run_secs = 0.0;
};

/// Books a cell's workload on the fresh system.
using Schedule = std::function<void(groups::PubSubSystem&)>;

/// The one cell runner: constructs the system, wires the trace sink and the
/// delivery probe, books the schedule, times run() and grabs the stats.
CellResult run_cell(const overlay::OverlayGraph& graph, const groups::PubSubConfig& config,
                    const Schedule& schedule, const CellHooks& hooks = {});

/// The tree's sorted (parent, child) edge set.
std::vector<std::pair<PeerId, PeerId>> tree_edges(const groups::GroupTree& gt);

/// Envelopes of `kind` the transport admitted.
std::uint64_t sent_of(const sim::NetworkStats& net, sim::MessageKind kind);

/// 64-bit FNV-1a over raw bytes: the digest the golden pins compare.
std::uint64_t fnv1a(const std::string& bytes);

/// fnv1a of every field of every trace event, the time bit-exact (hex float).
std::uint64_t trace_digest(const std::vector<obs::TraceEvent>& events);

}  // namespace geomcast::scenario
