// Throughput microbenchmarks (google-benchmark) for the hot paths behind
// the figure reproductions — neighbour selection, equilibrium
// construction, multicast tree construction, stable-tree assembly — plus
// the batched-publish data plane (subscriber-window range admission,
// retained-buffer range insert/evict, the receive path's dedup + retain
// spread over a working set, root coalescing flush), the event queue
// under the cancel-heavy load reliable traffic produces, the hop layer's
// ack cycle, and the resident memory one pub/sub group costs at 100k
// peers.
#include <benchmark/benchmark.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <any>
#include <cmath>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "geometry/random_points.hpp"
#include "groups/group_manager.hpp"
#include "groups/pubsub.hpp"
#include "groups/seen_ranges.hpp"
#include "obs/histogram.hpp"
#include "obs/trace.hpp"
#include "multicast/flooding.hpp"
#include "multicast/reliable_hop.hpp"
#include "multicast/space_partition.hpp"
#include "overlay/empty_rect.hpp"
#include "overlay/equilibrium.hpp"
#include "overlay/grid_knn.hpp"
#include "overlay/hyperplane_k.hpp"
#include "overlay/orthant_sweep.hpp"
#include "sim/event_queue.hpp"
#include "sim/node.hpp"
#include "sim/simulator.hpp"
#include "stability/lifetime.hpp"
#include "stability/stable_tree.hpp"
#include "util/rng.hpp"

namespace {

using namespace geomcast;

std::vector<geometry::Point> make_points(std::size_t n, std::size_t dims) {
  util::Rng rng(0x5eedULL + n * 31 + dims);
  return geometry::random_points(rng, n, dims);
}

void BM_EmptyRectSelect(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto dims = static_cast<std::size_t>(state.range(1));
  const auto points = make_points(n, dims);
  const auto candidates = overlay::candidates_excluding(points, 0);
  const overlay::EmptyRectSelector selector;
  for (auto _ : state) {
    benchmark::DoNotOptimize(selector.select(points[0], candidates));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EmptyRectSelect)->Args({1000, 2})->Args({1000, 5})->Args({5000, 2});

void BM_OrthogonalKSelect(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto dims = static_cast<std::size_t>(state.range(1));
  const auto points = make_points(n, dims);
  const auto candidates = overlay::candidates_excluding(points, 0);
  const auto selector = overlay::HyperplaneKSelector::orthogonal(dims, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(selector.select(points[0], candidates));
  }
}
BENCHMARK(BM_OrthogonalKSelect)->Args({1000, 2})->Args({1000, 10});

void BM_EquilibriumBuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto points = make_points(n, 2);
  const overlay::EmptyRectSelector selector;
  for (auto _ : state) {
    benchmark::DoNotOptimize(overlay::build_equilibrium(points, selector));
  }
}
// 4000 is hot_group's peer count: prices the builder where the end-to-end
// set-up time is measured. 100000 prices the 2-D sweep against its 1 s
// budget at 100k peers.
BENCHMARK(BM_EquilibriumBuild)
    ->Arg(200)
    ->Arg(500)
    ->Arg(4000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

// The tie-heavy case: n points snapped to a 1/30 grid of the unit square,
// so equal-x runs are long, coincident points common, and the staircases
// of the left runs much longer than those of the right ones.
void BM_EquilibriumBuildOnGrid(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto points = make_points(n, 2);
  for (auto& p : points)
    p = geometry::Point({std::round(p[0] * 30.0) / 30.0, std::round(p[1] * 30.0) / 30.0});
  const overlay::EmptyRectSelector selector;
  for (auto _ : state) {
    benchmark::DoNotOptimize(overlay::build_equilibrium(points, selector));
  }
}
BENCHMARK(BM_EquilibriumBuildOnGrid)->Arg(3000)->Unit(benchmark::kMillisecond);

void BM_MulticastBuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto dims = static_cast<std::size_t>(state.range(1));
  const auto points = make_points(n, dims);
  const auto graph = overlay::build_equilibrium(points, overlay::EmptyRectSelector{});
  for (auto _ : state) {
    benchmark::DoNotOptimize(multicast::build_multicast_tree(graph, 0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_MulticastBuild)->Args({1000, 2})->Args({1000, 5});

void BM_FloodingBuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto points = make_points(n, 2);
  const auto graph = overlay::build_equilibrium(points, overlay::EmptyRectSelector{});
  for (auto _ : state) {
    benchmark::DoNotOptimize(multicast::build_flooding_tree(graph, 0));
  }
}
BENCHMARK(BM_FloodingBuild)->Arg(1000);

void BM_OrthantSweepIndexBuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto points = make_points(n, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(overlay::OrthantSweepIndex(points));
  }
}
BENCHMARK(BM_OrthantSweepIndexBuild)->Arg(1000)->Unit(benchmark::kMillisecond);

void BM_StableTreeBuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(7);
  std::vector<double> departure_times;
  const auto points = stability::lifetime_points(rng, n, 5, 1000.0, departure_times);
  const overlay::OrthantSweepIndex index(points);
  const auto selections = index.select_k(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stability::build_stable_tree_from_selections(
        selections, points, departure_times));
  }
}
BENCHMARK(BM_StableTreeBuild)->Arg(1000);

// ---------------------------------------------------------- event queue ----

// The cancel-heavy pattern every acked hop produces: schedule a
// retransmit timer, then cancel it when the ack lands. Without heap
// compaction the corpses pile up and every push/pop pays their log; the
// arg is the live:cancelled ratio (1 cancel kept per `range` scheduled).
void BM_EventQueueCancelChurn(benchmark::State& state) {
  const auto keep_every = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::EventQueue queue;
    std::size_t fired = 0;
    for (int round = 0; round < 64; ++round) {
      std::vector<sim::EventId> ids;
      ids.reserve(1024);
      const double base = 1.0 + round;
      for (int i = 0; i < 1024; ++i)
        ids.push_back(queue.schedule(base + 0.0001 * i, [&fired] { ++fired; }));
      for (std::size_t i = 0; i < ids.size(); ++i)
        if (i % keep_every != 0) queue.cancel(ids[i]);
      while (queue.pending() > 0) queue.run_next();
    }
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64 * 1024);
}
BENCHMARK(BM_EventQueueCancelChurn)->Arg(2)->Arg(8)->Arg(64);

// ------------------------------------------------------- simulator core ----

// Raw-callback dispatch on the hop-chain cycle the simulator hot loop runs
// per reliable hop: each event cancels its chain's +0.05 s ack timer, then
// schedules a +0.01 s delivery and a fresh +0.05 s timer. Arg 0 files both
// through schedule(now + d), the heap; arg 1 through the schedule_after()
// lane overload. CI gates the lanes/heap events/sec ratio on these: a lane
// regression that the bit-identical battery can't see shows up here.
struct DispatchChains {
  static constexpr std::size_t kChains = 1024;
  sim::EventQueue queue;
  bool lanes = false;
  std::vector<sim::EventId> timers = std::vector<sim::EventId>(kChains);

  static void timeout(void* /*ctx*/, std::uint64_t /*chain*/) {}
  static void deliver(void* ctx, std::uint64_t chain) {
    auto* self = static_cast<DispatchChains*>(ctx);
    self->queue.cancel(self->timers[chain]);
    self->send(chain);
  }
  void send(std::uint64_t chain) {
    const sim::SimTime now = queue.last_popped_time();
    if (lanes) {
      queue.schedule_after(now, 0.01, &deliver, this, chain);
      timers[chain] = queue.schedule_after(now, 0.05, &timeout, nullptr, chain);
    } else {
      queue.schedule(now + 0.01, &deliver, this, chain);
      timers[chain] = queue.schedule(now + 0.05, &timeout, nullptr, chain);
    }
  }
};

void BM_SimCoreQueueDispatch(benchmark::State& state) {
  constexpr int kEvents = 64 * 1024;
  for (auto _ : state) {
    DispatchChains chains;
    chains.lanes = state.range(0) == 1;
    // Staggered starts: 1024 chains in flight, their hops spread over the
    // latency window as concurrent waves spread them.
    for (std::size_t c = 0; c < DispatchChains::kChains; ++c)
      chains.queue.schedule(1e-5 * static_cast<double>(c), &DispatchChains::deliver,
                            &chains, c);
    for (int i = 0; i < kEvents; ++i) chains.queue.run_next();
    benchmark::DoNotOptimize(chains.queue.pending());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kEvents);
}
BENCHMARK(BM_SimCoreQueueDispatch)->Arg(0)->Arg(1);

// Few events spread over a long horizon, all absolute schedules: the
// heap-only regime (8192 events over a ~800 s horizon). CI records it as a
// trajectory number, ungated.
void BM_SimCoreQueueSparseHorizon(benchmark::State& state) {
  constexpr int kEvents = 8192;
  for (auto _ : state) {
    sim::EventQueue queue;
    std::uint64_t fired = 0;
    util::Rng rng(97);
    for (int i = 0; i < kEvents; ++i)
      queue.schedule(
          rng.uniform(0.0, 800.0),
          [](void* ctx, std::uint64_t arg) {
            *static_cast<std::uint64_t*>(ctx) += arg;
          },
          &fired, 1);
    while (queue.pending() > 0) queue.run_next();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kEvents);
}
BENCHMARK(BM_SimCoreQueueSparseHorizon);

// The end-to-end per-event cost of the pub/sub simulation core: one
// PubSubSystem per iteration running a QoS 1 batched publish workload on a
// prebuilt overlay, with the pool reset (release_pools) exercised between
// iterations exactly as the bench driver resets between cells. Items =
// simulator events, so items/sec IS the events/sec figure
// BENCH_simcore.json reports; CI records it as a trajectory number, ungated.
void BM_SimCoreWaveDelivery(benchmark::State& state) {
  constexpr std::size_t kPeers = 300;
  constexpr groups::GroupId kGroups = 4;
  const auto points = make_points(kPeers, 2);
  const auto graph = overlay::build_equilibrium(points, overlay::EmptyRectSelector{});
  std::int64_t events = 0;
  for (auto _ : state) {
    groups::PubSubConfig config;
    config.seed = 42;
    config.reliability.qos = multicast::QoS::kAcked;
    config.batch_window = 0.1;
    groups::PubSubSystem system(graph, config);
    util::Rng rng(42);
    for (groups::GroupId g = 0; g < kGroups; ++g) {
      const overlay::PeerId root = system.manager().root_of(g);
      for (std::size_t picked = 0; picked < 16;) {
        const auto p = static_cast<overlay::PeerId>(rng.next_below(kPeers));
        if (p == root) continue;
        system.subscribe_at(rng.uniform(0.0, 1.0), p, g);
        ++picked;
      }
      for (std::size_t i = 0; i < 24; ++i)
        system.publish_at(rng.uniform(2.0, 5.0), root, g);
    }
    events += static_cast<std::int64_t>(system.run());
    system.release_pools();
  }
  state.SetItemsProcessed(events);
}
BENCHMARK(BM_SimCoreWaveDelivery)->Unit(benchmark::kMillisecond);

// The hop layer's own cost per acked hop: 1024 hops kept in flight on a
// bare Simulator at constant latency, every arrival acked, every ack
// answered by the sender's next hop on the same link. Each hop is one
// send + one ack envelope, one armed and one cancelled retransmit timer,
// and one pending-table insert, lookup and erase. Items = hops, so
// items/sec is hops/s; CI records it as a trajectory number, ungated.
class AckCycleNode final : public sim::Node {
 public:
  AckCycleNode(sim::NodeId id, multicast::ReliableHopLayer*& layer, std::uint64_t& budget)
      : sim::Node(id), layer_(layer), budget_(budget) {}
  void on_message(sim::Simulator&, const sim::Envelope& envelope) override {
    if (envelope.kind == kData) {
      layer_->acknowledge(id(), envelope.from, std::any_cast<std::uint64_t>(envelope.payload));
      return;
    }
    layer_->on_ack(envelope);
    if (budget_ == 0) return;
    --budget_;
    const std::uint64_t seq = std::any_cast<const multicast::HopAck&>(envelope.payload).seq;
    layer_->send(id(), envelope.from, seq + kInFlight, seq + kInFlight);
  }

  static constexpr sim::MessageKind kData = 41;
  static constexpr sim::MessageKind kAck = 42;
  static constexpr std::uint64_t kInFlight = 1024;

 private:
  multicast::ReliableHopLayer*& layer_;
  std::uint64_t& budget_;
};

void BM_HopLayerAckCycle(benchmark::State& state) {
  constexpr sim::NodeId kNodes = 64;
  constexpr std::uint64_t kHops = 64 * AckCycleNode::kInFlight;
  std::int64_t hops = 0;
  for (auto _ : state) {
    sim::Simulator sim(7);
    multicast::ReliableHopLayer* layer = nullptr;
    std::uint64_t budget = kHops - AckCycleNode::kInFlight;
    std::vector<std::unique_ptr<AckCycleNode>> nodes;
    for (sim::NodeId i = 0; i < kNodes; ++i) {
      nodes.push_back(std::make_unique<AckCycleNode>(i, layer, budget));
      sim.add_node(*nodes.back());
    }
    multicast::ReliableHopLayer hop_layer(sim, AckCycleNode::kData, AckCycleNode::kAck,
                                          {multicast::QoS::kAcked, 0.25, 5});
    layer = &hop_layer;
    // Link i carries seqs i, i + 1024, i + 2048, ...: unique per link.
    for (std::uint64_t seq = 0; seq < AckCycleNode::kInFlight; ++seq) {
      const auto from = static_cast<sim::NodeId>(seq % kNodes);
      hop_layer.send(from, (from + 1 + seq / kNodes % (kNodes - 1)) % kNodes, seq, seq);
    }
    sim.run_until_idle();
    if (hop_layer.pending() != 0) state.SkipWithError("hops left pending");
    hops += static_cast<std::int64_t>(hop_layer.stats().data_messages);
    benchmark::DoNotOptimize(hops);
  }
  state.SetItemsProcessed(hops);
}
BENCHMARK(BM_HopLayerAckCycle)->Unit(benchmark::kMillisecond);

// ------------------------------------------------- batched publish plane ----

// Range admission through a SubscriberWindow: the batched data plane
// observes dense [lo, hi] ranges instead of single seqs. Args: batch
// width x whether every other batch is withheld first (gap + backfill,
// the repair-path shape) or arrives in order (the hot path).
void BM_SubscriberWindowRangeAdmission(benchmark::State& state) {
  const auto width = static_cast<std::uint64_t>(state.range(0));
  const bool gappy = state.range(1) != 0;
  constexpr std::uint64_t kBatches = 512;
  for (auto _ : state) {
    groups::SubscriberWindow window(/*reorder_limit=*/16 * 1024);
    std::uint64_t released = 0;
    if (gappy) {
      // Even batches arrive late: odd batches open gaps, then the evens
      // backfill them — exercising the per-seq split machinery.
      for (std::uint64_t b = 0; b < kBatches; b += 2) {
        const std::uint64_t lo = (b + 1) * width;
        released += window.observe_range(lo, lo + width - 1).released.size();
      }
      for (std::uint64_t b = 0; b < kBatches; b += 2) {
        const std::uint64_t lo = b * width;
        released += window.observe_range(lo, lo + width - 1).released.size();
      }
    } else {
      for (std::uint64_t b = 0; b < kBatches; ++b) {
        const std::uint64_t lo = b * width;
        released += window.observe_range(lo, lo + width - 1).released.size();
      }
    }
    benchmark::DoNotOptimize(released);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBatches * width));
}
BENCHMARK(BM_SubscriberWindowRangeAdmission)
    ->Args({1, 0})
    ->Args({8, 0})
    ->Args({8, 1})
    ->Args({64, 0});

// Range insert/evict through a RetainedBuffer at steady state: every
// insert past the window evicts the oldest range. Arg: range width (the
// batch factor); capacity is fixed so wider ranges mean fewer entries.
void BM_RetainedBufferRangeInsert(benchmark::State& state) {
  const auto width = static_cast<std::uint64_t>(state.range(0));
  constexpr std::size_t kCapacity = 64;
  constexpr std::uint64_t kWaves = 1024;
  util::RcPool<groups::GroupDelivery> pool;
  for (auto _ : state) {
    groups::RetainedBuffer buffer(kCapacity);
    std::size_t evicted = 0;
    for (std::uint64_t w = 0; w < kWaves; ++w) {
      const std::uint64_t lo = w * width;
      evicted += buffer.retain(pool.make(groups::GroupDelivery{0, lo, lo + width - 1, w, nullptr, 0}));
    }
    benchmark::DoNotOptimize(evicted);
    benchmark::DoNotOptimize(buffer.find((kWaves - 1) * width));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kWaves));
}
BENCHMARK(BM_RetainedBufferRangeInsert)->Arg(1)->Arg(8)->Arg(64);

// The receive path's per-arrival bookkeeping spread over a working set:
// each arrival dedups one (peer, group, slot) key and retains its range at
// that (peer, group), the way a relaying subscriber does on every wave.
// Arg: live keys. 52k is steady_qos1's working set (3000 peers x 256
// groups, ≈ 52k touched keys) and spills far out of cache; 1k stays hot.
// Each iteration is one round of 6 in-order arrivals per key, shuffled
// across keys; state carries over, so rounds run at steady state (every
// key extends its newest range, every buffer evicts its oldest).
void BM_ReceivePathSpread(benchmark::State& state) {
  const auto keys = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kPeers = 3000;
  constexpr std::size_t kArrivals = 6;
  constexpr std::uint64_t kWidth = 4;
  const overlay::OverlayGraph graph(make_points(kPeers, 2),
                                    std::vector<std::vector<overlay::PeerId>>(kPeers));
  groups::GroupConfig config;
  config.retention_window = 16;
  util::RcPool<groups::GroupDelivery> pool;  // outlives the retained handles
  groups::GroupManager manager(graph, config);
  groups::SeenRanges seen;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> fresh;
  std::vector<std::uint32_t> order;
  for (std::uint32_t k = 0; k < keys; ++k) order.insert(order.end(), kArrivals, k);
  util::Rng rng(53);
  rng.shuffle(order);
  std::vector<std::uint64_t> next_seq(keys, 0);
  for (auto _ : state) {
    std::size_t evicted = 0;
    for (const std::uint32_t k : order) {
      const auto peer = static_cast<overlay::PeerId>(k % kPeers);
      const groups::GroupId group = k / kPeers;
      const std::uint64_t lo = next_seq[k];
      next_seq[k] += kWidth;
      seen.mark(util::PeerKey{peer, 0, group}, lo, lo + kWidth - 1, fresh);
      evicted += manager.retain_payload(
          peer, group, pool.make(groups::GroupDelivery{group, lo, lo + kWidth - 1, lo, nullptr, 0}));
    }
    benchmark::DoNotOptimize(evicted);
    benchmark::DoNotOptimize(fresh.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(order.size()));
}
BENCHMARK(BM_ReceivePathSpread)->Arg(1024)->Arg(52 * 1024)->Unit(benchmark::kMillisecond);

// ------------------------------------------------------- graft descent ----

/// `count` distinct random peers other than peer 0, ascending.
std::vector<overlay::PeerId> random_subscribers(std::size_t n, std::size_t count,
                                                std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<overlay::PeerId> subscribers;
  while (subscribers.size() < count) {
    const auto p = static_cast<overlay::PeerId>(rng.next_below(n));
    if (p != 0) groups::assign_id(subscribers, p, true);
  }
  return subscribers;
}

// One full zone-descent graft, step by step through the resumable
// GraftCursor (the unit the routed control plane executes once per
// envelope), followed by the prune that restores the tree — so every
// iteration runs against the identical cached state with no per-iteration
// copy. Items = descent decisions, i.e. the per-step cost the distributed
// graft pays at each hop.
void BM_GraftCursorStep(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto points = make_points(n, 3);
  const auto graph = overlay::build_equilibrium(points, overlay::EmptyRectSelector{});
  const auto subscribers = random_subscribers(n, 32, 23);
  auto gt = groups::build_group_tree(graph, /*root=*/0, subscribers);
  // A peer the descent must actually walk to (not already a relay).
  overlay::PeerId target = overlay::kInvalidPeer;
  for (overlay::PeerId p = 0; p < n; ++p)
    if (!groups::contains_id(subscribers, p) && !gt.tree.reached(p)) {
      target = p;
      break;
    }
  std::int64_t steps = 0;
  for (auto _ : state) {
    auto cursor = groups::graft_cursor(graph, gt, target);
    while (groups::graft_step(graph, gt, cursor).status ==
           groups::GraftStatus::kDescend) {
    }
    steps += static_cast<std::int64_t>(cursor.steps);
    groups::prune_subscriber(gt, target);  // exact inverse: tree restored
  }
  state.SetItemsProcessed(steps);
}
BENCHMARK(BM_GraftCursorStep)->Arg(200)->Arg(1000);

// One pruned 32-subscriber group-tree build: the lazy rebuild a cached
// tree pays after churn. Each build request carries its zone and the tree
// keeps none, so the per-build cost follows the tree (the subscribers'
// root paths), not the overlay: the n = 20000 cell pays no n-rect zone
// fill. The large cell
// runs on a grid-kNN (k = 16) overlay, whose O(n k) build keeps the
// fixture cheap; the small one on the full-knowledge equilibrium.
/// A 2-D overlay of `n` peers and 32 random subscribers (root 0 excluded).
std::pair<overlay::OverlayGraph, std::vector<overlay::PeerId>> group_fixture(std::size_t n) {
  const auto points = make_points(n, 2);
  auto graph = n <= 1000
                   ? overlay::build_equilibrium(points, overlay::EmptyRectSelector{})
                   : overlay::build_equilibrium_local(points, overlay::EmptyRectSelector{}, 16);
  return {std::move(graph), random_subscribers(n, 32, 29)};
}

void BM_GroupTreeBuild(benchmark::State& state) {
  const auto [graph, subscribers] = group_fixture(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state)
    benchmark::DoNotOptimize(groups::build_group_tree(graph, /*root=*/0, subscribers));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_GroupTreeBuild)->Arg(1000)->Arg(20000)->Unit(benchmark::kMicrosecond);

// Copy-on-write clone of a cached group tree: what a membership or repair
// write costs while a publish wave still holds the old snapshot. Tree
// state, delivery flags included, follows the reached peers, so the cost
// per reached peer (ns_per_reached) should be flat in n; the two cells'
// trees differ in size, so their raw times differ with reached_count.
void BM_GroupTreeClone(benchmark::State& state) {
  const auto [graph, subscribers] = group_fixture(static_cast<std::size_t>(state.range(0)));
  const auto tree = groups::build_group_tree(graph, /*root=*/0, subscribers);
  for (auto _ : state) {
    groups::GroupTree copy = tree;
    benchmark::DoNotOptimize(copy);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  const auto reached = static_cast<double>(tree.tree.reached_count());
  state.counters["reached_count"] = reached;
  state.counters["ns_per_reached"] = benchmark::Counter(
      reached * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_GroupTreeClone)->Arg(1000)->Arg(20000)->Unit(benchmark::kNanosecond);

/// This process's resident set size in bytes (VmRSS); 0 when
/// /proc/self/status cannot be read.
std::size_t resident_bytes() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmRSS:", 0) == 0) return std::stoull(line.substr(6)) * 1024;  // kB
  return 0;
}

// What one group costs in memory at scale: a 2-D exact overlay of 100k
// peers, 2000 groups of 8 random subscribers, every group's tree built
// through GroupManager::tree(). bytes_per_group is the VmRSS growth over
// the subscribes and builds alone (overlay and manager are in the
// baseline), divided by the group count; reached_per_tree is the mean tree
// size it buys. Membership, delivery flags and stats follow the members
// and the reached peers, so the figure must not grow with n.
void BM_GroupFootprint(benchmark::State& state) {
  constexpr std::size_t kPeers = 100000, kGroups = 2000, kSubscribers = 8;
  const auto graph =
      overlay::build_equilibrium(make_points(kPeers, 2), overlay::EmptyRectSelector{});
  double bytes_per_group = 0.0, reached_per_tree = 0.0;
  for (auto _ : state) {
    groups::GroupManager manager(graph);
#if defined(__GLIBC__)
    // Hand the overlay build's freed scratch back to the OS first, or the
    // groups would reuse it without growing the resident set.
    malloc_trim(0);
#endif
    const std::size_t before = resident_bytes();
    if (before == 0) {
      state.SkipWithError("VmRSS is unavailable");
      break;
    }
    util::Rng rng(31);
    std::size_t reached = 0;
    for (groups::GroupId g = 0; g < kGroups; ++g) {
      while (manager.subscriber_count(g) < kSubscribers)
        manager.subscribe(g, static_cast<overlay::PeerId>(rng.next_below(kPeers)));
      reached += manager.tree(g)->tree.reached_count();
    }
    const std::size_t after = resident_bytes();
    bytes_per_group = static_cast<double>(after > before ? after - before : 0) / kGroups;
    reached_per_tree = static_cast<double>(reached) / kGroups;
  }
  state.counters["bytes_per_group"] = bytes_per_group;
  state.counters["reached_per_tree"] = reached_per_tree;
}
BENCHMARK(BM_GroupFootprint)->Iterations(1)->Unit(benchmark::kMillisecond);

// What the overlay costs in memory: the VmRSS growth of building a 2-D
// exact overlay of 100k peers, divided by the peer count. The input points
// are in the baseline; the graph's flat coordinates (each peer's stored
// once, at the exact dimension stride) and its CSR adjacency (one id and
// one selection bit per edge end) are not. The build's freed scratch is
// handed back before each reading.
void BM_OverlayFootprint(benchmark::State& state) {
  constexpr std::size_t kPeers = 100000;
  const auto points = make_points(kPeers, 2);
  double bytes_per_peer = 0.0, degree_mean = 0.0;
  for (auto _ : state) {
#if defined(__GLIBC__)
    malloc_trim(0);
#endif
    const std::size_t before = resident_bytes();
    if (before == 0) {
      state.SkipWithError("VmRSS is unavailable");
      break;
    }
    const auto graph = overlay::build_equilibrium(points, overlay::EmptyRectSelector{});
#if defined(__GLIBC__)
    malloc_trim(0);
#endif
    const std::size_t after = resident_bytes();
    bytes_per_peer = static_cast<double>(after > before ? after - before : 0) / kPeers;
    degree_mean = 2.0 * static_cast<double>(graph.edge_count()) / kPeers;
  }
  state.counters["bytes_per_peer"] = bytes_per_peer;
  state.counters["degree_mean"] = degree_mean;
}
BENCHMARK(BM_OverlayFootprint)->Iterations(1)->Unit(benchmark::kMillisecond);

// Routed vs local graft, end to end on the simulated network: 16 early
// subscribers build the tree, 16 late ones graft into it — arg 1 drives
// every descent with routed QoS 1 envelopes, arg 0 runs the root-local
// oracle. The delta is the full distribution overhead of the control
// plane (envelopes, acks, timers), the regression this guard watches.
void BM_RoutedVsLocalGraft(benchmark::State& state) {
  const bool routed = state.range(0) != 0;
  const auto points = make_points(64, 3);
  const auto graph = overlay::build_equilibrium(points, overlay::EmptyRectSelector{});
  for (auto _ : state) {
    groups::PubSubConfig config;
    config.reliability.qos = multicast::QoS::kAcked;
    config.routed_graft = routed;
    groups::PubSubSystem system(graph, config);
    for (overlay::PeerId p = 1; p < 17; ++p)
      system.subscribe_at(0.001 * static_cast<double>(p), p, /*group=*/0);
    system.publish_at(2.0, 1, /*group=*/0);
    for (overlay::PeerId p = 17; p < 33; ++p)
      system.subscribe_at(3.0 + 0.01 * static_cast<double>(p), p, /*group=*/0);
    system.publish_at(6.0, 1, /*group=*/0);
    benchmark::DoNotOptimize(system.run());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 16);
}
BENCHMARK(BM_RoutedVsLocalGraft)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// Root coalescing flush, end to end: a publish burst lands at the root,
// buffers, and flushes as one range wave down a real 64-peer group tree
// (the simulated network included, so this prices the whole flush path,
// not just the buffer). Arg: burst size; 1 runs the unbatched pipeline
// for the baseline column.
void BM_RootCoalescingFlush(benchmark::State& state) {
  const auto burst = static_cast<std::size_t>(state.range(0));
  const auto points = make_points(64, 3);
  const auto graph = overlay::build_equilibrium(points, overlay::EmptyRectSelector{});
  for (auto _ : state) {
    groups::PubSubConfig config;
    config.reliability.qos = multicast::QoS::kAcked;
    if (burst > 1) {
      config.batch_window = 0.05;
      config.max_batch = burst;
    }
    groups::PubSubSystem system(graph, config);
    for (overlay::PeerId p = 1; p < 33; ++p)
      system.subscribe_at(0.001 * static_cast<double>(p), p, /*group=*/0);
    for (int round = 0; round < 8; ++round)
      for (std::size_t i = 0; i < burst; ++i)
        system.publish_at(2.0 + 0.5 * round, 1, /*group=*/0);
    benchmark::DoNotOptimize(system.run());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 8 *
                          static_cast<std::int64_t>(burst));
}
BENCHMARK(BM_RootCoalescingFlush)->Arg(1)->Arg(8)->Unit(benchmark::kMillisecond);

// --------------------------------------------------------- observability ----

// The zero-cost-disabled claim, priced: the identical pub/sub workload
// with no trace sink (arg 0, the default every production run takes) vs a
// sink attached (arg 1). Disabled tracing is one null-check per potential
// emit point, so the two timings should be indistinguishable; a visible
// delta means a hot path started paying for tracing it isn't using.
void BM_TracerDisabledOverhead(benchmark::State& state) {
  const bool traced = state.range(0) != 0;
  const auto points = make_points(64, 3);
  const auto graph = overlay::build_equilibrium(points, overlay::EmptyRectSelector{});
  obs::TraceSink sink;
  for (auto _ : state) {
    groups::PubSubConfig config;
    config.reliability.qos = multicast::QoS::kAcked;
    groups::PubSubSystem system(graph, config);
    if (traced) system.set_trace_sink(&sink);
    for (overlay::PeerId p = 1; p < 33; ++p)
      system.subscribe_at(0.001 * static_cast<double>(p), p, /*group=*/0);
    for (int round = 0; round < 8; ++round)
      system.publish_at(2.0 + 0.5 * round, 1, /*group=*/0);
    benchmark::DoNotOptimize(system.run());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 8);
}
BENCHMARK(BM_TracerDisabledOverhead)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// Histogram record (the per-delivery cost on the data plane: one frexp +
// one array increment) and bucket-wise merge (the per-group cost when
// total_stats() folds G group histograms together). Arg: values recorded
// per iteration / histograms merged per iteration.
void BM_HistogramRecordMerge(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<double> values(n);
  util::Rng rng(17);
  for (auto& v : values) v = rng.uniform(1e-4, 10.0);
  obs::Histogram base;
  for (const double v : values) base.record(v);
  for (auto _ : state) {
    obs::Histogram recorded;
    for (const double v : values) recorded.record(v);
    obs::Histogram merged;
    merged.merge(base);
    merged.merge(recorded);
    benchmark::DoNotOptimize(merged.count());
    benchmark::DoNotOptimize(merged.p99());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_HistogramRecordMerge)->Arg(64)->Arg(4096);

}  // namespace

BENCHMARK_MAIN();
