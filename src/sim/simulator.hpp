// The simulation kernel: virtual clock + event queue + network + nodes.
//
// Two execution modes share one API:
//
//  - Classic (default): a single event queue drained on the calling
//    thread — the bit-exact oracle every other mode is pinned against.
//  - Sharded (configure_shards): peers are partitioned into K coordinate
//    regions, each with its own EventQueue drained by a dedicated worker
//    thread, plus a sequential control lane (lane 0) executed by the
//    coordinating thread. The loop is a conservative-window PDES: workers
//    may safely run every event strictly below
//        bound = min(earliest worker event + lookahead, earliest control event)
//    because any message they send travels at least `lookahead` (the
//    latency model's minimum delay), so nothing they produce can land
//    inside the window. Control events never run concurrently with
//    workers — when the earliest control event is due, all lanes are
//    parked and the coordinator drains that instant sequentially across
//    all lanes in global order. Worker-side effects (sends, timer
//    placements, stat probes) are logged per lane and replayed by the
//    coordinator at the window barrier in one canonical order: the
//    producing event's (time, order) key, merged across lanes. Every
//    placement consumes the next global order counter in that canonical
//    sequence, which reproduces the single-queue insertion order exactly —
//    so delivered tuples and stats are bit-identical to the classic mode
//    for any K, and K's only observable effect is wall-clock time.
#pragma once

#include <any>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/network.hpp"
#include "sim/node.hpp"
#include "sim/time.hpp"
#include "util/rng.hpp"

namespace geomcast::sim {

/// Per-lane load/sync accounting for the sharded loop (bench hygiene: the
/// `--simcore --shards` JSON reports these so region imbalance is visible).
struct ShardMetrics {
  std::vector<std::uint64_t> lane_events;  ///< events executed, by home lane
  std::uint64_t windows = 0;               ///< parallel windows run
  std::uint64_t instants = 0;              ///< sequential control instants
  double barrier_wait_seconds = 0.0;       ///< coordinator time parked at barriers
};

class Simulator {
 public:
  /// `backend` selects the event-queue implementation; both produce
  /// bit-identical schedules (see sim/event_queue.hpp). kWheel is the fast
  /// path for timer-dominated workloads; kHeap is the oracle.
  explicit Simulator(std::uint64_t seed = 1, QueueBackend backend = QueueBackend::kHeap);
  ~Simulator();

  /// Registers a node. The simulator does NOT take ownership; the caller
  /// must keep the node alive for the simulator's lifetime. Node ids must
  /// be dense (0, 1, 2, ...) and registered in order.
  void add_node(Node& node);

  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }
  [[nodiscard]] Network& network() noexcept { return network_; }
  [[nodiscard]] const NetworkStats& stats() const noexcept { return network_.stats(); }

  /// Virtual time of the event the calling thread is executing: the global
  /// clock on the coordinator, the worker's own clock during a parallel
  /// phase (handlers call this for latency math, so it must be the event's
  /// time on whichever thread runs the event).
  [[nodiscard]] SimTime now() const noexcept {
    const WorkerTls* w = tls_worker_;
    return (w != nullptr && w->sim == this) ? w->now : now_;
  }

  // -- sharded event loop ---------------------------------------------------

  /// Routes an envelope to its destination lane: 0 for the control lane,
  /// 1..K for a worker region. Must be a pure function of the envelope.
  using RouteFn = std::uint32_t (*)(void* ctx, const Envelope& envelope);
  /// Replayed side-channel record (see log_ext); invoked on the
  /// coordinator in canonical order at the window barrier.
  using ExtFn = void (*)(void* ctx, std::uint64_t a, std::uint64_t b,
                         std::uint64_t c, double v);
  using HookFn = void (*)(void* ctx);

  /// Switches this simulator to the sharded loop with `workers` worker
  /// lanes (plus the control lane). Must be called before any event runs
  /// and with an empty queue; requires a positive-lookahead latency model.
  /// Spawns the worker threads immediately (they park between windows).
  void configure_shards(std::size_t workers, RouteFn router, void* router_ctx);
  void set_ext_handler(ExtFn fn, void* ctx) { ext_ = fn; ext_ctx_ = ctx; }
  /// Runs on the coordinator at the end of every window barrier, after the
  /// effect replay — the client's stat-delta collapse point.
  void set_barrier_hook(HookFn fn, void* ctx) { barrier_hook_ = fn; barrier_ctx_ = ctx; }

  [[nodiscard]] bool sharded() const noexcept { return workers_ != 0; }
  [[nodiscard]] std::size_t worker_lanes() const noexcept { return workers_; }
  [[nodiscard]] const ShardMetrics& shard_metrics() const noexcept { return metrics_; }

  /// The calling thread's parallel-phase lane, or -1 on the coordinator
  /// (including control instants). The lane-delta sinks (Network,
  /// GroupManager, TraceSink) branch on this.
  [[nodiscard]] static int parallel_lane() noexcept {
    const WorkerTls* w = tls_worker_;
    return w != nullptr ? static_cast<int>(w->lane) : -1;
  }
  /// Canonical order of the event the calling worker is executing (0 on
  /// the coordinator) — the trace-merge sort key.
  [[nodiscard]] static std::uint64_t parallel_order() noexcept {
    const WorkerTls* w = tls_worker_;
    return w != nullptr ? w->order : 0;
  }
  /// parallel_lane() clamped to a usable scratch index: workers get their
  /// own slot, everything coordinator-side shares slot 0.
  [[nodiscard]] static std::size_t scratch_lane() noexcept {
    const int lane = parallel_lane();
    return lane > 0 ? static_cast<std::size_t>(lane) : 0;
  }

  /// Sends a message; it will be delivered (or dropped) per the network's
  /// latency/loss models.
  void send(NodeId from, NodeId to, MessageKind kind, std::any payload);

  /// Observer invoked on every delivery, before the destination node's
  /// handler — tracing/debugging hook; pass nullptr to clear. Unsupported
  /// under the sharded loop (run throws if one is set).
  using DeliveryObserver = std::function<void(SimTime, const Envelope&)>;
  void set_delivery_observer(DeliveryObserver observer) {
    observer_ = std::move(observer);
  }

  /// Schedules a callback at an absolute virtual time / after a delay. The
  /// event lands on the scheduling context's own lane: a worker's timer
  /// stays in its region, coordinator-side schedules follow the event
  /// being executed (lane 0 outside any event).
  EventId schedule_at(SimTime when, std::function<void()> action);
  EventId schedule_after(SimTime delay, std::function<void()> action);
  /// Raw-callback overloads (see EventQueue::RawFn): the allocation-free
  /// path for per-hop timers and other high-frequency schedulers.
  EventId schedule_at(SimTime when, RawFn fn, void* ctx, std::uint64_t arg);
  EventId schedule_after(SimTime delay, RawFn fn, void* ctx, std::uint64_t arg);
  /// Like schedule_at/after but always lands on the control lane — for
  /// timers whose handler must observe globally quiesced state (e.g. the
  /// gap timer polling cross-region in-flight counts). Identical to
  /// schedule_at/after in classic mode.
  EventId schedule_control_at(SimTime when, std::function<void()> action);
  EventId schedule_control_after(SimTime delay, std::function<void()> action);
  bool cancel(EventId id);

  /// Side-channel record emitted from an event handler. In classic mode
  /// the handler runs immediately; on a worker lane it is logged and
  /// replayed on the coordinator at the barrier, in canonical order — the
  /// escape hatch for effects that are not order-free (floating-point
  /// accumulation, delivery probes).
  void log_ext(std::uint64_t a, std::uint64_t b, std::uint64_t c, double v);

  /// Runs until the event queues drain or `max_events` fire.
  /// Returns the number of events processed.
  std::size_t run_until_idle(std::size_t max_events = 50'000'000);

  /// Runs events with time <= `until`. Returns events processed.
  /// Classic mode only.
  std::size_t run_until(SimTime until, std::size_t max_events = 50'000'000);

  [[nodiscard]] bool idle() const noexcept {
    for (const Lane& lane : lanes_)
      if (!lane.queue.empty()) return false;
    return true;
  }

  /// Live (non-cancelled) events awaiting dispatch, across all lanes.
  [[nodiscard]] std::size_t pending_events() const noexcept {
    std::size_t total = 0;
    for (const Lane& lane : lanes_) total += lane.queue.pending();
    return total;
  }
  /// Heap slots occupied, cancelled corpses included — the memory-pressure
  /// gauge the observability sampler exports (compaction keeps it within a
  /// constant factor of pending_events()).
  [[nodiscard]] std::size_t queue_heap_size() const noexcept {
    std::size_t total = 0;
    for (const Lane& lane : lanes_) total += lane.queue.heap_size();
    return total;
  }

 private:
  /// A worker-side effect, logged during the parallel phase and replayed
  /// on the coordinator at the barrier. Replay order is the producing
  /// event's (src_when, src_order) merged across lanes — the canonical
  /// sequence the classic loop would have executed these statements in.
  struct Effect {
    enum class Kind : std::uint8_t { kSend, kPlace, kExt };
    Kind kind;
    std::uint32_t lane;      // kPlace: queue the entry belongs to
    SimTime src_when;        // producing event's key
    std::uint64_t src_order;
    SimTime when;            // kSend/kPlace: absolute target time
    std::uint64_t value;     // kSend: outbox index; kPlace: local event id
    std::uint64_t a = 0, b = 0, c = 0;  // kExt payload
    double v = 0.0;
  };

  /// One region: its queue, its envelope slot pool, and the worker-phase
  /// logs. Lane 0 is the control lane (no thread, no logs).
  struct Lane {
    explicit Lane(QueueBackend backend) : queue(backend) {}
    EventQueue queue;
    std::vector<Envelope> pool;
    std::vector<std::uint32_t> free_slots;
    std::vector<Effect> effects;   // parallel-phase effect log
    std::vector<Envelope> outbox;  // kSend payload parking
    std::vector<std::pair<void (*)(void*), void*>> deferred;  // RcPtr recycles
    std::uint64_t events = 0;         // lifetime events executed in this lane
    std::uint64_t window_events = 0;  // events executed in the current window
  };

  struct WorkerTls {
    Simulator* sim;
    std::uint32_t lane;
    SimTime now;
    std::uint64_t order;
  };
  inline static thread_local WorkerTls* tls_worker_ = nullptr;

  // EventIds carry their lane in the top byte so cancel() can find the
  // queue; lane 0 ids are numerically unchanged from the classic path.
  static constexpr unsigned kLaneShift = 56;
  static constexpr EventId kLocalMask = (EventId{1} << kLaneShift) - 1;
  static_assert(32 + EventQueue::kGenerationBits <= kLaneShift,
                "queue-local ids must leave the lane byte free");
  [[nodiscard]] static EventId encode(std::uint32_t lane, EventId local) noexcept {
    return (static_cast<EventId>(lane) << kLaneShift) | local;
  }
  // Delivery-event args carry (lane, slot) for the envelope pool.
  static constexpr unsigned kSlotShift = 40;
  static constexpr std::uint64_t kSlotMask = (std::uint64_t{1} << kSlotShift) - 1;

  void deliver(const Envelope& envelope);
  void deliver_slot(std::uint64_t arg);
  static void deliver_slot_thunk(void* ctx, std::uint64_t arg) {
    static_cast<Simulator*>(ctx)->deliver_slot(arg);
  }

  /// Parks an admitted envelope in its destination lane's slot pool and
  /// schedules the delivery event at absolute time `at`.
  void dispatch_send(Envelope envelope, SimTime at);

  std::size_t run_sharded(std::size_t max_events);
  std::size_t run_instant(SimTime t, std::size_t budget);
  std::size_t run_window(SimTime bound);
  void replay_effects(SimTime bound);
  void apply_effect(Lane& src, const Effect& effect, SimTime bound);
  void worker_main(std::uint32_t lane);

  SimTime now_ = kTimeZero;
  Network network_;
  std::vector<Node*> nodes_;
  DeliveryObserver observer_;
  // In-flight envelopes live in recycled slot pools (one per lane) instead
  // of inside each delivery closure: the closure then captures only
  // (this, lane, slot) — small and trivially copyable, so a send costs
  // zero allocations once the pool is warm.
  std::deque<Lane> lanes_;  // deque: Lane is neither copyable nor movable

  // Sharded-loop state (all dormant while workers_ == 0).
  std::size_t workers_ = 0;
  RouteFn router_ = nullptr;
  void* router_ctx_ = nullptr;
  ExtFn ext_ = nullptr;
  void* ext_ctx_ = nullptr;
  HookFn barrier_hook_ = nullptr;
  void* barrier_ctx_ = nullptr;
  SimTime lookahead_ = 0.0;
  std::uint64_t order_ = 0;     // global canonical schedule counter
  std::uint32_t exec_lane_ = 0; // home lane of the instant event being run
  ShardMetrics metrics_;

  // Worker synchronisation: a generation-counted go/done rendezvous.
  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable cv_go_, cv_done_;
  std::uint64_t gen_ = 0;
  std::size_t active_ = 0;
  bool stop_ = false;
  SimTime bound_ = kTimeZero;
  std::exception_ptr worker_error_;
  // Guards the control lane's queue for the rare cross-lane touches from
  // workers (registering a control timer, cancelling a control event); the
  // coordinator is parked at the barrier whenever workers run.
  std::mutex lane0_mu_;
};

}  // namespace geomcast::sim
