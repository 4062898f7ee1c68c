// The simulation kernel: virtual clock + event queue + network + nodes.
//
// One event queue, drained on the calling thread in (time, order)
// sequence: every run of a seeded simulation is bit-for-bit identical.
// Envelope deliveries and schedule_after() timers are `now + delay` for a
// few constant delays, so they ride the queue's FIFO lanes (see
// sim/event_queue.hpp); schedule_at() goes to its heap.
#pragma once

#include <any>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/network.hpp"
#include "sim/node.hpp"
#include "sim/time.hpp"
#include "util/rng.hpp"

namespace geomcast::sim {

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1);

  /// Registers a node. The simulator does NOT take ownership; the caller
  /// must keep the node alive for the simulator's lifetime. Node ids must
  /// be dense (0, 1, 2, ...) and registered in order.
  void add_node(Node& node);

  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }
  [[nodiscard]] Network& network() noexcept { return network_; }
  [[nodiscard]] const NetworkStats& stats() const noexcept { return network_.stats(); }

  /// Virtual time of the event being executed.
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Sends a message; it will be delivered (or dropped) per the network's
  /// latency/loss models.
  void send(NodeId from, NodeId to, MessageKind kind, std::any payload);

  /// Observer invoked on every delivery, before the destination node's
  /// handler — tracing/debugging hook; pass nullptr to clear.
  using DeliveryObserver = std::function<void(SimTime, const Envelope&)>;
  void set_delivery_observer(DeliveryObserver observer) {
    observer_ = std::move(observer);
  }

  /// Schedules a callback at an absolute virtual time / after a delay.
  EventId schedule_at(SimTime when, std::function<void()> action);
  EventId schedule_after(SimTime delay, std::function<void()> action);
  /// Raw-callback overloads (see EventQueue::RawFn): the allocation-free
  /// path for per-hop timers and other high-frequency schedulers.
  EventId schedule_at(SimTime when, RawFn fn, void* ctx, std::uint64_t arg);
  EventId schedule_after(SimTime delay, RawFn fn, void* ctx, std::uint64_t arg);
  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Runs until the event queue drains or `max_events` fire.
  /// Returns the number of events processed.
  std::size_t run_until_idle(std::size_t max_events = 50'000'000);

  /// Runs events with time <= `until`. Returns events processed.
  std::size_t run_until(SimTime until, std::size_t max_events = 50'000'000);

  [[nodiscard]] bool idle() const noexcept { return queue_.empty(); }

  /// Live (non-cancelled) events awaiting dispatch.
  [[nodiscard]] std::size_t pending_events() const noexcept { return queue_.pending(); }
  /// Queue entries stored, cancelled corpses included — the memory-pressure
  /// gauge the observability sampler exports (compaction keeps it within a
  /// constant factor of pending_events()).
  [[nodiscard]] std::size_t queue_heap_size() const noexcept {
    return queue_.heap_size();
  }

 private:
  void deliver_slot(std::uint64_t slot);
  static void deliver_slot_thunk(void* ctx, std::uint64_t slot) {
    static_cast<Simulator*>(ctx)->deliver_slot(slot);
  }

  SimTime now_ = kTimeZero;
  Network network_;
  std::vector<Node*> nodes_;
  DeliveryObserver observer_;
  EventQueue queue_;
  // In-flight envelopes live in a recycled slot pool instead of inside
  // each delivery closure: the delivery event is a raw (thunk, this, slot)
  // triple, so a send costs zero allocations once the pool is warm.
  std::vector<Envelope> pool_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace geomcast::sim
