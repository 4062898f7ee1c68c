#include "sim/simulator.hpp"

#include <stdexcept>
#include <utility>

namespace geomcast::sim {

Simulator::Simulator(std::uint64_t seed) : network_(util::Rng(seed)) {}

void Simulator::add_node(Node& node) {
  if (node.id() != nodes_.size())
    throw std::invalid_argument("Simulator::add_node: ids must be dense and in order");
  nodes_.push_back(&node);
  node.on_start(*this);
}

void Simulator::send(NodeId from, NodeId to, MessageKind kind, std::any payload) {
  if (to >= nodes_.size())
    throw std::invalid_argument("Simulator::send: unknown destination node");
  Envelope envelope{from, to, kind, std::move(payload)};
  const auto delay = network_.admit(envelope);
  if (!delay) return;  // dropped by the loss model
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(pool_.size());
    pool_.push_back(std::move(envelope));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    pool_[slot] = std::move(envelope);
  }
  queue_.schedule_after(now_, *delay, &Simulator::deliver_slot_thunk, this, slot);
}

void Simulator::deliver_slot(std::uint64_t slot) {
  // Move out before delivering: the handler may send, which can grow the
  // pool and reuse the slot.
  Envelope envelope = std::move(pool_[slot]);
  pool_[slot] = Envelope{};
  free_slots_.push_back(static_cast<std::uint32_t>(slot));
  network_.note_delivered(envelope);
  if (observer_) observer_(now_, envelope);
  nodes_[envelope.to]->on_message(*this, envelope);
}

EventId Simulator::schedule_at(SimTime when, std::function<void()> action) {
  return queue_.schedule(when, std::move(action));
}

EventId Simulator::schedule_after(SimTime delay, std::function<void()> action) {
  if (delay < 0) throw std::invalid_argument("Simulator::schedule_after: negative delay");
  return queue_.schedule_after(now_, delay, std::move(action));
}

EventId Simulator::schedule_at(SimTime when, RawFn fn, void* ctx, std::uint64_t arg) {
  return queue_.schedule(when, fn, ctx, arg);
}

EventId Simulator::schedule_after(SimTime delay, RawFn fn, void* ctx,
                                  std::uint64_t arg) {
  if (delay < 0) throw std::invalid_argument("Simulator::schedule_after: negative delay");
  return queue_.schedule_after(now_, delay, fn, ctx, arg);
}

std::size_t Simulator::run_until_idle(std::size_t max_events) {
  std::size_t processed = 0;
  while (processed < max_events && queue_.run_next(&now_)) ++processed;
  return processed;
}

std::size_t Simulator::run_until(SimTime until, std::size_t max_events) {
  std::size_t processed = 0;
  while (processed < max_events && !queue_.empty() && queue_.next_time() <= until) {
    now_ = queue_.next_time();
    queue_.run_next();
    ++processed;
  }
  if (now_ < until) now_ = until;
  return processed;
}

}  // namespace geomcast::sim
