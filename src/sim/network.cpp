#include "sim/network.hpp"

#include <optional>

namespace geomcast::sim {

LatencyModel LatencyModel::constant(SimTime delay) {
  LatencyModel model;
  model.lo_ = model.hi_ = delay;
  return model;
}

LatencyModel LatencyModel::uniform(SimTime lo, SimTime hi) {
  LatencyModel model;
  model.lo_ = lo;
  model.hi_ = hi;
  return model;
}

SimTime LatencyModel::sample(util::Rng& rng) const noexcept {
  if (lo_ == hi_) return lo_;
  return rng.uniform(lo_, hi_);
}

void Network::bump(std::vector<std::uint64_t>& counters, NodeId id) {
  if (counters.size() <= id) counters.resize(static_cast<std::size_t>(id) + 1, 0);
  ++counters[id];
}

std::optional<SimTime> Network::admit(const Envelope& envelope) {
  ++stats_.sent;
  if (envelope.kind < kDenseKinds)
    ++kind_counts_[envelope.kind];
  else
    ++high_kind_counts_[envelope.kind];
  bump(stats_.sent_by_node, envelope.from);
  const bool dropped = (loss_.drop_probability > 0.0 && rng_.chance(loss_.drop_probability)) ||
                       (loss_.drop_if && loss_.drop_if(envelope));
  if (dropped) {
    ++stats_.dropped;
    return std::nullopt;
  }
  return latency_.sample(rng_);
}

void Network::note_delivered(const Envelope& envelope) {
  ++stats_.delivered;
  bump(stats_.received_by_node, envelope.to);
}

const NetworkStats& Network::stats() const {
  stats_.sent_by_kind = high_kind_counts_;
  for (MessageKind kind = 0; kind < kDenseKinds; ++kind)
    if (kind_counts_[kind] != 0) stats_.sent_by_kind.emplace(kind, kind_counts_[kind]);
  return stats_;
}

}  // namespace geomcast::sim
