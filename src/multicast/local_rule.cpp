#include "multicast/local_rule.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <tuple>

namespace geomcast::multicast {

void partition_step(const overlay::OverlayGraph& graph, overlay::PeerId ego,
                    std::span<const double> zone, const std::vector<bool>& alive,
                    PickPolicy policy, geometry::Metric metric, util::Rng* rng,
                    std::vector<ZoneAssignment>& out, StepScratch& scratch) {
  using Survivor = StepScratch::Survivor;
  if (policy == PickPolicy::kRandom && rng == nullptr)
    throw std::invalid_argument("partition_step: kRandom policy requires an rng");
  out.clear();
  auto& survivors = scratch.survivors;
  if (survivors.size() < graph.degree(ego)) survivors.resize(graph.degree(ego));

  // Every neighbour is written to the next free slot, which only the up,
  // in-zone ones advance past: no data-dependent branch. The distance is
  // geometry::distance(metric, ego, q), term for term, so bit-identical.
  const std::size_t dims = graph.dims();
  const double* e = graph.coords(ego).data();
  std::size_t kept = 0;
  for (const overlay::PeerId q : graph.neighbors(ego)) {
    const double* c = graph.coords(q).data();
    bool keep = alive.empty() || alive[q];
    geometry::OrthantCode orthant = 0;
    double dist = 0.0;
    for (std::size_t i = 0; i < dims; ++i) {
      keep = keep & (zone[2 * i] < c[i]) & (c[i] < zone[2 * i + 1]);
      orthant |= geometry::OrthantCode{c[i] > e[i]} << i;
      const double diff = std::abs(e[i] - c[i]);
      if (metric == geometry::Metric::kLInf) dist = std::max(dist, diff);
      else dist += metric == geometry::Metric::kL2 ? diff * diff : diff;
    }
    if (metric == geometry::Metric::kL2) dist = std::sqrt(dist);
    survivors[kept] = Survivor{orthant, q, dist};
    kept += keep ? 1 : 0;
  }
  // Ids are distinct, so (orthant, dist, id) is a total order: each region
  // is one run, in ascending orthant order, sorted by distance then id.
  std::sort(survivors.data(), survivors.data() + kept, [](const auto& a, const auto& b) {
    return std::tie(a.orthant, a.dist, a.id) < std::tie(b.orthant, b.dist, b.id);
  });
  for (std::size_t begin = 0; begin < kept;) {
    std::size_t end = begin + 1;
    while (end < kept && survivors[end].orthant == survivors[begin].orthant) ++end;
    const std::size_t size = end - begin;
    std::size_t pick = 0;
    switch (policy) {
      case PickPolicy::kMedian: pick = (size - 1) / 2; break;
      case PickPolicy::kClosest: pick = 0; break;
      case PickPolicy::kFarthest: pick = size - 1; break;
      case PickPolicy::kRandom: pick = rng->next_below(size); break;
    }
    const Survivor& delegate = survivors[begin + pick];
    out.push_back(ZoneAssignment{delegate.id, delegate.orthant});
    begin = end;
  }
}

}  // namespace geomcast::multicast
