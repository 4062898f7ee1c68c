#include "multicast/range_multicast.hpp"

#include <stdexcept>

#include "multicast/local_rule.hpp"
#include "multicast/zone.hpp"

namespace geomcast::multicast {

RangeMulticastResult build_range_multicast(const overlay::OverlayGraph& graph,
                                           overlay::PeerId root,
                                           const geometry::Rect& target,
                                           const MulticastConfig& config) {
  const std::size_t n = graph.size();
  if (root >= n) throw std::invalid_argument("build_range_multicast: root out of range");
  if (target.dims() != graph.dims())
    throw std::invalid_argument("build_range_multicast: target dimension mismatch");

  RangeMulticastResult result;
  result.tree = MulticastTree(n, root);
  result.is_delivery.assign(n, false);

  util::Rng rng(config.rng_seed);
  util::Rng* rng_ptr = config.policy == PickPolicy::kRandom ? &rng : nullptr;

  struct Pending {
    overlay::PeerId peer;
    geometry::Rect zone;
  };
  std::vector<bool> requested(n, false);
  requested[root] = true;
  std::vector<Pending> queue{Pending{root, initiator_zone(graph.dims())}};

  std::vector<ZoneAssignment> assignments;
  StepScratch scratch;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const Pending current = queue[head];
    if (target.contains_interior(graph.point(current.peer))) {
      result.is_delivery[current.peer] = true;
      ++result.delivered;
    } else {
      ++result.relays;
    }

    // The full §2 step, then prune children whose slice cannot contain any
    // target peer. (Pruning after selection keeps the surviving child zones
    // identical to the whole-space run, so the correctness argument — every
    // target peer of Z(P) lies in exactly one child slice — is untouched.)
    partition_step(graph, current.peer, current.zone.bounds(), {}, config.policy,
                   config.metric, rng_ptr, assignments, scratch);
    for (const ZoneAssignment& a : assignments) {
      Pending child{a.child, current.zone};
      child_zone(current.zone.bounds(), graph.coords(current.peer), a.orthant,
                 child.zone.bounds());
      if (child.zone.intersect(target).interior_empty()) continue;  // no targets inside
      ++result.request_messages;
      if (requested[a.child]) {
        ++result.duplicate_deliveries;
        continue;
      }
      requested[a.child] = true;
      result.tree.add_edge(current.peer, a.child);
      queue.push_back(child);
    }
  }
  return result;
}

std::size_t peers_inside(const overlay::OverlayGraph& graph, const geometry::Rect& target) {
  std::size_t count = 0;
  for (overlay::PeerId p = 0; p < graph.size(); ++p)
    if (target.contains_interior(graph.point(p))) ++count;
  return count;
}

}  // namespace geomcast::multicast
