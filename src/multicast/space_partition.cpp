#include "multicast/space_partition.hpp"

#include <stdexcept>

#include "multicast/zone.hpp"

namespace geomcast::multicast {

BuildResult build_multicast_tree(const overlay::OverlayGraph& graph, overlay::PeerId root,
                                 const MulticastConfig& config) {
  const std::size_t n = graph.size();
  if (root >= n) throw std::invalid_argument("build_multicast_tree: root out of range");
  const std::size_t dims = graph.dims();

  BuildResult result;
  result.tree = MulticastTree(n, root);
  result.zones.assign(n, geometry::Rect(dims));
  result.zone_assigned.assign(n, false);

  util::Rng rng(config.rng_seed);
  util::Rng* rng_ptr = config.policy == PickPolicy::kRandom ? &rng : nullptr;

  // FIFO processing = breadth-first message wave; the paper implicitly
  // delivers the initiator its own request with the whole space as zone.
  // Each reached peer's zone is its record in result.zones.
  std::vector<overlay::PeerId> queue{root};
  result.zones[root] = initiator_zone(dims);
  result.zone_assigned[root] = true;

  std::vector<ZoneAssignment> assignments;
  StepScratch scratch;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const overlay::PeerId peer = queue[head];
    const std::span<const double> zone = result.zones[peer].bounds();
    partition_step(graph, peer, zone, {}, config.policy, config.metric, rng_ptr, assignments,
                   scratch);
    for (const ZoneAssignment& a : assignments) {
      ++result.request_messages;
      if (result.zone_assigned[a.child]) {
        ++result.duplicate_deliveries;  // protocol violation; validator reports it
        continue;
      }
      result.zone_assigned[a.child] = true;
      child_zone(zone, graph.coords(peer), a.orthant, result.zones[a.child].bounds());
      result.tree.add_edge(peer, a.child);
      queue.push_back(a.child);
    }
  }
  return result;
}

}  // namespace geomcast::multicast
