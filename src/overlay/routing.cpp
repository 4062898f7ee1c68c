#include "overlay/routing.hpp"

#include <stdexcept>

namespace geomcast::overlay {

RouteResult route_greedy(const OverlayGraph& graph, PeerId source, PeerId destination,
                         std::size_t max_hops) {
  if (source >= graph.size() || destination >= graph.size())
    throw std::invalid_argument("route_greedy: peer out of range");

  RouteResult result;
  result.path.push_back(source);
  PeerId current = source;

  while (current != destination && result.path.size() <= max_hops) {
    const PeerId next = greedy_next_hop(graph, current, destination);
    if (next == kInvalidPeer) return result;  // stranded: no in-corridor neighbour
    result.path.push_back(next);
    current = next;
  }
  result.delivered = current == destination;
  return result;
}

}  // namespace geomcast::overlay
