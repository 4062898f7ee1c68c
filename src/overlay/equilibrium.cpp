#include "overlay/equilibrium.hpp"

#include <algorithm>

namespace geomcast::overlay {

OverlayGraph build_equilibrium(const std::vector<geometry::Point>& points,
                               const NeighborSelector& selector, std::size_t threads) {
  return OverlayGraph(points, selector.select_all(points, threads));
}

bool is_equilibrium(const OverlayGraph& graph, const NeighborSelector& selector) {
  for (PeerId p = 0; p < graph.size(); ++p) {
    const auto candidates = candidates_excluding(graph.points(), p);
    auto fresh = selector.select(graph.point(p), candidates);
    std::sort(fresh.begin(), fresh.end());
    if (fresh != graph.selected(p)) return false;
  }
  return true;
}

}  // namespace geomcast::overlay
