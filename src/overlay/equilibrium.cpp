#include "overlay/equilibrium.hpp"

#include <algorithm>

namespace geomcast::overlay {

OverlayGraph build_equilibrium(const std::vector<geometry::Point>& points,
                               const NeighborSelector& selector, std::size_t threads) {
  return selector.equilibrium(points, threads);
}

bool is_equilibrium(const OverlayGraph& graph, const NeighborSelector& selector) {
  std::vector<geometry::Point> points;
  for (PeerId p = 0; p < graph.size(); ++p) points.push_back(graph.point(p));
  for (PeerId p = 0; p < graph.size(); ++p) {
    auto fresh = selector.select(points[p], candidates_excluding(points, p));
    std::sort(fresh.begin(), fresh.end());
    if (fresh != graph.selected(p)) return false;
  }
  return true;
}

}  // namespace geomcast::overlay
