#include "multicast/validator.hpp"

#include <iterator>
#include <sstream>

#include "geometry/orthant.hpp"

namespace geomcast::multicast {

ValidationReport validate_build(const overlay::OverlayGraph& graph,
                                const BuildResult& result) {
  ValidationReport report;
  const std::size_t n = graph.size();
  const auto& tree = result.tree;

  report.peer_count = n;
  report.reached_count = tree.reached_count();
  report.all_reached = report.reached_count == n;
  report.request_messages = result.request_messages;
  report.message_count_is_n_minus_1 = result.request_messages == n - 1;
  report.duplicate_deliveries = result.duplicate_deliveries;
  report.max_children = tree.max_children();
  report.children_bound_ok =
      report.max_children <= geometry::orthant_count(graph.dims());

  report.peers_inside_zones = true;
  report.child_zones_nested = true;
  report.sibling_zones_disjoint = true;
  report.parent_outside_child_zones = true;

  for (overlay::PeerId p = 0; p < n; ++p) {
    if (!tree.reached(p)) continue;
    const geometry::Rect& zone = result.zones[p];
    if (!zone.contains_interior(graph.point(p))) report.peers_inside_zones = false;

    const auto kids = tree.children(p);
    for (auto i = kids.begin(); i != kids.end(); ++i) {
      const geometry::Rect& child = result.zones[*i];
      if (!child.interior_subset_of(zone)) report.child_zones_nested = false;
      if (child.contains_interior(graph.point(p)))
        report.parent_outside_child_zones = false;
      for (auto j = std::next(i); j != kids.end(); ++j)
        if (!child.interior_disjoint(result.zones[*j]))
          report.sibling_zones_disjoint = false;
    }
  }
  return report;
}

std::string ValidationReport::summary() const {
  std::ostringstream out;
  out << "reached " << reached_count << "/" << peer_count << ", messages "
      << request_messages << " (N-1 " << (message_count_is_n_minus_1 ? "ok" : "VIOLATED")
      << "), duplicates " << duplicate_deliveries << ", max children " << max_children
      << " (bound " << (children_bound_ok ? "ok" : "VIOLATED") << "), zones["
      << (peers_inside_zones ? "inside" : "INSIDE-VIOLATED") << ", "
      << (child_zones_nested ? "nested" : "NESTED-VIOLATED") << ", "
      << (sibling_zones_disjoint ? "disjoint" : "DISJOINT-VIOLATED") << ", "
      << (parent_outside_child_zones ? "parent-excluded" : "PARENT-EXCLUDED-VIOLATED")
      << "]";
  return out.str();
}

}  // namespace geomcast::multicast
