// Full-knowledge equilibrium construction.
//
// The paper defines the target topology of a neighbour-selection method as
// the one reached "when every peer P knows all the other peers in the
// system (i.e. when I(P) contains all the peers except P)". This builder
// computes that topology directly — NeighborSelector::select_all, whose
// default runs each peer's selector over the complete candidate set — and
// is what the figure benches use; the gossip protocol (gossip.hpp) and the
// incremental builder (incremental.hpp) are tested to converge to
// (approximately) the same graph.
#pragma once

#include <cstddef>

#include "overlay/graph.hpp"
#include "overlay/selector.hpp"

namespace geomcast::overlay {

/// The full-knowledge overlay: OverlayGraph(points,
/// selector.select_all(points, threads)). Every peer's out-list equals
/// selector.select over all other peers; selectors may share work across
/// peers (EmptyRectSelector's 2-D staircase sorts the point set once).
/// `threads` = 0 picks a sensible hardware default; the result does not
/// depend on the thread count.
[[nodiscard]] OverlayGraph build_equilibrium(const std::vector<geometry::Point>& points,
                                             const NeighborSelector& selector,
                                             std::size_t threads = 0);

/// True iff the graph is a fixed point of the selector under full
/// knowledge: re-running selection changes no peer's out-set. Holds by
/// construction for build_equilibrium; used as a sanity property in tests
/// and for graphs produced by the incremental/gossip paths.
[[nodiscard]] bool is_equilibrium(const OverlayGraph& graph, const NeighborSelector& selector);

}  // namespace geomcast::overlay
