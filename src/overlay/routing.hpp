// Greedy geometric unicast over the overlay — the point-to-point primitive
// the paper's substrate reference ([1], multi-path data transfer) builds
// on, and a second consumer of the empty-rectangle structure.
//
// To route from C to a destination peer B, forward to an overlay neighbour
// strictly inside the box spanned by C and B (preferring the one closest to
// B). On an empty-rectangle overlay at equilibrium such a neighbour always
// exists (the Pareto-descent argument, docs/ALGORITHMS.md §1), it is
// componentwise closer to B in every dimension, so the L1 distance strictly
// decreases and the packet provably arrives. On overlays without the
// coverage property the greedy step can strand; the router detects that and
// reports failure instead of looping.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "overlay/graph.hpp"

namespace geomcast::overlay {

struct RouteResult {
  bool delivered = false;
  /// Visited peers, source first; ends at the destination iff delivered.
  std::vector<PeerId> path;
  [[nodiscard]] std::size_t hops() const noexcept {
    return path.empty() ? 0 : path.size() - 1;
  }
};

/// Routes greedily from `source` to `destination` using only local
/// information at each hop (own coordinates, neighbours' coordinates, the
/// destination identifier carried by the packet). `max_hops` bounds the
/// walk defensively; the default exceeds any N used here.
[[nodiscard]] RouteResult route_greedy(const OverlayGraph& graph, PeerId source,
                                       PeerId destination, std::size_t max_hops = 100000);

/// One greedy step: the neighbour of `current` that route_greedy would
/// forward to next on the way to `destination` (the destination itself if
/// adjacent, else the in-corridor neighbour closest to it in L1), or
/// kInvalidPeer when stranded. `usable(q)` vetoes neighbours — the
/// hop-by-hop protocols use it to route around peers known to have
/// departed. Exposed so message-driven protocols (groups/pubsub) can
/// forward envelopes hop by hop with only local information. Templated on
/// the predicate so the per-neighbour loop stays inlinable on the routing
/// hot path.
template <typename Usable>
[[nodiscard]] PeerId greedy_next_hop(const OverlayGraph& graph, PeerId current,
                                     PeerId destination, Usable&& usable) {
  if (current >= graph.size() || destination >= graph.size())
    throw std::invalid_argument("greedy_next_hop: peer out of range");
  // Reads the flat coordinates like multicast::partition_step: the
  // corridor test and the distance accumulate without data-dependent
  // branches, with the arithmetic of Rect::spanned_by(current,
  // destination).contains_interior and l1_distance(q, destination).
  const double* from = graph.coords(current).data();
  const double* to = graph.coords(destination).data();
  PeerId next = kInvalidPeer;
  double best = 0.0;
  for (PeerId q : graph.neighbors(current)) {
    if (!usable(q)) continue;
    if (q == destination) return q;
    // Only hops strictly inside the corridor make provable progress
    // (componentwise closer to the destination in every dimension).
    const double* c = graph.coords(q).data();
    bool inside = true;
    double dist = 0.0;
    for (std::size_t i = 0; i < graph.dims(); ++i) {
      inside = inside & (std::min(from[i], to[i]) < c[i]) & (c[i] < std::max(from[i], to[i]));
      dist += std::abs(c[i] - to[i]);
    }
    // First strict minimum in neighbour order wins ties.
    if (inside && (next == kInvalidPeer || dist < best)) {
      next = q;
      best = dist;
    }
  }
  return next;
}

[[nodiscard]] inline PeerId greedy_next_hop(const OverlayGraph& graph, PeerId current,
                                            PeerId destination) {
  return greedy_next_hop(graph, current, destination, [](PeerId) { return true; });
}

}  // namespace geomcast::overlay
