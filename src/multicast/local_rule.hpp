// The per-peer forwarding rule of the space-partitioning algorithm (§2).
// This single function is the whole "decentralized" core: it uses only
// information a real peer has locally — its own coordinates, the zone
// description from the incoming request, and the identifiers of its overlay
// neighbours. Every construction (synchronous builder, range multicast,
// message-driven protocol, pub/sub group trees and their grafts) calls it,
// so they provably make identical decisions. It runs once per construction
// message: one branch-free pass over the neighbour ids on the overlay's
// flat coordinates (OverlayGraph::coords), then one sort of the survivors
// by (orthant, distance, id). It returns (child, orthant) per region, and
// a caller builds a child's zone (child_zone) only where it keeps one.
// Result and survivors live in caller-owned buffers, so once those have
// grown to the largest degree seen, a step allocates nothing.
#pragma once

#include <span>
#include <vector>

#include "geometry/distance.hpp"
#include "geometry/orthant.hpp"
#include "multicast/pick_policy.hpp"
#include "overlay/graph.hpp"
#include "util/rng.hpp"

namespace geomcast::multicast {

/// A delegated slice of the ego's zone: child_zone(zone, ego, orthant).
struct ZoneAssignment {
  overlay::PeerId child = overlay::kInvalidPeer;
  geometry::OrthantCode orthant = 0;
};

/// partition_step's reusable scratch (the in-zone neighbours of a step).
struct StepScratch {
  struct Survivor {
    geometry::OrthantCode orthant;
    overlay::PeerId id;
    double dist;
  };
  std::vector<Survivor> survivors;
};

/// Executes one step of the paper's rule at peer `ego`, which received
/// responsibility zone `zone` (2·dims bounds, see zone.hpp):
///   1. keep only the neighbours that are up (`alive[q]`; an empty mask
///      means everyone is) and strictly inside `zone`;
///   2. classify them into orthant regions relative to `ego` (Orthogonal
///      Hyperplanes classification);
///   3. sort each region by distance (paper: L1), ties by id, and select
///      one delegate per `policy` (paper: median; lower median for even
///      sizes);
///   4. delegate `zone ∩ orthant half-space` to each selected neighbour,
///      named by its (child, orthant).
/// Replaces `out` with one assignment per occupied region in ascending
/// orthant order. `rng` is only consulted by PickPolicy::kRandom, once per
/// region in that order (may be null otherwise).
void partition_step(const overlay::OverlayGraph& graph, overlay::PeerId ego,
                    std::span<const double> zone, const std::vector<bool>& alive,
                    PickPolicy policy, geometry::Metric metric, util::Rng* rng,
                    std::vector<ZoneAssignment>& out, StepScratch& scratch);

}  // namespace geomcast::multicast
