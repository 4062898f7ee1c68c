// Neighbour-selection strategy interface (the paper's "neighbour selection
// method"): given the ego peer's coordinates and its knowledge set I(P),
// produce the set of overlay neighbours. Implementations must be
// deterministic functions of their inputs so that (a) the overlay converges
// to an equilibrium and (b) seeded experiments reproduce exactly.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "geometry/point.hpp"
#include "overlay/peer.hpp"

namespace geomcast::overlay {

class NeighborSelector {
 public:
  virtual ~NeighborSelector() = default;

  /// Selects neighbours for `ego` among `candidates` (I(P), ego excluded).
  /// Returns peer ids sorted ascending. Candidates may arrive in any order;
  /// the result must not depend on it.
  [[nodiscard]] virtual std::vector<PeerId> select(
      const geometry::Point& ego, std::span<const Candidate> candidates) const = 0;

  /// Full-knowledge selection for every peer: entry p equals
  /// select(points[p], candidates_excluding(points, p)). The default runs
  /// that per-peer loop on `threads` workers (0 = hardware default);
  /// selectors with a shared-work algorithm for the whole point set
  /// override it. The result never depends on the thread count.
  [[nodiscard]] virtual std::vector<std::vector<PeerId>> select_all(
      const std::vector<geometry::Point>& points, std::size_t threads) const;

  /// Human-readable name for tables and logs.
  [[nodiscard]] virtual std::string name() const = 0;
};

/// Splits peers [0, n) into contiguous chunks and runs `body(begin, end)`
/// for each on up to `threads` worker threads (0 = hardware default,
/// 1 = inline on the caller). Chunks never overlap, so bodies that write
/// only their own peers' slots need no locking.
void for_each_peer_chunk(std::size_t n, std::size_t threads,
                         const std::function<void(std::size_t, std::size_t)>& body);

/// Convenience: builds the candidate vector for `ego_id` from a full point
/// set (the "full knowledge" I(P) of the equilibrium definition).
[[nodiscard]] std::vector<Candidate> candidates_excluding(
    const std::vector<geometry::Point>& points, PeerId ego_id);

}  // namespace geomcast::overlay
