// The overlay topology: the undirected union of every peer's selection as
// one CSR adjacency, with a bit per entry for "p selected q", and each
// peer's coordinates stored once, at stride dims(). The paper reports
// degree statistics over it (Fig 1 a, c) and runs both trees on it.
//
// Two ways in: the constructor merges per-peer selections (any relation),
// and from_mutual_edges writes a symmetric selection, given as undirected
// edges, straight into the CSR (the 2-D empty-rect build).
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "geometry/point.hpp"
#include "overlay/peer.hpp"

namespace geomcast::overlay {

class OverlayGraph {
 public:
  OverlayGraph() = default;

  /// Builds from per-peer selections. `out[p]` is the list of peers p chose
  /// (sorted or not, duplicates allowed). The undirected adjacency is the
  /// union p~q iff p chose q or q chose p — a peer that selects q will
  /// exchange traffic with q regardless of whether q reciprocates.
  OverlayGraph(const std::vector<geometry::Point>& points, std::vector<std::vector<PeerId>> out);

  /// An undirected edge {a, b} of a symmetric selection.
  using Edge = std::pair<PeerId, PeerId>;
  /// Builds from a symmetric selection: each edge {p, q} means p chose q
  /// and q chose p, so every entry's selection bit is set. Each edge comes
  /// once, in either orientation, in any order, split over any number of
  /// lists (freed once read). Counts the degrees, prefix-sums them,
  /// scatters both ends and sorts each row by one transpose: no per-peer
  /// lists, no comparison sort and no merge. Throws std::invalid_argument
  /// on an id >= points.size(), a self edge or an edge given twice.
  [[nodiscard]] static OverlayGraph from_mutual_edges(const std::vector<geometry::Point>& points,
                                                      std::vector<std::vector<Edge>> edges);

  [[nodiscard]] std::size_t size() const noexcept {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  [[nodiscard]] std::size_t dims() const noexcept { return dims_; }
  /// Peer p's coordinates, read from one flat array at stride dims() that
  /// the constructor copies from the points. The per-hop geometry
  /// (multicast::partition_step, greedy_next_hop) scans whole neighbour
  /// lists through this: dims() doubles per peer instead of a Point padded
  /// to kMaxDims. Unchecked: p must be < size().
  [[nodiscard]] std::span<const double> coords(PeerId p) const noexcept {
    return {coords_.data() + static_cast<std::size_t>(p) * dims_, dims_};
  }
  /// Peer p's coordinates as a Point. Throws std::out_of_range for
  /// p >= size(): the at() runs before the Point is built.
  [[nodiscard]] geometry::Point point(PeerId p) const {
    return geometry::Point(std::span(&coords_.at(std::size_t{p} * dims_), dims_));
  }

  /// Peers p selected (its own selection, sorted ascending).
  [[nodiscard]] std::vector<PeerId> selected(PeerId p) const;
  /// Undirected neighbourhood (sorted ascending, no duplicates). Throws
  /// std::out_of_range for p >= size(): the at() runs before offsets_[p].
  [[nodiscard]] std::span<const PeerId> neighbors(PeerId p) const {
    return std::span(adjacency_).first(offsets_.at(std::size_t{p} + 1)).subspan(offsets_[p]);
  }

  [[nodiscard]] bool has_edge(PeerId a, PeerId b) const {
    return std::ranges::binary_search(neighbors(a), b);
  }
  [[nodiscard]] std::size_t degree(PeerId p) const { return neighbors(p).size(); }
  /// Number of undirected edges.
  [[nodiscard]] std::size_t edge_count() const noexcept { return adjacency_.size() / 2; }

  [[nodiscard]] bool operator==(const OverlayGraph& other) const {
    return dims_ == other.dims_ && coords_ == other.coords_ && offsets_ == other.offsets_ &&
           adjacency_ == other.adjacency_;
  }

 private:
  /// Copies the points into coords_ at stride dims().
  void set_coords(const std::vector<geometry::Point>& points);

  std::size_t dims_ = 0;
  std::vector<double> coords_;  // size() x dims(), row p = coords(p)
  // Row p is adjacency_[offsets_[p], offsets_[p + 1]); chose_[i]: p chose adjacency_[i].
  std::vector<std::size_t> offsets_;
  std::vector<PeerId> adjacency_;
  std::vector<bool> chose_;
};

}  // namespace geomcast::overlay
