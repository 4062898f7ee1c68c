// The empty-rectangle neighbour rule used for the paper's §2 experiments:
// Q ∈ I(P) is a neighbour of P iff the axis-aligned hyper-rectangle spanned
// by the identifiers of P and Q contains no other member of I(P) in its
// strict interior.
//
// Exact rule, ties included. If Q shares a coordinate with P, the box has
// an empty interior: Q is always selected. Such a Q also never blocks
// anyone, because it lies on the boundary of every box P spans. Every
// other R lies strictly inside box(P, Q) iff R sits in Q's open orthant
// (relative to P) and |x(R,i)-x(P,i)| < |x(Q,i)-x(P,i)| in every
// dimension, i.e. R strictly dominates Q. So the neighbours are the
// zero-offset candidates plus the Pareto-minimal candidates of each open
// orthant. Coincident candidates never dominate each other, so both are
// kept, and the result does not depend on candidate order.
//
// n-D: scan the non-zero-offset candidates in (orthant, L1) order and
// test dominance against already-accepted peers only (a dominator has a
// strictly smaller L1 norm, and dominance is transitive):
// O(n·A + n log n) per ego, A = answer size.
//
// 2-D: a staircase. Walking outward from the ego, right then left, a
// point is kept iff its y lies in the band [lo, hi] formed by the nearest
// y above and below the ego's among the points with strictly smaller |dx|
// on its side; equal-x runs are judged as a group against the band at the
// run's start, and a point level with the ego never narrows the band. The
// band compares coordinates, never rounded offsets y - ego_y, so the
// result is the literal rule's even where offsets round. select() sorts its
// candidates by x and walks them: O(n log n) per ego.
//
// equilibrium() builds the full-knowledge 2-D overlay in O((n + E) log n)
// for E undirected edges. The relation is symmetric (box(P, Q) is
// box(Q, P)), so it finds each edge once, from its left end: a pair with
// equal x from its lower index, any other pair by the left point's
// staircase to the right. One pass visits the equal-x runs left to right
// with one min-segment tree over y-rank holding the points right of the
// current run; a leaf holds its point's x-order, so the smallest key is
// always the nearest in x. For each ego, the nearest point whose y-rank
// lies in the band opens the next kept run; the run is judged against the
// band, the band narrows, and the query repeats on the narrower rank range
// until it is empty. Ties are exact, not perturbed: rank bounds come from
// binary search over the same y values the walk compares, and a kept point
// that stays in the narrowed band (level with the ego, or at a y another
// point shares) leaves the tree until the ego is done. The runs are dealt
// to the worker threads round-robin, each advancing its own tree past
// every run; the edge lists go straight into the graph's CSR
// (OverlayGraph::from_mutual_edges). The result does not depend on the
// thread count.
//
// select_brute_force is the literal O(n²)-per-ego rule select() is tested
// against; equilibrium() is tested against select().
#pragma once

#include "overlay/selector.hpp"

namespace geomcast::overlay {

class EmptyRectSelector final : public NeighborSelector {
 public:
  [[nodiscard]] std::vector<PeerId> select(
      const geometry::Point& ego, std::span<const Candidate> candidates) const override;

  /// 2-D: the output-sensitive staircase sweep over the whole point set
  /// (each peer's selection equals select()), written straight into the
  /// CSR. Other dimensions use the per-peer default.
  [[nodiscard]] OverlayGraph equilibrium(const std::vector<geometry::Point>& points,
                                         std::size_t threads) const override;

  [[nodiscard]] std::string name() const override { return "empty-rect"; }

  /// O(n²) reference implementation: literal paper rule, checks every
  /// candidate box against every other candidate.
  [[nodiscard]] static std::vector<PeerId> select_brute_force(
      const geometry::Point& ego, std::span<const Candidate> candidates);
};

}  // namespace geomcast::overlay
