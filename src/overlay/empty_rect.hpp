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
// point is kept iff its dy = y - ego_y lies in the band [lo, hi] formed by
// the nearest |dy| above and below among the points with strictly smaller
// |dx| on its side; equal-x runs are judged as a group against the band at
// the run's start, and dy == 0 never narrows the band. select() sorts its
// candidates by x and walks them: O(n log n) per ego.
//
// select_all() computes the same staircases for the whole point set in
// O((n + E) log n) for E out-edges. One pass visits the equal-x runs left
// to right with two min-segment trees over y-rank, one per side, holding
// the points to the left and to the right of the current run; a leaf holds
// its point's x-order, mirrored on the left so the smallest key is always
// the nearest in x. For each ego, the nearest point of a side whose y-rank
// lies in the band opens the next kept run; the run is judged against the
// band, the band narrows, and the query repeats on the narrower rank range
// until it is empty. Ties are exact, not perturbed: rank bounds come from
// binary search over the same rounded dy the walk compares, and a kept
// point that stays in the narrowed band (dy == 0, or a dy another point
// shares) leaves its tree until the ego is done. Each worker thread sweeps
// a contiguous range of whole runs with its own trees and writes its egos'
// out-lists at their exact size; the result does not depend on the thread
// count.
//
// select_brute_force is the literal O(n²)-per-ego rule select() is tested
// against; select_all() is tested against select().
#pragma once

#include "overlay/selector.hpp"

namespace geomcast::overlay {

class EmptyRectSelector final : public NeighborSelector {
 public:
  [[nodiscard]] std::vector<PeerId> select(
      const geometry::Point& ego, std::span<const Candidate> candidates) const override;

  /// 2-D: the output-sensitive staircase sweep over the whole point set
  /// (equal to select() for every peer). Other dimensions use the per-peer
  /// default.
  [[nodiscard]] std::vector<std::vector<PeerId>> select_all(
      const std::vector<geometry::Point>& points, std::size_t threads) const override;

  [[nodiscard]] std::string name() const override { return "empty-rect"; }

  /// O(n²) reference implementation: literal paper rule, checks every
  /// candidate box against every other candidate.
  [[nodiscard]] static std::vector<PeerId> select_brute_force(
      const geometry::Point& ego, std::span<const Candidate> candidates);
};

}  // namespace geomcast::overlay
