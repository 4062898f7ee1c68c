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
// 2-D: one staircase routine over an x-sorted sequence. It walks outward
// from the ego, right then left, keeping one running |dy| minimum per side
// (above / below). A point is kept iff its |dy| is <= the minimum among
// points with strictly smaller |dx| on its side; equal-|dx| runs are
// judged as a group against the bound at the run's start. select() sorts
// its candidates by x once (O(n log n) per ego). select_all() sorts the
// whole point set by x once per build and walks from each ego's rank:
// O(n log n + n²) total with no candidate copy and no per-ego sort.
//
// select_brute_force is the literal O(n²)-per-ego rule the fast paths are
// tested against.
#pragma once

#include "overlay/selector.hpp"

namespace geomcast::overlay {

class EmptyRectSelector final : public NeighborSelector {
 public:
  [[nodiscard]] std::vector<PeerId> select(
      const geometry::Point& ego, std::span<const Candidate> candidates) const override;

  /// 2-D: the shared x-sorted staircase over the whole point set. Other
  /// dimensions use the per-peer default.
  [[nodiscard]] std::vector<std::vector<PeerId>> select_all(
      const std::vector<geometry::Point>& points, std::size_t threads) const override;

  [[nodiscard]] std::string name() const override { return "empty-rect"; }

  /// O(n²) reference implementation: literal paper rule, checks every
  /// candidate box against every other candidate.
  [[nodiscard]] static std::vector<PeerId> select_brute_force(
      const geometry::Point& ego, std::span<const Candidate> candidates);
};

}  // namespace geomcast::overlay
