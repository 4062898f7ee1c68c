// Responsibility zones (paper §2). Z(P) is the open axis-aligned
// hyper-rectangle of the coordinate space that P must deliver the multicast
// data to, directly or indirectly. The initiator's zone is the whole space;
// a child selected in some orthant region of P receives Z(P) clipped to
// that orthant's open half-space product.
//
// A zone travels as 2·dims bounds (lo_0, hi_0, lo_1, hi_1, ...), the
// layout of geometry::Rect::bounds(), built only for slices that are kept.
#pragma once

#include <span>

#include "geometry/orthant.hpp"
#include "geometry/rect.hpp"

namespace geomcast::multicast {

/// Zone of the multicast initiator: the entire virtual coordinate space.
[[nodiscard]] inline geometry::Rect initiator_zone(std::size_t dims) {
  return geometry::Rect::whole_space(dims);
}

/// Writes Z(Q) = Z(P) ∩ HR to `child`, where HR's side in dimension i is
/// (-inf, x(P,i)) if x(Q,i) < x(P,i), else (x(P,i), +inf) — exactly the
/// paper's rule. `ego` is P's coordinates and the orthant code must be
/// `orthant_of(ego, q)` for the chosen child q. `child` may be `parent`.
void child_zone(std::span<const double> parent, std::span<const double> ego,
                geometry::OrthantCode orthant, std::span<double> child);

/// Whether `q` lies strictly in orthant `orthant` of `ego`: for q strictly
/// inside Z(P), exactly whether q lies in child_zone(Z(P), ego, orthant).
[[nodiscard]] inline bool in_orthant(std::span<const double> ego, std::span<const double> q,
                                     geometry::OrthantCode orthant) {
  for (std::size_t i = 0; i < ego.size(); ++i)
    if (((orthant >> i) & 1) ? !(ego[i] < q[i]) : !(q[i] < ego[i])) return false;
  return true;
}

}  // namespace geomcast::multicast
