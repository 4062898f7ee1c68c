// Axis-aligned hyper-rectangles.
//
// Two uses in the paper:
//  * responsibility zones Z(P) — always the *strict interior* of an
//    axis-aligned hyper-rectangle, possibly unbounded on some sides
//    (sides of the form (-inf, x) or (x, +inf) appear during zone splits);
//  * the empty-rectangle neighbour rule — the closed box spanned by two
//    points must contain no third peer.
//
// Rect stores per-dimension lower/upper bounds (±infinity allowed) and
// offers both strict-interior and closed containment.
#pragma once

#include <cassert>
#include <limits>
#include <optional>
#include <span>
#include <string>

#include "geometry/point.hpp"

namespace geomcast::geometry {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

class Rect {
 public:
  Rect() noexcept = default;

  /// Degenerate rect (lo == hi == 0 in every dimension); use the factories.
  explicit Rect(std::size_t dims) noexcept : dims_(dims) { assert(dims >= 1 && dims <= kMaxDims); }

  /// The whole D-dimensional space: (-inf, +inf) in every dimension.
  [[nodiscard]] static Rect whole_space(std::size_t dims) noexcept;

  /// The box [lo, hi]^D with the same scalar bounds in every dimension.
  [[nodiscard]] static Rect cube(std::size_t dims, double lo, double hi) noexcept;

  /// The box spanned by two corner points:
  /// side i = [min(a_i, b_i), max(a_i, b_i)]  (paper's empty-rectangle test).
  [[nodiscard]] static Rect spanned_by(const Point& a, const Point& b) noexcept;

  [[nodiscard]] std::size_t dims() const noexcept { return dims_; }
  /// The 2·dims() bounds (lo_0, hi_0, lo_1, hi_1, ...): multicast/zone.hpp's zone layout.
  [[nodiscard]] std::span<const double> bounds() const noexcept {
    return {bounds_.data(), 2 * dims_};
  }
  [[nodiscard]] std::span<double> bounds() noexcept { return {bounds_.data(), 2 * dims_}; }
  [[nodiscard]] double lo(std::size_t i) const noexcept { return bounds()[2 * i]; }
  [[nodiscard]] double hi(std::size_t i) const noexcept { return bounds()[2 * i + 1]; }
  void set_lo(std::size_t i, double v) noexcept { bounds()[2 * i] = v; }
  void set_hi(std::size_t i, double v) noexcept { bounds()[2 * i + 1] = v; }

  /// Strict-interior membership: lo_i < x_i < hi_i for all i. This is the
  /// containment used for responsibility zones ("(strict) interior").
  [[nodiscard]] bool contains_interior(const Point& p) const noexcept;

  /// Closed membership: lo_i <= x_i <= hi_i for all i (empty-rect test).
  [[nodiscard]] bool contains_closed(const Point& p) const noexcept;

  /// True if the strict interior is empty (some lo_i >= hi_i).
  [[nodiscard]] bool interior_empty() const noexcept;

  /// Componentwise intersection (max of lows, min of highs). The result may
  /// have an empty interior; check interior_empty().
  [[nodiscard]] Rect intersect(const Rect& other) const noexcept;

  /// True if the strict interiors of the two rects are disjoint.
  [[nodiscard]] bool interior_disjoint(const Rect& other) const noexcept {
    return intersect(other).interior_empty();
  }

  /// True if every point of this rect's interior lies in other's interior.
  [[nodiscard]] bool interior_subset_of(const Rect& other) const noexcept;

  [[nodiscard]] bool operator==(const Rect& other) const noexcept;
  [[nodiscard]] bool operator!=(const Rect& other) const noexcept { return !(*this == other); }

  [[nodiscard]] std::string to_string(int decimals = 2) const;

 private:
  std::array<double, 2 * kMaxDims> bounds_{};
  std::size_t dims_ = 0;
};

}  // namespace geomcast::geometry
