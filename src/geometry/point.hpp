// D-dimensional virtual coordinates ("identifiers" in the paper's terms).
//
// The paper works in a D-dimensional space with D between 2 and 10 and all
// coordinates in [0, VMAX]. Points therefore use a small inline buffer: no
// heap allocation, trivially copyable, cheap to pass by value.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstddef>
#include <initializer_list>
#include <span>
#include <string>

namespace geomcast::geometry {

/// Maximum supported dimensionality. The paper evaluates up to D=10; we
/// leave headroom without paying for dynamic allocation.
inline constexpr std::size_t kMaxDims = 12;

/// Default coordinate-space bound (the paper's VMAX; any positive value
/// works since every algorithm is scale-invariant).
inline constexpr double kDefaultVmax = 1000.0;

/// A point in D-dimensional space. Fixed capacity, runtime dimension.
class Point {
 public:
  Point() noexcept = default;

  explicit Point(std::size_t dims) noexcept : dims_(dims) {
    assert(dims >= 1 && dims <= kMaxDims);
    coords_.fill(0.0);
  }

  Point(std::initializer_list<double> coords) noexcept : dims_(coords.size()) {
    assert(coords.size() >= 1 && coords.size() <= kMaxDims);
    std::size_t i = 0;
    for (double c : coords) coords_[i++] = c;
  }

  /// Copies `coords`, e.g. a row of overlay::OverlayGraph::coords().
  explicit Point(std::span<const double> coords) noexcept : dims_(coords.size()) {
    assert(coords.size() >= 1 && coords.size() <= kMaxDims);
    std::copy(coords.begin(), coords.end(), coords_.begin());
  }

  [[nodiscard]] std::size_t dims() const noexcept { return dims_; }

  [[nodiscard]] double operator[](std::size_t i) const noexcept {
    assert(i < dims_);
    return coords_[i];
  }
  [[nodiscard]] double& operator[](std::size_t i) noexcept {
    assert(i < dims_);
    return coords_[i];
  }

  [[nodiscard]] bool operator==(const Point& other) const noexcept {
    return dims_ == other.dims_ &&
           std::equal(coords_.begin(), coords_.begin() + dims_, other.coords_.begin());
  }
  [[nodiscard]] bool operator!=(const Point& other) const noexcept {
    return !(*this == other);
  }

  /// Componentwise difference (this - other); dimensions must match.
  [[nodiscard]] Point minus(const Point& other) const noexcept {
    assert(dims_ == other.dims_);
    Point out(dims_);
    for (std::size_t i = 0; i < dims_; ++i) out[i] = coords_[i] - other.coords_[i];
    return out;
  }

  [[nodiscard]] std::string to_string(int decimals = 2) const;

 private:
  std::array<double, kMaxDims> coords_{};
  std::size_t dims_ = 0;
};

}  // namespace geomcast::geometry
