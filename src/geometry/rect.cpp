#include "geometry/rect.hpp"

#include <algorithm>

#include "util/stats.hpp"

namespace geomcast::geometry {

Rect Rect::whole_space(std::size_t dims) noexcept { return cube(dims, -kInf, kInf); }

Rect Rect::cube(std::size_t dims, double lo, double hi) noexcept {
  Rect rect(dims);
  for (std::size_t i = 0; i < dims; ++i) {
    rect.set_lo(i, lo);
    rect.set_hi(i, hi);
  }
  return rect;
}

Rect Rect::spanned_by(const Point& a, const Point& b) noexcept {
  assert(a.dims() == b.dims());
  Rect rect(a.dims());
  for (std::size_t i = 0; i < a.dims(); ++i) {
    rect.set_lo(i, std::min(a[i], b[i]));
    rect.set_hi(i, std::max(a[i], b[i]));
  }
  return rect;
}

bool Rect::contains_interior(const Point& p) const noexcept {
  assert(p.dims() == dims_);
  for (std::size_t i = 0; i < dims_; ++i)
    if (!(lo(i) < p[i] && p[i] < hi(i))) return false;
  return true;
}

bool Rect::contains_closed(const Point& p) const noexcept {
  assert(p.dims() == dims_);
  for (std::size_t i = 0; i < dims_; ++i)
    if (!(lo(i) <= p[i] && p[i] <= hi(i))) return false;
  return true;
}

bool Rect::interior_empty() const noexcept {
  for (std::size_t i = 0; i < dims_; ++i)
    if (!(lo(i) < hi(i))) return true;
  return false;
}

Rect Rect::intersect(const Rect& other) const noexcept {
  assert(dims_ == other.dims_);
  Rect rect(dims_);
  for (std::size_t i = 0; i < dims_; ++i) {
    rect.set_lo(i, std::max(lo(i), other.lo(i)));
    rect.set_hi(i, std::min(hi(i), other.hi(i)));
  }
  return rect;
}

bool Rect::interior_subset_of(const Rect& other) const noexcept {
  assert(dims_ == other.dims_);
  if (interior_empty()) return true;  // empty set is a subset of anything
  for (std::size_t i = 0; i < dims_; ++i)
    if (lo(i) < other.lo(i) || hi(i) > other.hi(i)) return false;
  return true;
}

bool Rect::operator==(const Rect& other) const noexcept {
  return dims_ == other.dims_ && std::ranges::equal(bounds(), other.bounds());
}

std::string Rect::to_string(int decimals) const {
  auto bound = [&](double v) -> std::string {
    if (v == kInf) return "+inf";
    if (v == -kInf) return "-inf";
    return util::format_number(v, decimals);
  };
  std::string out;
  for (std::size_t i = 0; i < dims_; ++i) {
    if (i) out += " x ";
    out += "(" + bound(lo(i)) + ", " + bound(hi(i)) + ")";
  }
  return out;
}

}  // namespace geomcast::geometry
