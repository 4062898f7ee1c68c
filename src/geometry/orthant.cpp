#include "geometry/orthant.hpp"

#include <cassert>

namespace geomcast::geometry {

OrthantCode orthant_of(const Point& ego, const Point& q) noexcept {
  assert(ego.dims() == q.dims());
  OrthantCode code = 0;
  for (std::size_t i = 0; i < ego.dims(); ++i)
    if (q[i] > ego[i]) code |= OrthantCode{1} << i;
  return code;
}

Rect orthant_rect(const Point& ego, OrthantCode code) noexcept {
  Rect rect = Rect::whole_space(ego.dims());
  for (std::size_t i = 0; i < ego.dims(); ++i) {
    if (code & (OrthantCode{1} << i))
      rect.set_lo(i, ego[i]);
    else
      rect.set_hi(i, ego[i]);
  }
  return rect;
}

}  // namespace geomcast::geometry
