#include "multicast/zone.hpp"

#include <algorithm>

namespace geomcast::multicast {

geometry::Rect child_zone(const geometry::Rect& parent_zone, const geometry::Point& ego,
                          geometry::OrthantCode orthant) {
  // Z(P) ∩ orthant_rect(ego, orthant) without building the orthant: its
  // other bound in each dimension is ±inf, which leaves Z(P)'s bound as
  // is, so only one bound per dimension is clamped (same std::max /
  // std::min operands as Rect::intersect, hence bit-identical).
  geometry::Rect zone = parent_zone;
  for (std::size_t i = 0; i < ego.dims(); ++i) {
    if (orthant & (geometry::OrthantCode{1} << i))
      zone.set_lo(i, std::max(zone.lo(i), ego[i]));
    else
      zone.set_hi(i, std::min(zone.hi(i), ego[i]));
  }
  return zone;
}

}  // namespace geomcast::multicast
