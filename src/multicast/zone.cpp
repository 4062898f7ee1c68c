#include "multicast/zone.hpp"

#include <algorithm>

namespace geomcast::multicast {

void child_zone(std::span<const double> parent, std::span<const double> ego,
                geometry::OrthantCode orthant, std::span<double> child) {
  // Z(P) ∩ orthant_rect(ego, orthant) without building the orthant: its
  // other bound in each dimension is ±inf, which leaves Z(P)'s bound as
  // is, so only one bound per dimension is clamped (same std::max /
  // std::min operands as Rect::intersect, hence bit-identical).
  for (std::size_t i = 0; i < ego.size(); ++i) {
    const double lo = parent[2 * i], hi = parent[2 * i + 1];
    const bool above = (orthant >> i) & 1;
    child[2 * i] = above ? std::max(lo, ego[i]) : lo;
    child[2 * i + 1] = above ? hi : std::min(hi, ego[i]);
  }
}

}  // namespace geomcast::multicast
