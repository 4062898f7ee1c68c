#include "overlay/grid_knn.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "geometry/distance.hpp"

namespace geomcast::overlay {
namespace {

/// Uniform bucket grid over the point set's bounding box: m cells per
/// axis, m chosen for a small constant expected occupancy.
struct BucketGrid {
  std::size_t dims = 0;
  std::size_t m = 1;               // cells per axis
  double min_width = 1.0;          // narrowest cell extent across axes
  std::vector<double> lo;          // per-axis box minimum
  std::vector<double> width;       // per-axis cell extent (> 0)
  std::vector<std::vector<PeerId>> cells;  // row-major, m^dims buckets

  explicit BucketGrid(const std::vector<geometry::Point>& points) {
    dims = points.front().dims();
    const std::size_t n = points.size();
    // ~2 points per cell keeps ring scans short without blowing up the
    // cell count; one cell per axis would degenerate to brute force.
    const double per_axis =
        std::pow(static_cast<double>(n) / 2.0, 1.0 / static_cast<double>(dims));
    m = std::max<std::size_t>(1, static_cast<std::size_t>(per_axis));
    // Guard the bucket count: m^dims cells must stay O(n).
    while (m > 1 && std::pow(static_cast<double>(m), static_cast<double>(dims)) >
                        2.0 * static_cast<double>(n))
      --m;

    lo.assign(dims, std::numeric_limits<double>::infinity());
    std::vector<double> hi(dims, -std::numeric_limits<double>::infinity());
    for (const auto& p : points)
      for (std::size_t a = 0; a < dims; ++a) {
        lo[a] = std::min(lo[a], p[a]);
        hi[a] = std::max(hi[a], p[a]);
      }
    width.resize(dims);
    min_width = std::numeric_limits<double>::infinity();
    for (std::size_t a = 0; a < dims; ++a) {
      const double extent = hi[a] - lo[a];
      width[a] = extent > 0.0 ? extent / static_cast<double>(m) : 1.0;
      min_width = std::min(min_width, width[a]);
    }

    std::size_t bucket_count = 1;
    for (std::size_t a = 0; a < dims; ++a) bucket_count *= m;
    cells.resize(bucket_count);
    for (PeerId p = 0; p < n; ++p) cells[bucket_of(points[p])].push_back(p);
  }

  [[nodiscard]] std::size_t axis_cell(const geometry::Point& p, std::size_t a) const {
    const auto c = static_cast<std::ptrdiff_t>((p[a] - lo[a]) / width[a]);
    return static_cast<std::size_t>(
        std::clamp<std::ptrdiff_t>(c, 0, static_cast<std::ptrdiff_t>(m) - 1));
  }

  [[nodiscard]] std::size_t bucket_of(const geometry::Point& p) const {
    std::size_t idx = 0;
    for (std::size_t a = 0; a < dims; ++a) idx = idx * m + axis_cell(p, a);
    return idx;
  }

  /// Visits every bucket whose cell coordinates lie at Chebyshev distance
  /// exactly `r` from `center` (distance 0 = the center cell itself).
  template <typename Fn>
  void for_ring(const std::vector<std::size_t>& center, std::size_t r, Fn&& fn) const {
    std::vector<std::ptrdiff_t> offset(dims, -static_cast<std::ptrdiff_t>(r));
    const auto radius = static_cast<std::ptrdiff_t>(r);
    while (true) {
      std::ptrdiff_t linf = 0;
      bool in_grid = true;
      std::size_t idx = 0;
      for (std::size_t a = 0; a < dims && in_grid; ++a) {
        linf = std::max(linf, std::abs(offset[a]));
        const auto c = static_cast<std::ptrdiff_t>(center[a]) + offset[a];
        if (c < 0 || c >= static_cast<std::ptrdiff_t>(m))
          in_grid = false;
        else
          idx = idx * m + static_cast<std::size_t>(c);
      }
      if (in_grid && linf == radius) fn(cells[idx]);
      // Mixed-radix increment over [-r, r]^dims.
      std::size_t a = dims;
      while (a > 0) {
        --a;
        if (++offset[a] <= radius) break;
        offset[a] = -radius;
        if (a == 0) return;
      }
      if (a == 0 && offset[0] == -radius) return;  // wrapped the whole counter
    }
  }
};

}  // namespace

std::vector<std::vector<PeerId>> grid_knn(const std::vector<geometry::Point>& points,
                                          std::size_t k) {
  const std::size_t n = points.size();
  if (n == 0) return {};
  if (k == 0) throw std::invalid_argument("grid_knn: k must be >= 1");
  const BucketGrid grid(points);

  std::vector<std::vector<PeerId>> result(n);
  std::vector<std::pair<double, PeerId>> found;  // (squared distance, id)
  std::vector<std::size_t> center(grid.dims);
  for (PeerId p = 0; p < n; ++p) {
    found.clear();
    for (std::size_t a = 0; a < grid.dims; ++a)
      center[a] = grid.axis_cell(points[p], a);
    for (std::size_t r = 0; r <= grid.m; ++r) {
      grid.for_ring(center, r, [&](const std::vector<PeerId>& cell) {
        for (const PeerId q : cell) {
          if (q == p) continue;
          found.emplace_back(geometry::l2_distance_sq(points[p], points[q]), q);
        }
      });
      // Certification: every unseen point sits in a cell at Chebyshev
      // cell-distance >= r+1, hence at least r whole cells — r*min_width
      // of coordinate gap — away along some axis. Once the kth-best
      // candidate is closer than that, no later ring can displace it.
      if (found.size() >= k) {
        std::nth_element(found.begin(), found.begin() + (k - 1), found.end());
        const double bound = static_cast<double>(r) * grid.min_width;
        if (found[k - 1].first <= bound * bound) break;
      }
    }
    std::sort(found.begin(), found.end());
    if (found.size() > k) found.resize(k);
    result[p].reserve(found.size());
    for (const auto& [d, q] : found) result[p].push_back(q);
  }
  return result;
}

OverlayGraph build_equilibrium_local(const std::vector<geometry::Point>& points,
                                     const NeighborSelector& selector, std::size_t k) {
  const std::size_t n = points.size();
  std::vector<std::vector<PeerId>> out(n);
  if (n <= 1) return OverlayGraph(points, std::move(out));
  const auto knowledge = grid_knn(points, k);
  std::vector<Candidate> candidates;
  for (PeerId p = 0; p < n; ++p) {
    candidates.clear();
    candidates.reserve(knowledge[p].size());
    for (const PeerId q : knowledge[p]) candidates.push_back({q, points[q]});
    out[p] = selector.select(points[p], candidates);
  }
  return OverlayGraph(points, std::move(out));
}

}  // namespace geomcast::overlay
