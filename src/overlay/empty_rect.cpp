#include "overlay/empty_rect.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "geometry/orthant.hpp"
#include "geometry/rect.hpp"

namespace geomcast::overlay {

namespace {

/// Candidate enriched with its offset magnitudes from the ego peer.
struct Offset {
  PeerId id;
  geometry::OrthantCode orthant;
  double l1;
  std::array<double, geometry::kMaxDims> abs_delta;
};

/// True iff `a` dominates `b` componentwise (strictly closer to the ego in
/// every dimension). Both must belong to the same orthant.
bool dominates(const Offset& a, const Offset& b, std::size_t dims) noexcept {
  for (std::size_t i = 0; i < dims; ++i)
    if (a.abs_delta[i] >= b.abs_delta[i]) return false;
  return true;
}

/// A peer reduced to what the 2-D staircase reads.
struct PointXY {
  double x, y;
  PeerId id;
};

bool by_x(const PointXY& a, const PointXY& b) noexcept { return a.x < b.x; }

/// Walks [first, last) — one side of the ego along an x-sorted sequence,
/// so |dx| never decreases and is never zero — and appends every point
/// whose |dy| is <= the smallest |dy| on its side of the ego (above or
/// below) among the points already passed with a strictly smaller |dx|.
/// Both minima together form a band lo <= dy <= hi around the ego's row;
/// points with dy == 0 are always inside it and never narrow it. Equal-x
/// runs are judged against the band at the run's start, so the walk order
/// inside a run does not matter.
template <typename It>
void walk_staircase(It first, It last, double ego_y, std::vector<PeerId>& out) {
  double lo = -geometry::kInf, hi = geometry::kInf;            // band at the run's start
  double seen_lo = -geometry::kInf, seen_hi = geometry::kInf;  // band after every point passed
  double run_x = first == last ? 0.0 : first->x;
  for (; first != last; ++first) {
    if (first->x != run_x) {
      lo = seen_lo;
      hi = seen_hi;
      run_x = first->x;
    }
    const double dy = first->y - ego_y;
    if (lo <= dy && dy <= hi) out.push_back(first->id);
    if (dy > 0.0) seen_hi = std::min(seen_hi, dy);
    if (dy < 0.0) seen_lo = std::max(seen_lo, dy);
  }
}

/// The shared 2-D staircase: neighbours of an ego at height `ego_y` whose
/// x is shared by exactly the points sorted[lo, hi) (`skip` — the ego's
/// own id, if it is in `sorted` — excluded). Those equal-x points have a
/// zero x-offset and are always kept; the rest are walked outward, right
/// then left. Appends unsorted.
void staircase(std::span<const PointXY> sorted, std::size_t lo, std::size_t hi,
               double ego_y, PeerId skip, std::vector<PeerId>& out) {
  for (std::size_t i = lo; i < hi; ++i)
    if (sorted[i].id != skip) out.push_back(sorted[i].id);
  walk_staircase(sorted.begin() + static_cast<std::ptrdiff_t>(hi), sorted.end(), ego_y, out);
  walk_staircase(std::make_reverse_iterator(sorted.begin() + static_cast<std::ptrdiff_t>(lo)),
                 sorted.rend(), ego_y, out);
}

std::vector<PeerId> select_2d(const geometry::Point& ego,
                              std::span<const Candidate> candidates) {
  std::vector<PointXY> sorted;
  sorted.reserve(candidates.size());
  for (const Candidate& c : candidates) sorted.push_back(PointXY{c.point[0], c.point[1], c.id});
  std::sort(sorted.begin(), sorted.end(), by_x);
  const double x = ego[0];
  const auto lo = std::partition_point(sorted.begin(), sorted.end(),
                                       [x](const PointXY& p) { return p.x < x; });
  const auto hi =
      std::partition_point(lo, sorted.end(), [x](const PointXY& p) { return p.x == x; });
  std::vector<PeerId> result;
  staircase(sorted, static_cast<std::size_t>(lo - sorted.begin()),
            static_cast<std::size_t>(hi - sorted.begin()), ego[1], kInvalidPeer, result);
  std::sort(result.begin(), result.end());
  return result;
}

/// Full-knowledge 2-D build: one x-sort of the whole point set, then each
/// ego walks outward from its own rank — no candidate copy, no per-ego sort.
std::vector<std::vector<PeerId>> select_all_2d(const std::vector<geometry::Point>& points,
                                               std::size_t threads) {
  const std::size_t n = points.size();
  std::vector<PointXY> sorted(n);
  for (std::size_t p = 0; p < n; ++p)
    sorted[p] = PointXY{points[p][0], points[p][1], static_cast<PeerId>(p)};
  std::sort(sorted.begin(), sorted.end(), by_x);
  std::vector<std::size_t> rank(n);
  for (std::size_t r = 0; r < n; ++r) rank[sorted[r].id] = r;

  std::vector<std::vector<PeerId>> out(n);
  for_each_peer_chunk(n, threads, [&](std::size_t begin, std::size_t end) {
    for (std::size_t p = begin; p < end; ++p) {
      const std::size_t r = rank[p];
      std::size_t lo = r, hi = r + 1;
      while (lo > 0 && sorted[lo - 1].x == sorted[r].x) --lo;
      while (hi < n && sorted[hi].x == sorted[r].x) ++hi;
      staircase(sorted, lo, hi, sorted[r].y, static_cast<PeerId>(p), out[p]);
      std::sort(out[p].begin(), out[p].end());
    }
  });
  return out;
}

}  // namespace

std::vector<PeerId> EmptyRectSelector::select(const geometry::Point& ego,
                                              std::span<const Candidate> candidates) const {
  const std::size_t dims = ego.dims();
  if (dims == 2) return select_2d(ego, candidates);

  // A candidate with a zero offset in some dimension spans a box with an
  // empty interior and never lies strictly inside another candidate's box:
  // it is always selected and never blocks, so it stays out of the scan.
  std::vector<PeerId> result;
  std::vector<Offset> offsets;
  offsets.reserve(candidates.size());
  for (const Candidate& c : candidates) {
    Offset o;
    o.id = c.id;
    o.orthant = geometry::orthant_of(ego, c.point);
    o.l1 = 0.0;
    bool on_axis = false;
    for (std::size_t i = 0; i < dims; ++i) {
      o.abs_delta[i] = std::abs(c.point[i] - ego[i]);
      o.l1 += o.abs_delta[i];
      on_axis = on_axis || o.abs_delta[i] == 0.0;
    }
    if (on_axis)
      result.push_back(o.id);
    else
      offsets.push_back(o);
  }
  // Scan in (orthant, L1) order so each orthant's accepted set is contiguous
  // and every potential dominator of a candidate precedes it.
  std::sort(offsets.begin(), offsets.end(), [](const Offset& a, const Offset& b) {
    if (a.orthant != b.orthant) return a.orthant < b.orthant;
    if (a.l1 != b.l1) return a.l1 < b.l1;
    return a.id < b.id;
  });

  std::vector<const Offset*> accepted;
  geometry::OrthantCode current_orthant = 0;
  bool first = true;
  for (const Offset& o : offsets) {
    if (first || o.orthant != current_orthant) {
      accepted.clear();
      current_orthant = o.orthant;
      first = false;
    }
    const bool dominated = std::any_of(
        accepted.begin(), accepted.end(),
        [&](const Offset* a) { return dominates(*a, o, dims); });
    if (!dominated) {
      accepted.push_back(&o);
      result.push_back(o.id);
    }
  }
  std::sort(result.begin(), result.end());
  return result;
}

std::vector<std::vector<PeerId>> EmptyRectSelector::select_all(
    const std::vector<geometry::Point>& points, std::size_t threads) const {
  if (points.empty() || points.front().dims() != 2)
    return NeighborSelector::select_all(points, threads);
  return select_all_2d(points, threads);
}

std::vector<PeerId> EmptyRectSelector::select_brute_force(
    const geometry::Point& ego, std::span<const Candidate> candidates) {
  std::vector<PeerId> result;
  for (const Candidate& q : candidates) {
    const geometry::Rect box = geometry::Rect::spanned_by(ego, q.point);
    const bool blocked = std::any_of(
        candidates.begin(), candidates.end(), [&](const Candidate& r) {
          return r.id != q.id && box.contains_interior(r.point);
        });
    if (!blocked) result.push_back(q.id);
  }
  std::sort(result.begin(), result.end());
  return result;
}

}  // namespace geomcast::overlay
