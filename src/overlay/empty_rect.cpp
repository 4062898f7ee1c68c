#include "overlay/empty_rect.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <utility>

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
/// whose y lies in the band lo <= y <= hi, where hi is the smallest y above
/// the ego's and lo the largest y below it among the points already passed
/// with a strictly smaller |dx|. The band compares coordinates, as the
/// literal rule does, never rounded offsets. Points level with the ego are
/// always inside it and never narrow it. Equal-x runs are judged against
/// the band at the run's start, so the walk order inside a run does not
/// matter.
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
    const double y = first->y;
    if (lo <= y && y <= hi) out.push_back(first->id);
    if (y > ego_y) seen_hi = std::min(seen_hi, y);
    if (y < ego_y) seen_lo = std::max(seen_lo, y);
  }
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
  // Equal-x candidates have a zero x-offset and are always kept; the rest
  // are walked outward, right then left.
  std::vector<PeerId> result;
  for (auto it = lo; it != hi; ++it) result.push_back(it->id);
  walk_staircase(hi, sorted.end(), ego[1], result);
  walk_staircase(std::make_reverse_iterator(lo), sorted.rend(), ego[1], result);
  std::sort(result.begin(), result.end());
  return result;
}

/// A point as the 2-D sweep reads it, indexed by its position in (x, y)
/// order. Equal-x runs are contiguous there and sorted by y inside, so the
/// points of a run within a y band form one sub-range.
struct SweepPoint {
  double y;
  double y_below, y_above;  // y of the points ranked just below and above; NaN at the ends
  std::uint32_t rank;       // position in y order
  std::uint32_t run_begin, run_end;
  PeerId id;
};

/// The whole point set in (x, y) order, plus its y values in y order.
struct SweepLayout {
  std::vector<SweepPoint> pts;
  std::vector<double> ys;  // ys[pts[i].rank] == pts[i].y, ascending

  explicit SweepLayout(const std::vector<geometry::Point>& points) {
    const std::size_t n = points.size();
    std::vector<PointXY> sorted(n);
    for (std::size_t p = 0; p < n; ++p)
      sorted[p] = PointXY{points[p][0], points[p][1], static_cast<PeerId>(p)};
    std::sort(sorted.begin(), sorted.end(), [](const PointXY& a, const PointXY& b) {
      return a.x != b.x ? a.x < b.x : a.y < b.y;
    });
    pts.resize(n);
    constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
    for (std::size_t begin = 0, end = 0; begin < n; begin = end) {
      while (end < n && sorted[end].x == sorted[begin].x) ++end;
      for (std::size_t i = begin; i < end; ++i)
        pts[i] = SweepPoint{sorted[i].y, kNaN, kNaN, 0, static_cast<std::uint32_t>(begin),
                            static_cast<std::uint32_t>(end), sorted[i].id};
    }
    std::vector<std::uint32_t> by_y(n);
    for (std::size_t i = 0; i < n; ++i) by_y[i] = static_cast<std::uint32_t>(i);
    std::sort(by_y.begin(), by_y.end(), [this](std::uint32_t a, std::uint32_t b) {
      return pts[a].y != pts[b].y ? pts[a].y < pts[b].y : a < b;
    });
    ys.resize(n);
    for (std::size_t r = 0; r < n; ++r) {
      SweepPoint& p = pts[by_y[r]];
      ys[r] = p.y;
      p.rank = static_cast<std::uint32_t>(r);
      if (r > 0) p.y_below = pts[by_y[r - 1]].y;
      if (r + 1 < n) p.y_above = pts[by_y[r + 1]].y;
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return pts.size(); }
};

/// Min-segment tree over y-ranks. Leaf r holds the (x, y)-order index of
/// the point of y-rank r while that point is in the tree, kAbsent
/// otherwise, so the smallest key in a rank range is its point nearest to
/// the right.
class MinTree {
 public:
  static constexpr std::uint32_t kAbsent = std::numeric_limits<std::uint32_t>::max();

  explicit MinTree(std::size_t n) : n_(n), t_(2 * n, kAbsent) {}

  /// Sets a leaf without fixing its ancestors; call build() after a batch.
  void set_leaf(std::size_t r, std::uint32_t key) { t_[n_ + r] = key; }
  void build() {
    for (std::size_t i = n_; i-- > 1;) t_[i] = std::min(t_[2 * i], t_[2 * i + 1]);
  }

  void assign(std::size_t r, std::uint32_t key) {
    std::size_t i = n_ + r;
    t_[i] = key;
    for (i >>= 1; i >= 1; i >>= 1) t_[i] = std::min(t_[2 * i], t_[2 * i + 1]);
  }

  /// Smallest key among leaves [l, r), kAbsent if none.
  [[nodiscard]] std::uint32_t min(std::size_t l, std::size_t r) const {
    // Both boundary nodes are read at every level and kept only when they
    // hang off the range: selects instead of hard-to-predict branches.
    std::uint32_t best = kAbsent;
    for (l += n_, r += n_; l < r; l = (l + 1) >> 1, r >>= 1) {
      const std::uint32_t left = t_[l], right = t_[r - 1];
      best = std::min(best, (l & 1) ? left : kAbsent);
      best = std::min(best, (r & 1) ? right : kAbsent);
    }
    return best;
  }

 private:
  std::size_t n_;
  std::vector<std::uint32_t> t_;
};

using Edge = OverlayGraph::Edge;

/// walk_staircase to the right of pts[ego] over the points in `tree`,
/// jumping from kept run to kept run; appends an edge {ego, kept} per kept
/// point. The y-rank range [a, b) holds exactly the tree's points whose y
/// lies in the band lo <= y <= hi, less those already kept, and its
/// nearest point opens the next kept run.
void staircase(const SweepLayout& layout, MinTree& tree, std::size_t ego,
               std::vector<Edge>& edges, std::vector<std::uint32_t>& removed) {
  const std::size_t n = layout.size();
  const auto& pts = layout.pts;
  const auto& ys = layout.ys;
  const double ego_y = pts[ego].y;
  const PeerId ego_id = pts[ego].id;
  // Ranges follow from binary search over the coordinates the walk
  // compares: ties land exactly where the walk puts them.
  const auto rank_where = [&](std::size_t from, std::size_t to, auto pred) {
    const auto it = std::partition_point(ys.begin() + static_cast<std::ptrdiff_t>(from),
                                         ys.begin() + static_cast<std::ptrdiff_t>(to), pred);
    return static_cast<std::size_t>(it - ys.begin());
  };
  const auto run_where = [&](std::size_t from, std::size_t to, auto pred) {
    const auto it = std::partition_point(pts.begin() + static_cast<std::ptrdiff_t>(from),
                                         pts.begin() + static_cast<std::ptrdiff_t>(to),
                                         [&](const SweepPoint& p) { return pred(p.y); });
    return static_cast<std::size_t>(it - pts.begin());
  };
  // True iff no other point has p's y: its y block is itself.
  const auto y_unique = [](const SweepPoint& p) { return p.y_below != p.y && p.y_above != p.y; };
  // Kept points still inside the narrowed band must not be found again:
  // they leave the tree until this ego is done.
  const auto drop = [&](std::size_t from, std::size_t to) {
    for (std::size_t i = from; i < to; ++i) {
      tree.assign(pts[i].rank, MinTree::kAbsent);
      removed.push_back(static_cast<std::uint32_t>(i));
    }
  };

  double lo = -geometry::kInf, hi = geometry::kInf;
  std::size_t a = 0, b = n;
  while (a < b) {
    const std::uint32_t found = tree.min(a, b);
    if (found == MinTree::kAbsent) break;
    // The found point's run S is judged against the band at its start.
    const SweepPoint& hit = pts[found];
    const std::size_t s_begin =
        run_where(hit.run_begin, hit.run_end, [lo](double y) { return y < lo; });
    const std::size_t s_end = run_where(s_begin, hit.run_end, [hi](double y) { return y <= hi; });
    for (std::size_t i = s_begin; i < s_end; ++i) edges.emplace_back(ego_id, pts[i].id);
    const std::size_t below_end =
        run_where(s_begin, s_end, [ego_y](double y) { return y < ego_y; });
    const std::size_t above_begin =
        run_where(below_end, s_end, [ego_y](double y) { return y <= ego_y; });

    // S's smallest y above the ego becomes hi. Every point at that y stays
    // in the band, so b moves to the end of its y block, or onto S's point
    // itself when S holds it alone and no other point shares its y.
    if (above_begin < s_end) {
      hi = pts[above_begin].y;
      const std::size_t r = pts[above_begin].rank;
      const std::size_t at_hi_end =
          run_where(above_begin, s_end, [hi](double y) { return y <= hi; });
      if (at_hi_end - above_begin == 1 && y_unique(pts[above_begin])) {
        b = std::min(b, r);
      } else {
        b = std::min(b, rank_where(r, b, [hi](double y) { return y <= hi; }));
        drop(above_begin, at_hi_end);
      }
    }
    if (s_begin < below_end) {  // mirror image for lo
      lo = pts[below_end - 1].y;
      const std::size_t r = pts[below_end - 1].rank;
      const std::size_t at_lo_begin =
          run_where(s_begin, below_end, [lo](double y) { return y < lo; });
      if (below_end - at_lo_begin == 1 && y_unique(pts[below_end - 1])) {
        a = std::max(a, r + 1);
      } else {
        a = std::max(a, rank_where(a, r, [lo](double y) { return y < lo; }));
        drop(at_lo_begin, below_end);
      }
    }
    drop(below_end, above_begin);  // level with the ego: never leaves the band
  }
  for (const std::uint32_t i : removed) tree.assign(pts[i].rank, i);
  removed.clear();
}

/// The edges of every `workers`-th equal-x run, from run `worker` on, in
/// one pass toward the right. `tree`, of size n, is filled with every
/// point and loses each run as the pass reaches it, dealt to this worker
/// or not, so it always holds exactly the points right of the current
/// run. Each edge is reported from its left end: a run mate from the lower
/// index, any other neighbour from the right staircase.
void sweep_runs(const SweepLayout& layout, std::size_t worker, std::size_t workers,
                MinTree& tree, std::vector<Edge>& edges) {
  const std::size_t n = layout.size();
  const auto& pts = layout.pts;
  for (std::size_t i = 0; i < n; ++i) tree.set_leaf(pts[i].rank, static_cast<std::uint32_t>(i));
  tree.build();

  std::vector<std::uint32_t> removed;
  for (std::size_t run = 0, k = 0; run < n; run = pts[run].run_end, ++k) {
    const std::size_t run_end = pts[run].run_end;
    for (std::size_t i = run; i < run_end; ++i) tree.assign(pts[i].rank, MinTree::kAbsent);
    if (k % workers != worker) continue;
    for (std::size_t ego = run; ego < run_end; ++ego) {
      for (std::size_t i = ego + 1; i < run_end; ++i)  // zero x-offset: always kept
        edges.emplace_back(pts[ego].id, pts[i].id);
      staircase(layout, tree, ego, edges, removed);
    }
  }
}

/// Full-knowledge 2-D build. The empty-rect relation is symmetric, so
/// the right staircases alone find every edge, once. Equal-x runs are
/// dealt to the workers round-robin, which spreads the runs with long
/// staircases (on tie-heavy sets, the left ones) over every worker.
OverlayGraph equilibrium_2d(const std::vector<geometry::Point>& points, std::size_t threads) {
  const SweepLayout layout(points);
  std::size_t runs = 0;
  for (std::size_t i = 0; i < layout.size(); i = layout.pts[i].run_end) ++runs;
  const std::size_t workers = std::min(resolve_threads(threads), runs);
  // The workers' buffers are allocated here, on the calling thread: one
  // allocated on a worker thread lives in that thread's malloc arena,
  // which keeps its freed pages resident after the build (glibc, even
  // through malloc_trim). 2 n ln n edges cover uniform sets, measured at
  // 1.6-1.8 n ln n from 2000 to 100k points; tie-heavy sets may outgrow it.
  const auto n = static_cast<double>(layout.size());
  const auto expected_edges = static_cast<std::size_t>(2.0 * n * std::log(n + 1.0));
  std::vector<MinTree> trees(workers, MinTree(layout.size()));
  std::vector<std::vector<Edge>> edges(workers);
  for (auto& list : edges) list.reserve(expected_edges / workers);
  for_each_peer_chunk(workers, workers, [&](std::size_t begin, std::size_t end) {
    for (std::size_t w = begin; w < end; ++w) sweep_runs(layout, w, workers, trees[w], edges[w]);
  });
  trees = {};
  return OverlayGraph::from_mutual_edges(points, std::move(edges));
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

OverlayGraph EmptyRectSelector::equilibrium(const std::vector<geometry::Point>& points,
                                           std::size_t threads) const {
  if (points.empty() || points.front().dims() != 2)
    return NeighborSelector::equilibrium(points, threads);
  return equilibrium_2d(points, threads);
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
