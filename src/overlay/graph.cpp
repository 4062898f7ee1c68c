#include "overlay/graph.hpp"

#include <algorithm>
#include <stdexcept>

namespace geomcast::overlay {

OverlayGraph::OverlayGraph(const std::vector<geometry::Point>& points,
                           std::vector<std::vector<PeerId>> out) {
  if (points.size() != out.size())
    throw std::invalid_argument("OverlayGraph: points/out size mismatch");

  const auto n = points.size();
  dims_ = n == 0 ? 0 : points.front().dims();
  coords_.reserve(n * dims_);
  for (const geometry::Point& point : points) {
    if (point.dims() != dims_) throw std::invalid_argument("OverlayGraph: mixed dimensions");
    for (std::size_t i = 0; i < dims_; ++i) coords_.push_back(point[i]);
  }

  // Out-lists, sorted and deduplicated; then the in-lists as one flat
  // array, filled in ascending selector order so each comes out sorted.
  std::vector<std::size_t> in_start(n + 1, 0);
  for (std::size_t p = 0; p < n; ++p) {
    auto& list = out[p];
    if (!std::is_sorted(list.begin(), list.end())) std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
    for (PeerId q : list) {
      if (q >= n) throw std::invalid_argument("OverlayGraph: selection out of range");
      if (q == p) throw std::invalid_argument("OverlayGraph: self-selection");
      ++in_start[q + 1];
    }
  }
  for (std::size_t p = 0; p < n; ++p) in_start[p + 1] += in_start[p];
  std::vector<PeerId> in(in_start[n]);
  std::vector<std::size_t> in_next(in_start.begin(), in_start.end() - 1);
  for (std::size_t p = 0; p < n; ++p)
    for (PeerId q : out[p]) in[in_next[q]++] = static_cast<PeerId>(p);

  // Each row is the union of the two sorted lists, a mutual selection
  // once; chose_ marks the entries from the out-list. The first pass only
  // sizes the rows, so the second writes each at its exact size.
  offsets_.assign(n + 1, 0);
  for (const bool write : {false, true}) {
    adjacency_.resize(offsets_[n]);
    chose_.resize(offsets_[n]);
    for (std::size_t p = 0; p < n; ++p) {
      const PeerId *a = out[p].data(), *a_end = a + out[p].size();
      const PeerId *b = in.data() + in_start[p], *b_end = in.data() + in_start[p + 1];
      std::size_t at = offsets_[p];
      for (; a != a_end || b != b_end; ++at) {
        const bool chose = b == b_end || (a != a_end && *a <= *b);
        const PeerId q = chose ? *a++ : *b++;
        if (chose && b != b_end && *b == q) ++b;
        if (!write) continue;
        adjacency_[at] = q;
        chose_[at] = chose;
      }
      if (!write) offsets_[p + 1] = at;
    }
  }
}

std::vector<PeerId> OverlayGraph::selected(PeerId p) const {
  const auto row = neighbors(p);
  std::vector<PeerId> chosen;
  for (std::size_t i = 0; i < row.size(); ++i)
    if (chose_[offsets_[p] + i]) chosen.push_back(row[i]);
  return chosen;
}

}  // namespace geomcast::overlay
