#include "overlay/graph.hpp"

#include <algorithm>
#include <stdexcept>

namespace geomcast::overlay {

void OverlayGraph::set_coords(const std::vector<geometry::Point>& points) {
  dims_ = points.empty() ? 0 : points.front().dims();
  coords_.reserve(points.size() * dims_);
  for (const geometry::Point& point : points) {
    if (point.dims() != dims_) throw std::invalid_argument("OverlayGraph: mixed dimensions");
    for (std::size_t i = 0; i < dims_; ++i) coords_.push_back(point[i]);
  }
}

OverlayGraph::OverlayGraph(const std::vector<geometry::Point>& points,
                           std::vector<std::vector<PeerId>> out) {
  if (points.size() != out.size())
    throw std::invalid_argument("OverlayGraph: points/out size mismatch");

  const auto n = points.size();
  set_coords(points);

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

OverlayGraph OverlayGraph::from_mutual_edges(const std::vector<geometry::Point>& points,
                                             std::vector<std::vector<Edge>> edges) {
  OverlayGraph graph;
  graph.set_coords(points);
  const std::size_t n = points.size();
  auto& offsets = graph.offsets_;
  offsets.assign(n + 1, 0);
  for (const auto& list : edges)
    for (const auto& [a, b] : list) {
      if (a >= n || b >= n) throw std::invalid_argument("OverlayGraph: edge out of range");
      if (a == b) throw std::invalid_argument("OverlayGraph: self edge");
      ++offsets[a + 1];
      ++offsets[b + 1];
    }
  for (std::size_t p = 0; p < n; ++p) offsets[p + 1] += offsets[p];

  // Scatter both ends into rows in edge order, then transpose: walking
  // the rows in ascending p and appending p to each of its neighbours'
  // rows writes every row sorted, since the relation is symmetric. A
  // duplicate shows as p written twice in a row.
  std::vector<std::size_t> next(offsets.begin(), offsets.end() - 1);
  std::vector<PeerId> unsorted(offsets[n]);
  for (const auto& list : edges)
    for (const auto& [a, b] : list) {
      unsorted[next[a]++] = b;
      unsorted[next[b]++] = a;
    }
  edges = {};
  std::copy(offsets.begin(), offsets.end() - 1, next.begin());
  auto& adjacency = graph.adjacency_;
  adjacency.resize(offsets[n]);
  for (std::size_t p = 0; p < n; ++p)
    for (std::size_t i = offsets[p]; i < offsets[p + 1]; ++i) {
      const PeerId q = unsorted[i];
      if (next[q] > offsets[q] && adjacency[next[q] - 1] == p)
        throw std::invalid_argument("OverlayGraph: duplicate edge");
      adjacency[next[q]++] = static_cast<PeerId>(p);
    }
  graph.chose_.assign(adjacency.size(), true);
  return graph;
}

std::vector<PeerId> OverlayGraph::selected(PeerId p) const {
  const auto row = neighbors(p);
  std::vector<PeerId> chosen;
  for (std::size_t i = 0; i < row.size(); ++i)
    if (chose_[offsets_[p] + i]) chosen.push_back(row[i]);
  return chosen;
}

}  // namespace geomcast::overlay
