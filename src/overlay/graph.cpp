#include "overlay/graph.hpp"

#include <algorithm>
#include <iterator>
#include <stdexcept>

namespace geomcast::overlay {

OverlayGraph::OverlayGraph(std::vector<geometry::Point> points,
                           std::vector<std::vector<PeerId>> out)
    : points_(std::move(points)), out_(std::move(out)) {
  if (points_.size() != out_.size())
    throw std::invalid_argument("OverlayGraph: points/out size mismatch");

  const auto n = points_.size();
  dims_ = n == 0 ? 0 : points_.front().dims();
  coords_.reserve(n * dims_);
  for (const geometry::Point& point : points_) {
    if (point.dims() != dims_) throw std::invalid_argument("OverlayGraph: mixed dimensions");
    for (std::size_t i = 0; i < dims_; ++i) coords_.push_back(point[i]);
  }

  // Out-lists, sorted and deduplicated; then the in-lists as one flat
  // array, filled in ascending selector order so each comes out sorted.
  std::vector<std::size_t> in_start(n + 1, 0);
  for (std::size_t p = 0; p < n; ++p) {
    auto& list = out_[p];
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
    for (PeerId q : out_[p]) in[in_next[q]++] = static_cast<PeerId>(p);

  // Each adjacency is the union of the two sorted lists, stored at its
  // exact size.
  undirected_.resize(n);
  std::vector<PeerId> merged;
  for (std::size_t p = 0; p < n; ++p) {
    merged.clear();
    std::set_union(out_[p].begin(), out_[p].end(),
                   in.begin() + static_cast<std::ptrdiff_t>(in_start[p]),
                   in.begin() + static_cast<std::ptrdiff_t>(in_start[p + 1]),
                   std::back_inserter(merged));
    undirected_[p].assign(merged.begin(), merged.end());
    edge_count_ += merged.size();
  }
  edge_count_ /= 2;
}

bool OverlayGraph::has_edge(PeerId a, PeerId b) const {
  const auto& adjacency = neighbors(a);
  return std::binary_search(adjacency.begin(), adjacency.end(), b);
}

}  // namespace geomcast::overlay
