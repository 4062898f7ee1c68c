#include "stability/random_parent.hpp"

#include <deque>

namespace geomcast::stability {

std::vector<overlay::PeerId> build_random_spanning_tree(const overlay::OverlayGraph& graph,
                                                        util::Rng& rng) {
  const std::size_t n = graph.size();
  std::vector<overlay::PeerId> parent(n, overlay::kInvalidPeer);
  if (n == 0) return parent;

  const auto root = static_cast<overlay::PeerId>(rng.next_below(n));
  std::vector<bool> visited(n, false);
  visited[root] = true;
  std::deque<overlay::PeerId> queue{root};
  while (!queue.empty()) {
    const overlay::PeerId p = queue.front();
    queue.pop_front();
    const auto neighbors = graph.neighbors(p);
    std::vector<overlay::PeerId> order(neighbors.begin(), neighbors.end());
    rng.shuffle(order);
    for (overlay::PeerId q : order) {
      if (visited[q]) continue;
      visited[q] = true;
      parent[q] = p;
      queue.push_back(q);
    }
  }
  return parent;
}

}  // namespace geomcast::stability
