#include "overlay/selector.hpp"

#include <algorithm>
#include <thread>

namespace geomcast::overlay {

std::vector<Candidate> candidates_excluding(const std::vector<geometry::Point>& points,
                                            PeerId ego_id) {
  std::vector<Candidate> candidates;
  candidates.reserve(points.empty() ? 0 : points.size() - 1);
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (i == ego_id) continue;
    candidates.push_back(Candidate{static_cast<PeerId>(i), points[i]});
  }
  return candidates;
}

std::vector<std::vector<PeerId>> NeighborSelector::select_all(
    const std::vector<geometry::Point>& points, std::size_t threads) const {
  std::vector<std::vector<PeerId>> out(points.size());
  if (points.size() <= 1) return out;
  for_each_peer_chunk(points.size(), threads, [&](std::size_t begin, std::size_t end) {
    for (std::size_t p = begin; p < end; ++p) {
      const auto candidates = candidates_excluding(points, static_cast<PeerId>(p));
      out[p] = select(points[p], candidates);
    }
  });
  return out;
}

void for_each_peer_chunk(std::size_t n, std::size_t threads,
                         const std::function<void(std::size_t, std::size_t)>& body) {
  if (n == 0) return;
  if (threads == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    threads = hw ? hw : 1;
  }
  threads = std::min(threads, n);
  if (threads <= 1) {
    body(0, n);
    return;
  }
  // jthreads join on destruction, also when a later thread fails to start.
  std::vector<std::jthread> pool;
  pool.reserve(threads);
  const std::size_t chunk = (n + threads - 1) / threads;
  for (std::size_t t = 0; t < threads; ++t) {
    const std::size_t begin = t * chunk;
    const std::size_t end = std::min(n, begin + chunk);
    if (begin >= end) break;
    pool.emplace_back(body, begin, end);
  }
}

}  // namespace geomcast::overlay
