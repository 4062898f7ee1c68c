#include "overlay/incremental.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>

namespace geomcast::overlay {

IncrementalBuilder::IncrementalBuilder(const NeighborSelector& selector,
                                       IncrementalConfig config, util::Rng rng)
    : selector_(selector), config_(config), rng_(rng) {}

std::optional<std::size_t> IncrementalBuilder::insert(const geometry::Point& point) {
  const auto joiner = static_cast<PeerId>(points_.size());
  points_.push_back(point);
  alive_.push_back(1);
  ++live_count_;
  out_.emplace_back();
  extra_knowledge_.emplace_back();

  if (live_count_ > 1) {
    // Bootstrap: the joiner must know >= 1 existing live member; both sides
    // learn of each other through the join handshake.
    auto nth_live = rng_.next_below(live_count_ - 1);
    PeerId bootstrap = kInvalidPeer;
    for (PeerId p = 0; p < joiner; ++p) {
      if (!alive_[p]) continue;
      if (nth_live == 0) {
        bootstrap = p;
        break;
      }
      --nth_live;
    }
    extra_knowledge_[joiner].push_back(bootstrap);
    extra_knowledge_[bootstrap].push_back(joiner);
    // Seed the link so the first gossip round can traverse it.
    out_[joiner].push_back(bootstrap);
  }
  rebuild_undirected();
  return converge();
}

std::optional<std::size_t> IncrementalBuilder::remove(PeerId peer) {
  if (peer >= points_.size() || !alive_[peer])
    throw std::invalid_argument("IncrementalBuilder::remove: peer not alive");
  alive_[peer] = 0;
  --live_count_;
  out_[peer].clear();
  extra_knowledge_[peer].clear();
  // Survivors stop hearing the departed peer's announcements: purge it from
  // their retained bootstrap knowledge and re-converge (BR-ball knowledge
  // excludes dead peers by construction).
  for (auto& extras : extra_knowledge_)
    extras.erase(std::remove(extras.begin(), extras.end(), peer), extras.end());
  rebuild_undirected();
  return converge();
}

std::optional<std::size_t> IncrementalBuilder::converge() {
  for (std::size_t round = 1; round <= config_.max_rounds_per_insert; ++round) {
    if (!reselect_round()) return round;
  }
  return std::nullopt;
}

std::vector<Candidate> IncrementalBuilder::ball_candidates(PeerId ego) const {
  std::vector<Candidate> candidates;
  if (config_.full_knowledge) {
    for (std::size_t q = 0; q < points_.size(); ++q)
      if (q != ego && alive_[q])
        candidates.push_back(Candidate{static_cast<PeerId>(q), points_[q]});
    return candidates;
  }

  // BFS out to BR hops over the undirected topology: these are exactly the
  // live peers whose periodic announcements reach `ego`.
  std::vector<char> seen(points_.size(), 0);
  std::queue<std::pair<PeerId, std::size_t>> frontier;
  seen[ego] = 1;
  frontier.emplace(ego, 0);
  while (!frontier.empty()) {
    const auto [node, depth] = frontier.front();
    frontier.pop();
    if (depth == config_.br) continue;
    for (PeerId next : links_.neighbors(node)) {
      if (!seen[next] && alive_[next]) {
        seen[next] = 1;
        frontier.emplace(next, depth + 1);
      }
    }
  }
  // Bootstrap contacts not yet superseded by gossip stay known.
  for (PeerId extra : extra_knowledge_[ego])
    if (alive_[extra]) seen[extra] = 1;

  for (std::size_t q = 0; q < points_.size(); ++q)
    if (q != ego && seen[q] && alive_[q])
      candidates.push_back(Candidate{static_cast<PeerId>(q), points_[q]});
  return candidates;
}

bool IncrementalBuilder::reselect_round() {
  bool changed = false;
  std::vector<std::vector<PeerId>> fresh(points_.size());
  for (std::size_t p = 0; p < points_.size(); ++p) {
    if (!alive_[p]) continue;
    const auto candidates = ball_candidates(static_cast<PeerId>(p));
    fresh[p] = selector_.select(points_[p], candidates);
    if (fresh[p] != out_[p]) changed = true;
  }
  if (changed) {
    out_ = std::move(fresh);
    rebuild_undirected();
  }
  return changed;
}

void IncrementalBuilder::rebuild_undirected() {
  auto live = out_;  // links to departed peers are torn down
  for (auto& selection : live) std::erase_if(selection, [&](PeerId q) { return !alive_[q]; });
  links_ = OverlayGraph(points_, std::move(live));
}

std::vector<PeerId> IncrementalBuilder::dense_mapping() const {
  std::vector<PeerId> to_dense(points_.size(), kInvalidPeer);
  PeerId next = 0;
  for (std::size_t p = 0; p < points_.size(); ++p)
    if (alive_[p]) to_dense[p] = next++;
  return to_dense;
}

OverlayGraph IncrementalBuilder::graph() const {
  const auto to_dense = dense_mapping();
  std::vector<geometry::Point> live_points;
  live_points.reserve(live_count_);
  std::vector<std::vector<PeerId>> live_out;
  live_out.reserve(live_count_);
  for (std::size_t p = 0; p < points_.size(); ++p) {
    if (!alive_[p]) continue;
    live_points.push_back(points_[p]);
    std::vector<PeerId> selection;
    for (PeerId q : out_[p])
      if (alive_[q]) selection.push_back(to_dense[q]);
    live_out.push_back(std::move(selection));
  }
  return OverlayGraph(std::move(live_points), std::move(live_out));
}

}  // namespace geomcast::overlay
