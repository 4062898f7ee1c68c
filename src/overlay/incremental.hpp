// Incremental overlay construction, modelling the paper's experimental
// procedure — "the peers were inserted one by one in the overlay (the
// overlay was allowed to converge after every insertion)" — without paying
// for a full message-level simulation.
//
// At equilibrium under periodic gossip, I(P) is exactly the set of peers
// within BR hops of P in the (undirected) topology, because each peer's
// announcement travels BR hops and stale entries expire. The builder
// therefore alternates
//     I(P) <- BR-hop ball around P;   out(P) <- select(I(P))
// until the topology stops changing (or a round cap is hit). With
// `full_knowledge = true` the ball is replaced by the whole peer set, which
// reproduces build_equilibrium and serves as a cross-check in tests.
#pragma once

#include <cstddef>
#include <optional>

#include "overlay/graph.hpp"
#include "overlay/selector.hpp"
#include "util/rng.hpp"

namespace geomcast::overlay {

struct IncrementalConfig {
  /// Gossip scope in hops (paper: BR >= 2).
  std::size_t br = 3;
  /// Re-selection rounds allowed per insertion before declaring
  /// non-convergence.
  std::size_t max_rounds_per_insert = 64;
  /// If true, I(P) is the full peer set (equilibrium oracle semantics).
  bool full_knowledge = false;
};

class IncrementalBuilder {
 public:
  IncrementalBuilder(const NeighborSelector& selector, IncrementalConfig config,
                     util::Rng rng);

  /// Inserts a peer: it bootstraps off one uniformly random existing *live*
  /// peer (the paper requires knowing at least one member), then the
  /// overlay re-converges. Returns the rounds used, or nullopt if the round
  /// cap was hit before convergence (topology left at the last iterate).
  std::optional<std::size_t> insert(const geometry::Point& point);

  /// Removes a live peer (the paper's "old peers leave the system one at a
  /// time") and lets the survivors re-converge. Peer ids of survivors are
  /// unchanged; graph() compacts. Returns rounds used, as insert().
  std::optional<std::size_t> remove(PeerId peer);

  /// Live peers (inserted minus removed).
  [[nodiscard]] std::size_t size() const noexcept { return live_count_; }
  [[nodiscard]] bool alive(PeerId peer) const { return alive_.at(peer); }

  /// Materialises the current topology over live peers, compacted to dense
  /// ids in insertion order. to_dense maps original PeerId -> compact id
  /// (kInvalidPeer for removed peers).
  [[nodiscard]] OverlayGraph graph() const;
  [[nodiscard]] std::vector<PeerId> dense_mapping() const;

 private:
  /// One global re-selection sweep; returns true if any out-set changed.
  bool reselect_round();
  void rebuild_undirected();
  [[nodiscard]] std::vector<Candidate> ball_candidates(PeerId ego) const;

  /// Runs re-selection rounds until stable or the cap is hit.
  std::optional<std::size_t> converge();

  const NeighborSelector& selector_;
  IncrementalConfig config_;
  util::Rng rng_;
  std::vector<geometry::Point> points_;
  std::vector<char> alive_;
  std::size_t live_count_ = 0;
  std::vector<std::vector<PeerId>> out_;
  OverlayGraph links_;  // the live links' undirected union, over every peer ever inserted
  // Joiner knowledge persists until overwritten by the BR-ball of the next
  // round, mirroring bootstrap contacts that have not yet expired.
  std::vector<std::vector<PeerId>> extra_knowledge_;
};

}  // namespace geomcast::overlay
