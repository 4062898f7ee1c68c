// The paper's overlay-maintenance protocol, run message-by-message on the
// discrete-event simulator:
//
//   * every peer periodically broadcasts its existence (identifier +
//     address) BR >= 2 hops away within the overlay;
//   * I(P) collects announcement origins heard in the last Tmax seconds;
//   * a neighbour-selection method periodically recomputes P's neighbours
//     from I(P); link changes are signalled to the affected peers so both
//     endpoints forward traffic over the undirected adjacency.
//
// The driver inserts peers one at a time (each bootstrapping off a random
// existing member) and waits for the topology to stabilise before the next
// insertion — the experimental procedure of §2. Figure benches use the
// equilibrium oracle instead (see equilibrium.hpp); tests verify that this
// protocol converges to (approximately) the oracle topology.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_set>
#include <vector>

#include "overlay/graph.hpp"
#include "overlay/knowledge.hpp"
#include "overlay/peer.hpp"
#include "overlay/selector.hpp"
#include "sim/node.hpp"
#include "sim/simulator.hpp"

namespace geomcast::overlay {

/// Message kinds used by the gossip layer.
inline constexpr sim::MessageKind kAnnounceKind = 1;
inline constexpr sim::MessageKind kLinkAddKind = 2;
inline constexpr sim::MessageKind kLinkRemoveKind = 3;

/// Existence announcement, flooded BR hops over the overlay.
struct Announcement {
  PeerId origin = kInvalidPeer;
  geometry::Point origin_point;
  NodeAddress origin_address;
  std::uint64_t seq = 0;
  std::uint32_t ttl = 0;
};

struct GossipConfig {
  double announce_period = 1.0;
  /// Knowledge lifetime; must exceed announce_period (paper: "Tmax is
  /// larger than the gossiping period").
  double tmax = 4.0;
  std::uint32_t br = 3;
  double reselect_period = 1.0;
};

/// One peer of the gossip overlay. Inactive until activate() — the driver
/// registers all nodes up front (simulator ids are dense) and switches them
/// on as the insertion schedule reaches them.
class GossipNode final : public sim::Node {
 public:
  GossipNode(PeerId id, geometry::Point point, NodeAddress address,
             const NeighborSelector& selector, GossipConfig config);

  void on_message(sim::Simulator& sim, const sim::Envelope& envelope) override;

  /// Joins the overlay: primes I(P) with the bootstrap peers (the paper
  /// requires knowing at least one member) and starts the periodic
  /// announce / reselect timers.
  void activate(sim::Simulator& sim, const std::vector<Candidate>& bootstrap);

  /// Leaves the overlay without notice (crash-style departure, the case the
  /// paper's gossip design absorbs): timers stop, incoming messages are
  /// ignored, and the survivors forget this peer once its last announcement
  /// ages past Tmax and their next re-selection runs.
  void deactivate() noexcept { active_ = false; }

  [[nodiscard]] const geometry::Point& point() const noexcept { return point_; }
  [[nodiscard]] const NodeAddress& address() const noexcept { return address_; }
  /// P's current selection (sorted).
  [[nodiscard]] const std::vector<PeerId>& selected() const noexcept { return out_; }
  /// Undirected adjacency (selection union peers that selected P).
  [[nodiscard]] std::vector<PeerId> undirected_neighbors() const;
  /// Number of reselection rounds since the selection last changed.
  [[nodiscard]] std::size_t stable_rounds() const noexcept { return stable_rounds_; }

 private:
  void announce(sim::Simulator& sim);
  void reselect(sim::Simulator& sim);
  void periodic_announce(sim::Simulator& sim);
  void periodic_reselect(sim::Simulator& sim);
  void handle_announcement(sim::Simulator& sim, const sim::Envelope& envelope);
  void fanout(sim::Simulator& sim, const Announcement& announcement, PeerId except);

  geometry::Point point_;
  NodeAddress address_;
  const NeighborSelector& selector_;
  GossipConfig config_;
  KnowledgeSet knowledge_;
  std::vector<PeerId> out_;                  // my selection
  std::unordered_set<PeerId> in_links_;      // peers that selected me
  std::unordered_set<std::uint64_t> seen_;   // (origin, seq) dedup
  std::uint64_t announce_seq_ = 0;
  std::size_t stable_rounds_ = 0;
  bool active_ = false;
};

struct GossipBuildResult {
  OverlayGraph graph;
  bool converged = false;
  double sim_time = 0.0;
  std::uint64_t announce_messages = 0;
  std::uint64_t link_messages = 0;
};

/// Builds an overlay by inserting `points` one at a time on a fresh
/// simulator, waiting after each insertion until every active node's
/// selection has been stable for `stable_rounds_required` reselection
/// rounds (or `max_time_per_insert` sim-seconds pass).
[[nodiscard]] GossipBuildResult build_overlay_with_gossip(
    const std::vector<geometry::Point>& points, const NeighborSelector& selector,
    const GossipConfig& config, std::uint64_t seed, std::size_t stable_rounds_required = 4,
    double max_time_per_insert = 300.0);

}  // namespace geomcast::overlay
