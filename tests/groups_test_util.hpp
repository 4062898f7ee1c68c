// Shared workload helpers for the groups/QoS test batteries: seeded
// overlay construction, deterministic membership selection, and dry-run
// leaf discovery. Mid-wave forwarder kills live in the library
// (groups/failure_injection.hpp) so the bench drives the identical
// scenario. Header-only so the per-file test executables (tests/*.cpp
// glob) stay one-source each.
#pragma once

#include <cstdint>
#include <vector>

#include "geometry/random_points.hpp"
#include "groups/pubsub.hpp"
#include "overlay/empty_rect.hpp"
#include "overlay/equilibrium.hpp"
#include "util/rng.hpp"

namespace geomcast::groups::testutil {

/// Pooled waves for the retention tests. Each wave's `wave` id is its tag:
/// the tests read it back through the retained handle to tell copies of a
/// range apart. Declare the pool before whatever retains its handles.
struct WavePool {
  util::RcPool<GroupDelivery> pool;

  DeliveryPtr operator()(std::uint64_t lo, std::uint64_t hi, std::uint64_t tag,
                         GroupId group = 0) {
    return pool.make(GroupDelivery{group, lo, hi, tag, nullptr, 0});
  }
};

/// The tag of a retained wave, or -1 when nothing is retained.
inline std::int64_t tag_of(const DeliveryPtr* wave) {
  return wave == nullptr ? -1 : static_cast<std::int64_t>((*wave)->wave);
}

inline overlay::OverlayGraph make_overlay(std::size_t n, std::size_t dims,
                                          std::uint64_t seed) {
  util::Rng rng(seed);
  const auto points = geometry::random_points(rng, n, dims, 100.0);
  return overlay::build_equilibrium(points, overlay::EmptyRectSelector{});
}

/// Subscribes `count` distinct non-root members to `group` (staggered in
/// (0, small)) and returns them; the pick is a pure function of `seed`.
inline std::vector<PeerId> subscribe_members(PubSubSystem& system,
                                             const overlay::OverlayGraph& graph,
                                             GroupId group, std::size_t count,
                                             std::uint64_t seed) {
  util::Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  const PeerId root = system.manager().root_of(group);
  std::vector<bool> chosen(graph.size(), false);
  std::vector<PeerId> members;
  while (members.size() < count) {
    const auto p = static_cast<PeerId>(rng.next_below(graph.size()));
    if (chosen[p] || p == root) continue;
    chosen[p] = true;
    members.push_back(p);
    system.subscribe_at(0.001 * static_cast<double>(members.size()), p, group);
  }
  return members;
}

/// A leaf subscriber of `group`'s cached tree (excluding `exclude`), found
/// by replaying the same deterministic workload losslessly — the tree is a
/// pure function of (graph, root, membership), so the pick stays valid for
/// lossy reruns of the same seed.
inline PeerId find_leaf_subscriber(const overlay::OverlayGraph& graph, GroupId group,
                                   std::size_t member_count, std::uint64_t seed,
                                   std::size_t publishes,
                                   PeerId exclude = kInvalidPeer) {
  PubSubConfig config;
  config.seed = seed;
  config.reliability.qos = multicast::QoS::kEndToEnd;
  PubSubSystem system(graph, config);
  const auto members = subscribe_members(system, graph, group, member_count, seed);
  for (std::size_t i = 0; i < publishes; ++i)
    system.publish_at(2.0 + 0.1 * static_cast<double>(i), members[0], group);
  system.run();
  const GroupTree* gt = system.manager().cached_tree(group);
  if (gt == nullptr) return kInvalidPeer;
  for (const PeerId p : members)
    if (p != exclude && gt->tree.reached(p) && gt->tree.children(p).empty()) return p;
  return kInvalidPeer;
}

}  // namespace geomcast::groups::testutil
