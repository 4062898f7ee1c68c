#include "scenario/scenario.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "geometry/random_points.hpp"
#include "overlay/empty_rect.hpp"
#include "overlay/equilibrium.hpp"
#include "overlay/grid_knn.hpp"

namespace geomcast::scenario {
namespace {

constexpr std::uint64_t kMemberSalt = 0x9e3779b97f4a7c15ULL;  // the member stream

double secs_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace

Overlay make_overlay(std::size_t peers, std::size_t dims, std::uint64_t seed,
                     std::size_t knn_k) {
  util::Rng rng(seed);
  const auto points = geometry::random_points(rng, peers, dims, 100.0);
  const auto t0 = std::chrono::steady_clock::now();
  auto graph =
      knn_k > 0
          ? overlay::build_equilibrium_local(points, overlay::EmptyRectSelector{}, knn_k)
          : overlay::build_equilibrium(points, overlay::EmptyRectSelector{});
  return {std::move(graph), secs_since(t0)};
}

std::vector<PeerId> draw_peers(util::Rng& rng, std::size_t n, std::size_t count,
                               const std::vector<bool>& excluded, const OnPick& on_pick) {
  std::vector<bool> chosen(n, false);
  std::vector<PeerId> picked;
  while (picked.size() < count) {
    const auto p = static_cast<PeerId>(rng.next_below(n));
    if (chosen[p] || excluded[p]) continue;
    chosen[p] = true;
    picked.push_back(p);
    if (on_pick) on_pick(p, picked.size() - 1);
  }
  return picked;
}

std::vector<PeerId> pick_members(std::size_t n, PeerId root, std::size_t count,
                                 std::uint64_t seed) {
  util::Rng rng(seed ^ kMemberSalt);
  std::vector<bool> excluded(n, false);
  excluded[root] = true;
  return draw_peers(rng, n, count, excluded);
}

std::vector<PeerId> subscribe_drawn(groups::PubSubSystem& system, std::size_t n,
                                    util::Rng& rng, GroupId group, std::size_t count) {
  std::vector<bool> root(n, false);
  root[system.manager().root_of(group)] = true;
  return draw_peers(rng, n, count, root, [&](PeerId p, std::size_t i) {
    system.subscribe_at(0.001 * static_cast<double>(i + 1), p, group);
  });
}

std::vector<PeerId> subscribe_members(groups::PubSubSystem& system,
                                      const overlay::OverlayGraph& graph, GroupId group,
                                      std::size_t count, std::uint64_t seed) {
  util::Rng rng(seed ^ kMemberSalt);
  return subscribe_drawn(system, graph.size(), rng, group, count);
}

std::vector<PeerId> subscribe_late(groups::PubSubSystem& system, std::size_t n,
                                   GroupId group, const std::vector<PeerId>& members,
                                   std::size_t count, double time) {
  std::vector<bool> taken(n, false);
  for (const PeerId m : members) taken[m] = true;
  taken[system.manager().root_of(group)] = true;
  std::vector<PeerId> late;
  for (PeerId p = 0; p < n && late.size() < count; ++p) {
    if (taken[p]) continue;
    late.push_back(p);
    system.subscribe_at(time + 0.01 * static_cast<double>(late.size()), p, group);
  }
  return late;
}

PeerId find_leaf_subscriber(const overlay::OverlayGraph& graph, GroupId group,
                            std::size_t member_count, std::uint64_t seed,
                            std::size_t publishes, PeerId exclude) {
  groups::PubSubConfig config;
  config.seed = seed;
  config.reliability.qos = multicast::QoS::kEndToEnd;
  groups::PubSubSystem system(graph, config);
  const auto members = subscribe_members(system, graph, group, member_count, seed);
  for (std::size_t i = 0; i < publishes; ++i)
    system.publish_at(2.0 + 0.1 * static_cast<double>(i), members[0], group);
  system.run();
  const groups::GroupTree* gt = system.manager().cached_tree(group);
  if (gt == nullptr) return overlay::kInvalidPeer;
  for (const PeerId p : members)
    if (p != exclude && gt->tree.reached(p) && gt->tree.children(p).empty()) return p;
  return overlay::kInvalidPeer;
}

CellResult run_cell(const overlay::OverlayGraph& graph, const groups::PubSubConfig& config,
                    const Schedule& schedule, const CellHooks& hooks) {
  groups::PubSubSystem system(graph, config);
  CellResult cell;
  if (hooks.trace != nullptr) system.set_trace_sink(hooks.trace);
  if (hooks.record != Record::kNothing || hooks.observe)
    system.set_delivery_probe(
        [&cell, &hooks](PeerId peer, GroupId group, std::uint64_t seq, double time) {
          if (hooks.record != Record::kNothing) ++cell.probe_calls;
          if (hooks.record == Record::kDeliveredSet) cell.delivered.emplace(peer, group, seq);
          if (hooks.record == Record::kProbeLog) cell.probes.push_back({peer, group, seq, time});
          if (hooks.observe) hooks.observe(peer, group, seq, time);
        });
  schedule(system);
  const auto t_run = std::chrono::steady_clock::now();
  cell.events = system.run();
  cell.run_secs = secs_since(t_run);
  cell.total = system.total_stats();
  cell.net = system.simulator().stats();
  cell.hop = system.hop_stats();
  cell.coord = system.coord_hop_stats();
  if (hooks.harvest) hooks.harvest(system);
  return cell;
}

std::vector<std::pair<PeerId, PeerId>> tree_edges(const groups::GroupTree& gt) {
  std::vector<std::pair<PeerId, PeerId>> edges;
  for (PeerId p = 0; p < gt.tree.peer_count(); ++p)
    if (p != gt.tree.root() && gt.tree.reached(p)) edges.emplace_back(gt.tree.parent(p), p);
  std::sort(edges.begin(), edges.end());
  return edges;
}

std::uint64_t sent_of(const sim::NetworkStats& net, sim::MessageKind kind) {
  const auto it = net.sent_by_kind.find(kind);
  return it == net.sent_by_kind.end() ? 0 : it->second;
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::uint64_t trace_digest(const std::vector<obs::TraceEvent>& events) {
  std::string bytes;
  char line[256];
  for (const obs::TraceEvent& e : events) {
    std::snprintf(line, sizeof(line), "%a %u %llu %llu %llu %llu %u %u\n", e.time,
                  static_cast<unsigned>(e.type), static_cast<unsigned long long>(e.group),
                  static_cast<unsigned long long>(e.wave),
                  static_cast<unsigned long long>(e.seq_lo),
                  static_cast<unsigned long long>(e.seq_hi), e.peer, e.other);
    bytes += line;
  }
  return fnv1a(bytes);
}

}  // namespace geomcast::scenario
