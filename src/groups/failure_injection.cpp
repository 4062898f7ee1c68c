#include "groups/failure_injection.hpp"

#include <algorithm>
#include <utility>

namespace geomcast::groups {
namespace {

/// Subscribers in `relay`'s subtree of `gt` (the relay included): the
/// deliveries a kill of the relay severs.
std::size_t subscribers_below(const GroupTree& gt, PeerId relay) {
  std::size_t subs = 0;
  std::vector<PeerId> stack{relay};
  while (!stack.empty()) {
    const PeerId q = stack.back();
    stack.pop_back();
    if (gt.tree.delivers(q)) ++subs;
    for (const PeerId c : gt.tree.children(q)) stack.push_back(c);
  }
  return subs;
}

}  // namespace

void schedule_midwave_kill(
    PubSubSystem& system, GroupId group, double wave_time,
    const std::vector<bool>& member_anywhere,
    std::function<void(PeerId relay, std::size_t severed_subscribers)> on_kill,
    double wave_start_delay) {
  system.simulator().schedule_at(
      wave_time + 0.001,
      [&system, group, wave_time, wave_start_delay, &member_anywhere,
       on_kill = std::move(on_kill)]() {
        const GroupTree* gt = system.manager().cached_tree(group);
        if (gt == nullptr) return;
        const auto depths = gt->tree.depths();
        PeerId best = kInvalidPeer;
        std::size_t best_subs = 0;
        for (PeerId p = 0; p < member_anywhere.size(); ++p) {
          if (!gt->tree.reached(p) || p == gt->tree.root()) continue;
          if (member_anywhere[p] || !system.manager().alive(p)) continue;
          if (gt->tree.children(p).empty()) continue;
          const std::size_t subs = subscribers_below(*gt, p);
          if (subs > best_subs) {
            best = p;
            best_subs = subs;
          }
        }
        if (best == kInvalidPeer) return;
        if (on_kill) on_kill(best, best_subs);
        // Depart just before the wave's constant-latency arrival at the
        // relay's tree depth, clamped to "now" for depth-1 relays. The
        // wave leaves the root at wave_time + wave_start_delay (the batch
        // window when coalescing buffers the root's own publish).
        const double arrival = wave_time + wave_start_delay +
                               0.01 * static_cast<double>(depths[best]);
        system.simulator().schedule_at(
            std::max(arrival - 0.005, system.simulator().now()),
            [&system, best]() { system.depart_now(best); });
      });
}

void schedule_root_kill(
    PubSubSystem& system, GroupId group, double wave_time,
    const std::vector<bool>& member_anywhere,
    std::function<void(PeerId root, PeerId relay, std::size_t severed_subscribers)>
        on_kill,
    double wave_start_delay, double root_kill_delay) {
  system.simulator().schedule_at(
      wave_time + 0.001,
      [&system, group, wave_time, wave_start_delay, root_kill_delay,
       &member_anywhere, on_kill = std::move(on_kill)]() {
        const GroupTree* gt = system.manager().cached_tree(group);
        if (gt == nullptr) return;
        const PeerId root = gt->tree.root();
        // replica_candidate is a pure rendezvous computation, independent
        // of whether warm_failover is on — excluding it keeps victim
        // selection identical across the cold and warm cells AND keeps the
        // successor alive to promote.
        const PeerId replica = system.manager().replica_candidate(group);
        PeerId best = kInvalidPeer;
        std::size_t best_subs = 0;
        for (const PeerId p : gt->tree.children(root)) {
          if (!system.manager().alive(p) || p == replica) continue;
          if (p < member_anywhere.size() && member_anywhere[p]) continue;
          if (gt->tree.children(p).empty()) continue;
          const std::size_t subs = subscribers_below(*gt, p);
          if (subs > best_subs) {
            best = p;
            best_subs = subs;
          }
        }
        if (best == kInvalidPeer) return;
        if (on_kill) on_kill(root, best, best_subs);
        // The relay is a direct child: the wave reaches it one constant
        // latency after leaving the root.
        const double start = wave_time + wave_start_delay;
        system.simulator().schedule_at(
            std::max(start + 0.01 - 0.005, system.simulator().now()),
            [&system, best]() { system.depart_now(best); });
        system.simulator().schedule_at(
            std::max(start + root_kill_delay, system.simulator().now()),
            [&system, root]() { system.depart_now(root); });
      });
}

}  // namespace geomcast::groups
