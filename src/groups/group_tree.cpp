#include "groups/group_tree.hpp"

#include <algorithm>
#include <stdexcept>

#include "geometry/distance.hpp"
#include "multicast/local_rule.hpp"
#include "multicast/zone.hpp"
#include "overlay/routing.hpp"
#include "stability/churn.hpp"

namespace geomcast::groups {

namespace {

bool is_alive(const std::vector<bool>& alive, PeerId p) {
  return alive.empty() || alive[p];
}

/// Removes the relay-only leaf chain starting at `v` (stops at the root, a
/// subscriber, or a branching point). Returns edges removed.
std::size_t cascade_relays(GroupTree& gt, PeerId v) {
  std::size_t removed = 0;
  while (v != gt.tree.root()) {
    const multicast::MulticastTree::Node* node = gt.tree.node(v);
    if (node == nullptr || node->delivers || !gt.tree.children(*node).empty()) break;
    const PeerId up = node->parent;
    gt.tree.remove_leaf(v);
    ++removed;
    v = up;
  }
  return removed;
}

/// Links `child` under `parent`. A stranded subscriber reached this way,
/// as a relay or as itself, is spanned again and gets its delivery flag.
void attach(GroupTree& gt, PeerId parent, PeerId child) {
  gt.tree.add_edge(parent, child);
  if (assign_id(gt.stranded, child, false)) gt.tree.set_delivers(child, true);
}

/// The splice shared by repair and strand rescue: greedy-walks from `from`
/// toward the root through `usable` peers and, at the first in-tree peer
/// (the adopter), attaches the non-tree relays passed on the way, top
/// down, adding their count to `recruited`. Returns the peer `from` is to
/// hang under, or kInvalidPeer — tree untouched — when the walk strands or
/// `refuse(adopter)` holds.
template <typename Usable, typename Refuse>
PeerId splice_toward_root(const overlay::OverlayGraph& graph, GroupTree& gt, PeerId from,
                          const Usable& usable, const Refuse& refuse, std::size_t& recruited) {
  std::vector<PeerId> chain;  // non-tree relays between `from` and the adopter
  for (std::size_t guard = 0; guard < graph.size(); ++guard) {
    const PeerId next = overlay::greedy_next_hop(graph, from, gt.tree.root(), usable);
    if (next == kInvalidPeer) return kInvalidPeer;  // stranded
    if (!gt.tree.reached(next)) {
      chain.push_back(next);
      from = next;
      continue;
    }
    if (refuse(next)) return kInvalidPeer;
    PeerId parent = next;
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      attach(gt, parent, *it);
      parent = *it;
    }
    recruited += chain.size();
    return parent;
  }
  return kInvalidPeer;
}

void check_deterministic(const multicast::MulticastConfig& config) {
  if (config.policy == multicast::PickPolicy::kRandom)
    throw std::invalid_argument(
        "groups: PickPolicy::kRandom is not supported — incremental tree "
        "maintenance requires deterministic delegate selection");
}

}  // namespace

GroupTree build_group_tree(const overlay::OverlayGraph& graph, PeerId root,
                           std::span<const PeerId> subscribers,
                           const multicast::MulticastConfig& config,
                           const std::vector<bool>& alive) {
  const std::size_t n = graph.size();
  if (root >= n) throw std::invalid_argument("build_group_tree: root out of range");
  if (!alive.empty() && alive.size() != n)
    throw std::invalid_argument("build_group_tree: alive mask size mismatch");
  check_deterministic(config);
  for (std::size_t i = 0; i < subscribers.size(); ++i) {
    if (subscribers[i] >= n)
      throw std::invalid_argument("build_group_tree: subscriber out of range");
    if (i > 0 && subscribers[i] <= subscribers[i - 1])
      throw std::invalid_argument("build_group_tree: subscribers not ascending and unique");
    if (!is_alive(alive, subscribers[i]))
      throw std::invalid_argument("build_group_tree: subscriber is not alive");
  }

  GroupTree gt;
  gt.tree = multicast::MulticastTree(n, root);
  std::vector<PeerId> subs(subscribers.begin(), subscribers.end());

  // A FIFO over one flat queue of construction requests. Entry i owns the
  // zone bounds [i·2d, (i+1)·2d) of `zones` and the run subs[begin, end)
  // of the subscribers strictly inside that zone; each lies in the slice
  // of its orthant of the peer, so a run is partitioned in place into its
  // children's runs, O(S x depth) in all, and only kept slices get a zone.
  struct Pending {
    PeerId peer;
    PeerId* begin;
    PeerId* end;
  };
  const std::size_t stride = 2 * graph.dims();
  const geometry::Rect whole = multicast::initiator_zone(graph.dims());
  std::vector<double> zones(whole.bounds().begin(), whole.bounds().end());
  std::vector<Pending> queue{Pending{root, subs.data(), subs.data() + subs.size()}};
  std::vector<multicast::ZoneAssignment> assignments;
  multicast::StepScratch scratch;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const Pending current = queue[head];
    multicast::partition_step(graph, current.peer, std::span(zones).subspan(head * stride, stride),
                              alive, config.policy, config.metric, nullptr, assignments, scratch);
    const auto ego = graph.coords(current.peer);
    PeerId* rest = current.begin;
    for (const multicast::ZoneAssignment& a : assignments) {
      PeerId* slice_end = std::partition(rest, current.end, [&](PeerId s) {
        return multicast::in_orthant(ego, graph.coords(s), a.orthant);
      });
      if (slice_end == rest) continue;  // pruned: slice holds no subscriber
      ++gt.build_messages;
      gt.tree.add_edge(current.peer, a.child);
      zones.resize(zones.size() + stride);
      multicast::child_zone(std::span(zones).subspan(head * stride, stride), ego, a.orthant,
                            std::span(zones).last(stride));
      queue.push_back(Pending{a.child, rest, slice_end});
      rest = slice_end;
    }
    // What no slice took: the peer itself when it subscribes (every slice
    // is open at its coordinate), and subscribers no slice can reach.
    for (const PeerId* s = rest; s != current.end; ++s) {
      if (*s == current.peer)
        gt.tree.set_delivers(*s, true);
      else
        gt.stranded.push_back(*s);
    }
  }
  std::sort(gt.stranded.begin(), gt.stranded.end());
  return gt;
}

GraftCursor graft_cursor(const overlay::OverlayGraph& graph, const GroupTree& gt, PeerId s) {
  const geometry::Rect whole = multicast::initiator_zone(graph.dims());
  return GraftCursor{s, gt.tree.root(), {whole.bounds().begin(), whole.bounds().end()}, 0};
}

GraftStep graft_step(const overlay::OverlayGraph& graph, GroupTree& gt,
                     GraftCursor& cursor, const multicast::MulticastConfig& config,
                     const std::vector<bool>& alive) {
  const PeerId s = cursor.subscriber;
  if (s >= graph.size()) throw std::invalid_argument("graft_step: peer out of range");
  if (gt.zones_stale)
    throw std::logic_error("graft_step: zones are stale after a repair; rebuild");
  check_deterministic(config);

  if (gt.tree.reached(s)) {
    // Already spanned: a re-subscribe, a relay promotion, or (mid-descent)
    // a concurrent graft that recruited s as a relay first. Set the
    // delivery flag and stop — no further descent decision is owed.
    gt.tree.set_delivers(s, true);
    return GraftStep{GraftStatus::kAttached, s};
  }
  // Every decision either follows an existing edge or creates the next
  // missing one, so a legal descent is bounded by the tree height plus the
  // new path's length; past the peer count the cache is inconsistent.
  if (cursor.steps > graph.size()) return GraftStep{GraftStatus::kExhausted};
  if (!gt.tree.reached(cursor.current))
    throw std::out_of_range("graft_step: the cursor's peer is not in the tree");

  // One set of step buffers per thread: a routed descent takes one step
  // per hop, and after the first few the buffers stop growing.
  thread_local std::vector<multicast::ZoneAssignment> assignments;
  thread_local multicast::StepScratch scratch;
  multicast::partition_step(graph, cursor.current, cursor.zone, alive, config.policy,
                            config.metric, nullptr, assignments, scratch);
  // s lies strictly inside Z(current), so its slice is its orthant's.
  const auto ego = graph.coords(cursor.current);
  const auto next = std::ranges::find_if(assignments, [&](const multicast::ZoneAssignment& a) {
    return multicast::in_orthant(ego, graph.coords(s), a.orthant);
  });
  if (next == assignments.end()) return GraftStep{GraftStatus::kStranded};
  ++cursor.steps;
  if (!gt.tree.reached(next->child)) attach(gt, cursor.current, next->child);
  multicast::child_zone(cursor.zone, ego, next->orthant, cursor.zone);
  cursor.current = next->child;
  if (cursor.current == s) {
    gt.tree.set_delivers(s, true);
    return GraftStep{GraftStatus::kAttached, s};
  }
  return GraftStep{GraftStatus::kDescend, cursor.current};
}

GraftResult graft_subscriber(const overlay::OverlayGraph& graph, GroupTree& gt, PeerId s,
                             const multicast::MulticastConfig& config,
                             const std::vector<bool>& alive) {
  // The synchronous oracle: the routed control plane's step function,
  // looped to completion in place. Keeping it a pure wrapper is what makes
  // "routed == local" a structural property rather than a parallel
  // implementation to keep in sync.
  GraftResult result;
  GraftCursor cursor = graft_cursor(graph, gt, s);
  for (;;) {
    const GraftStep step = graft_step(graph, gt, cursor, config, alive);
    result.messages = cursor.steps;
    switch (step.status) {
      case GraftStatus::kAttached:
        result.attached = true;
        return result;
      case GraftStatus::kDescend:
        continue;
      case GraftStatus::kStranded:
      case GraftStatus::kExhausted:
        return result;  // caller falls back to a rebuild
    }
  }
}

std::size_t prune_subscriber(GroupTree& gt, PeerId s) {
  if (s >= gt.tree.peer_count())
    throw std::invalid_argument("prune_subscriber: peer out of range");
  if (assign_id(gt.stranded, s, false) || !gt.tree.delivers(s)) return 0;
  gt.tree.set_delivers(s, false);
  return cascade_relays(gt, s);
}

GroupRepairResult repair_group_tree(const overlay::OverlayGraph& graph, GroupTree& gt,
                                    PeerId departed, const std::vector<bool>& alive) {
  if (departed >= graph.size())
    throw std::invalid_argument("repair_group_tree: peer out of range");
  if (alive.size() != graph.size())
    throw std::invalid_argument("repair_group_tree: alive mask size mismatch");
  if (departed == gt.tree.root())
    throw std::invalid_argument("repair_group_tree: migrate the root before repairing");

  GroupRepairResult result;
  assign_id(gt.stranded, departed, false);
  if (!gt.tree.reached(departed)) return result;
  gt.tree.set_delivers(departed, false);

  // Orphans are processed one at a time so the adopt/splice predicates see
  // the tree as already-mended orphans left it (no stale-cycle surprises).
  const auto departed_children = gt.tree.children(departed);
  const std::vector<PeerId> orphans(departed_children.begin(), departed_children.end());
  for (PeerId orphan : orphans) {
    // First the stability-layer rule: adopt under an alive in-tree overlay
    // neighbour outside the orphan's own subtree, nearest first.
    const auto repaired = stability::repair_orphans(
        graph, {orphan},
        [&](PeerId o, PeerId q) {
          return alive[q] && q != departed && gt.tree.reached(q) &&
                 !gt.tree.in_subtree(o, q);
        },
        [&](PeerId q, PeerId incumbent) {
          return geometry::l1_distance(graph.point(q), graph.point(orphan)) <
                 geometry::l1_distance(graph.point(incumbent), graph.point(orphan));
        });
    if (!repaired.reattached.empty()) {
      gt.tree.reattach(orphan, repaired.reattached.front().second);
      ++result.reattached;
      ++result.messages;
      continue;
    }

    // Fallback: splice onto the greedy route toward the tree root. Every
    // hop is an overlay edge; the first in-tree peer outside the orphan's
    // subtree adopts the chain (it cannot thread through itself).
    std::size_t recruited = 0;
    const PeerId parent = splice_toward_root(
        graph, gt, orphan, [&](PeerId q) { return alive[q] && q != departed; },
        [&](PeerId adopter) { return gt.tree.in_subtree(orphan, adopter); }, recruited);
    if (parent == kInvalidPeer) {
      result.needs_rebuild = true;
      continue;
    }
    gt.tree.reattach(orphan, parent);
    ++result.reattached;
    result.spliced_relays += recruited;
    result.messages += recruited + 1;
  }

  if (!result.needs_rebuild) {
    const PeerId old_parent = gt.tree.parent(departed);
    gt.tree.remove_leaf(departed);
    // The departed peer may have shielded a relay-only chain; its removal
    // is repair control traffic like the prune path's cascades.
    result.messages += cascade_relays(gt, old_parent);
  }
  // Even a pure leaf removal stales the zones: the departed peer leaves
  // the candidate sets of its in-tree overlay neighbours, so replaying the
  // recursion (what a graft does) would pick different delegates there.
  gt.zones_stale = true;
  return result;
}

StrandRescueResult rescue_stranded(const overlay::OverlayGraph& graph, GroupTree& gt,
                                   const std::vector<bool>& alive) {
  StrandRescueResult result;
  if (gt.stranded.empty()) return result;
  const auto usable = [&](PeerId q) { return is_alive(alive, q); };
  const std::vector<PeerId> stranded = gt.stranded;  // attach() edits gt.stranded
  for (const PeerId s : stranded) {
    if (gt.tree.reached(s)) continue;
    // Same splice as repair's fallback, with a single stranded peer
    // instead of an orphan subtree. (An earlier rescue may already have
    // recruited s as a relay — the reached() check above skips it.)
    std::size_t recruited = 0;
    const PeerId parent = splice_toward_root(
        graph, gt, s, usable, [](PeerId) { return false; }, recruited);
    if (parent == kInvalidPeer) {
      ++result.still_stranded;
      continue;
    }
    attach(gt, parent, s);
    ++result.rescued;
    result.spliced_relays += recruited;
    result.messages += recruited + 1;
  }
  // Splice paths are not what the recursion would have produced: replaying
  // a zone descent against them is undefined, so grafts must rebuild.
  if (result.rescued > 0 || result.spliced_relays > 0) gt.zones_stale = true;
  return result;
}

}  // namespace geomcast::groups
