// Per-group embedded multicast trees: the paper's §2 space-partitioning
// recursion restricted to a subscriber set.
//
// A group's tree spans its subscribers plus the relay peers the recursion
// must route through (same delivery/relay split as range_multicast, with a
// point set instead of a target rectangle as the pruning oracle). Pruning
// happens after delegate selection, so every surviving child zone is
// identical to the whole-space run and the §2 correctness argument — every
// subscriber in Z(P) lies in exactly one child slice — carries over.
//
// Because builds are deterministic (kRandom is rejected), membership
// changes can be applied incrementally and still land exactly on the tree
// a fresh build would produce:
//  * graft: descend from the root along the slices containing the new
//    subscriber, adding the missing suffix of the path — a fresh build
//    with the enlarged set runs the same partition steps, so old edges are
//    untouched and the grafted path is exactly the fresh build's new path;
//  * prune: clear the delivery flag and cascade relay-only leaves away —
//    precisely the branches whose slices lose their last subscriber.
// Churn repair (departure of an in-tree peer) reattaches orphan subtrees
// via stability::repair_orphans and therefore CAN deviate from a fresh
// build; it marks the zones stale, which blocks further zone-guided grafts
// until the GroupManager rebuilds.
// As in the paper, zones are not tree state: a build or graft request
// carries its peer's zone Z(P) as 2·dims bounds (multicast/zone.hpp), a
// function of the peer's root path while the zones are not stale. A build
// writes zones only for the slices that keep a subscriber.
//
// Membership follows the tree too: a spanned subscriber is its node's
// delivery flag (MulticastTree::delivers), and only the subscribers the tree
// does not reach are listed apart, as `stranded`. A tree thus costs
// O(reached peers + stranded), never O(n): about 16 B per reached peer
// plus 8-16 B of index (multicast/tree.hpp), and a copy-on-write clone is
// two contiguous vector copies. A build is O(S x depth).
//
// General-position caveat (inherited from the paper's open-zone recursion):
// a subscriber whose identifier ties a delegating peer's coordinate lies on
// a zone boundary and cannot be reached by any slice. A dead delegate walls
// off its slices the same way. Such subscribers stay stranded
// (reached_subscribers() < subscriber_count()); GroupStats surfaces them as
// stranded_subscribers rather than hiding them in the delivery ratio.
// Random real-valued identifiers hit the tie case with probability zero.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "multicast/space_partition.hpp"
#include "overlay/graph.hpp"

namespace geomcast::groups {

using overlay::PeerId;
using overlay::kInvalidPeer;

/// Ascending peer-id sets (group, slot and replica membership, stranded
/// subscribers): membership is a binary search.
[[nodiscard]] inline bool contains_id(std::span<const PeerId> ids, PeerId p) {
  return std::binary_search(ids.begin(), ids.end(), p);
}
/// Inserts (`member`) or erases `p`; false when `p` already had that
/// membership.
inline bool assign_id(std::vector<PeerId>& ids, PeerId p, bool member) {
  const auto at = std::lower_bound(ids.begin(), ids.end(), p);
  if ((at != ids.end() && *at == p) == member) return false;
  if (member)
    ids.insert(at, p);
  else
    ids.erase(at);
  return true;
}

struct GroupTree {
  /// Spans the reached subscribers and the relays between them; a
  /// subscriber's node carries the delivery flag, a relay's does not.
  multicast::MulticastTree tree;
  /// Subscribers the tree does not reach, ascending. Empty unless a build
  /// stranded some; a graft or splice that reaches one moves it onto its
  /// node's flag, and prune/departure drop it.
  std::vector<PeerId> stranded;
  std::uint64_t build_messages = 0;   // construction requests of the build wave
  /// Set by repair, strand rescue, and the GroupManager when a departure
  /// changes some in-tree peer's candidate set: the recursion that
  /// produced the tree can no longer be replayed, so zone-guided grafts
  /// must rebuild. Nothing but a fresh build resets it.
  bool zones_stale = false;

  /// Subscribers the tree spans: the flagged nodes.
  [[nodiscard]] std::size_t reached_subscribers() const noexcept {
    return tree.delivering_count();
  }
  [[nodiscard]] std::size_t subscriber_count() const noexcept {
    return reached_subscribers() + stranded.size();
  }
  [[nodiscard]] std::size_t relay_count() const noexcept {
    return tree.reached_count() - reached_subscribers();
  }
};

/// Builds the pruned construction for `subscribers` (peer ids, ascending
/// and unique) rooted at `root`. Peers with `alive[p] == false` are skipped
/// as delegates (churn); an empty `alive` means everyone is up. Throws on
/// PickPolicy::kRandom — incremental maintenance requires the build to be
/// a deterministic function of (graph, root, subscribers).
[[nodiscard]] GroupTree build_group_tree(const overlay::OverlayGraph& graph, PeerId root,
                                         std::span<const PeerId> subscribers,
                                         const multicast::MulticastConfig& config = {},
                                         const std::vector<bool>& alive = {});

struct GraftResult {
  bool attached = false;
  std::size_t messages = 0;  // graft-request hops walked/created
};

/// Resumable zone-descent state for splicing one subscriber into a cached
/// tree: each graft_step() takes exactly ONE descent decision — the local
/// partition step at `current` — so the descent can be driven hop by hop
/// from routed envelopes (the distributed control plane) or looped locally
/// (graft_subscriber, the synchronous oracle). The cursor is the graft
/// request: it carries the zone of `current`, as the paper's request
/// carries Z(P), and holds peer indices, never tree pointers, so steps
/// always run against the caller's current GroupTree and copy-on-write
/// clones between steps are safe.
struct GraftCursor {
  PeerId subscriber = kInvalidPeer;
  PeerId current = kInvalidPeer;  // peer whose descent decision runs next
  std::vector<double> zone;       // Z(current), 2·dims bounds
  std::size_t steps = 0;          // decisions taken (the guard counter)
};

enum class GraftStatus {
  kAttached,   ///< subscriber spliced in (delivery flag set); descent done
  kDescend,    ///< one step taken; route the request to `next`
  kStranded,   ///< no slice contains the subscriber: caller rebuilds
  kExhausted,  ///< step guard tripped (inconsistent cache): caller rebuilds
};

struct GraftStep {
  GraftStatus status = GraftStatus::kStranded;
  PeerId next = kInvalidPeer;  // the peer to hand the descent to (kDescend)
};

/// Starts a graft of `s` into `gt`: the first decision runs at the root,
/// whose zone is the initiator's whole space.
[[nodiscard]] GraftCursor graft_cursor(const overlay::OverlayGraph& graph, const GroupTree& gt,
                                       PeerId s);

/// Takes one descent decision at `cursor.current`: replays the partition
/// step there from the carried zone, follows (or creates) the edge of the
/// slice containing the subscriber's point, and advances the cursor to
/// that child with the slice as its zone. Attaches immediately when the
/// subscriber is already spanned (re-subscribe / relay promotion). Must
/// not be called on a stale-zoned tree (throws std::logic_error) — the
/// caller gates on `zones_stale` before every step because a repair can
/// land between steps of an in-flight descent. A `current` the tree does
/// not reach throws std::out_of_range rather than descending from a guess.
[[nodiscard]] GraftStep graft_step(const overlay::OverlayGraph& graph, GroupTree& gt,
                                   GraftCursor& cursor,
                                   const multicast::MulticastConfig& config = {},
                                   const std::vector<bool>& alive = {});

/// Splices subscriber `s` into a cached tree by resuming the recursion
/// along the slices containing s's point — graft_cursor/graft_step looped
/// to completion in place, which keeps this the golden oracle the routed
/// descent is verified against. Exact: the result equals a fresh build
/// with s added. Throws std::logic_error if `gt.zones_stale`.
[[nodiscard]] GraftResult graft_subscriber(const overlay::OverlayGraph& graph, GroupTree& gt,
                                           PeerId s,
                                           const multicast::MulticastConfig& config = {},
                                           const std::vector<bool>& alive = {});

/// Removes subscriber `s`: clears the delivery flag and cascades away the
/// relay-only leaf chain that served no one else, so the tree stays equal
/// to a fresh build's. Returns edges removed.
std::size_t prune_subscriber(GroupTree& gt, PeerId s);

struct GroupRepairResult {
  /// True when in-place repair could not mend the tree (orphan with no
  /// usable adopter or splice path); the caller should rebuild.
  bool needs_rebuild = false;
  std::size_t reattached = 0;      // orphan subtrees mended in place
  std::size_t spliced_relays = 0;  // relays recruited by root-path splices
  std::size_t messages = 0;        // reattach/splice control traffic
};

/// Mends the tree after `departed` left. Orphan subtrees first try the
/// stability-layer rule (adopt under an alive in-tree overlay neighbour
/// outside their own subtree); failing that they splice onto the greedy
/// route toward the tree root, recruiting relays along the way. `departed`
/// must not be the tree root (the GroupManager migrates the rendezvous
/// first). Any structural change marks the zones stale.
[[nodiscard]] GroupRepairResult repair_group_tree(const overlay::OverlayGraph& graph,
                                                  GroupTree& gt, PeerId departed,
                                                  const std::vector<bool>& alive);

struct StrandRescueResult {
  std::size_t rescued = 0;         // stranded subscribers spliced in
  std::size_t spliced_relays = 0;  // non-tree relays recruited en route
  std::size_t messages = 0;        // splice control traffic
  std::size_t still_stranded = 0;  // no greedy route reached the tree
};

/// Splices every stranded subscriber onto the tree via the greedy route
/// toward the root — the repair fallback applied at build time. A fresh
/// zone-recursion build under churn can strand subscribers the in-place
/// repair rule would have kept (a departed delegate makes whole slices
/// unreachable from the root), so a rebuild alone is NOT a superset of
/// repair; this pass restores that guarantee. Splice paths deviate from
/// the recursion, so any change marks the zones stale (grafts rebuild).
StrandRescueResult rescue_stranded(const overlay::OverlayGraph& graph, GroupTree& gt,
                                   const std::vector<bool>& alive);

}  // namespace geomcast::groups
