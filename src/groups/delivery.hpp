// One publish wave as it travels a group tree, and the pooled handle every
// holder of it shares: the envelopes of the tree push, and the QoS 2
// retained buffers that serve repairs later (groups/group_manager.hpp).
#pragma once

#include <cstdint>
#include <memory>

#include "groups/group_stats.hpp"
#include "groups/group_tree.hpp"
#include "util/pool.hpp"

namespace geomcast::groups {

/// Payload envelope travelling down a group tree. Each wave carries an
/// immutable snapshot of the tree it was published on (the forwarding
/// state "installed" for that wave, the way §2 build requests carry
/// zones): grafts/prunes/repairs landing mid-wave affect later publishes
/// only, so delivery accounting is exact against the snapshot. The
/// snapshot lives as long as some envelope of the wave is in flight.
///
/// A wave covers the dense sequence RANGE [seq, seq_hi] (inclusive): the
/// root coalesces publishes landing within PubSubConfig::batch_window into
/// one envelope per tree edge instead of one per publish, so every hop,
/// ack, pending-retransmit entry, and retained-buffer slot is amortised by
/// the batch factor. An unbatched publish is the degenerate seq_hi == seq
/// range.
struct GroupDelivery {
  GroupId group = 0;
  std::uint64_t seq = 0;     // lowest publish seq the wave carries
  std::uint64_t seq_hi = 0;  // highest (== seq for an unbatched wave)
  /// System-wide wave id — the reliability layer's ack token. Unique across
  /// groups (per-group seqs are not), so concurrent waves of different
  /// groups traversing the same link can never cancel each other's timers.
  /// One wave id covers the whole range: one ack and one retransmit repair
  /// the entire batch at a hop.
  std::uint64_t wave = 0;
  std::shared_ptr<const GroupTree> tree;
  /// The replica slot whose shard tree `tree` is (always 0 with one slot).
  /// Receivers dedup per (group, slot): a peer relaying for several slots
  /// forwards each slot's copy of a range.
  std::uint32_t slot = 0;

  [[nodiscard]] std::uint64_t count() const noexcept { return seq_hi - seq + 1; }
};

/// How waves are held: one immutable GroupDelivery per wave behind an
/// 8-byte refcounted handle. On the wire the handle rides std::any's inline
/// buffer, so the per-edge fan-out copies are refcount bumps: no heap
/// allocation, no payload copy per envelope. A retained buffer stores the
/// handle itself, typed, and reads the wave's range from [seq, seq_hi]. The
/// pointees live in PubSubSystem's payload pool (util/pool.hpp).
using DeliveryPtr = util::RcPtr<GroupDelivery>;

}  // namespace geomcast::groups
