// Receive-side duplicate suppression over dense seq ranges: which seqs of
// (peer, group, slot) a peer has already processed, so a retransmitted or
// re-served wave is told from fresh data. One PeerTable entry per key holds
// the covered set as disjoint, non-adjacent inclusive ranges:
//  * the newest range (greatest start, hence greatest end) sits inline in
//    the entry, so the in-order arrival — one past the covered suffix —
//    extends it in place after a single probe;
//  * earlier ranges, ascending, sit in a side list the entry points at.
//    Only a gap (an out-of-order arrival) creates one, and it usually
//    collapses again once the gap fills: the emptied list's storage is
//    freed, the entry stops pointing at it, and its slot goes on a free
//    list the next gap reuses.
// Memory is O(keys + the most gaps open at once), never O(seqs delivered).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "util/peer_table.hpp"

namespace geomcast::groups {

class SeenRanges {
 public:
  using Run = std::pair<std::uint64_t, std::uint64_t>;  // inclusive [lo, hi]

  /// Marks [lo, hi] (lo <= hi) seen under `key` and writes into `fresh`
  /// (cleared first) the ascending runs of [lo, hi] that were not seen
  /// before — the whole range on the common path, empty for a pure
  /// duplicate.
  void mark(const util::PeerKey& key, std::uint64_t lo, std::uint64_t hi, std::vector<Run>& fresh);

  /// The covered ranges of `key`, ascending, disjoint and non-adjacent
  /// (empty when the key was never marked).
  [[nodiscard]] std::vector<Run> ranges(const util::PeerKey& key) const;

  [[nodiscard]] std::size_t key_count() const noexcept { return table_.size(); }
  /// Keys that hold more than one range now (each owns a side list).
  [[nodiscard]] std::size_t spilled_key_count() const noexcept {
    return spill_.size() - free_spill_.size();
  }
  /// Side-list slots ever allocated: the held ones plus the free ones.
  [[nodiscard]] std::size_t spill_slot_count() const noexcept { return spill_.size(); }
  [[nodiscard]] std::size_t bucket_count() const noexcept { return table_.bucket_count(); }

 private:
  static constexpr std::uint32_t kNoSpill = 0xFFFFFFFFU;
  struct Covered {
    std::uint64_t lo = 0;  // the newest range
    std::uint64_t hi = 0;
    std::uint32_t spill = kNoSpill;  // index into spill_, earlier ranges
  };

  util::PeerTable<Covered> table_;
  /// A slot for a key's side list, reused from the free list if it can be.
  [[nodiscard]] std::uint32_t acquire_spill();
  /// Frees `c`'s emptied side list and puts its slot on the free list.
  void release_spill(Covered& c);

  std::vector<std::vector<Run>> spill_;
  std::vector<std::uint32_t> free_spill_;  // slots of spill_ no key holds
  std::vector<Run> scratch_;  // the general case's list for a key without one
};

}  // namespace geomcast::groups
