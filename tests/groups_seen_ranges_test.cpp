// SeenRanges — the receive path's range dedup — against a per-seq
// std::set reference. The differential battery drives random arrival
// histories (in-order, gapped, out-of-order, partially overlapping and
// pure-duplicate ranges) over enough keys to grow the table several times,
// and after every call compares both the fresh runs and the covered
// ranges: the covered set must come back in canonical form (ascending,
// disjoint, non-adjacent), so a broken merge of touching ranges or a
// broken split between the inline newest range and the side list fails
// even where the fresh runs would still happen to match.
#include "groups/seen_ranges.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <set>
#include <vector>

namespace geomcast::groups {
namespace {

using Runs = std::vector<SeenRanges::Run>;
using util::PeerKey;

/// Coalesces ascending seqs into inclusive runs.
Runs runs_of(const std::vector<std::uint64_t>& seqs) {
  Runs out;
  for (const std::uint64_t s : seqs) {
    if (!out.empty() && out.back().second + 1 == s)
      out.back().second = s;
    else
      out.emplace_back(s, s);
  }
  return out;
}

/// The reference: one set node per seq, the dedup SeenRanges replaced.
Runs reference_mark(std::set<std::uint64_t>& seen, std::uint64_t lo, std::uint64_t hi) {
  std::vector<std::uint64_t> fresh;
  for (std::uint64_t s = lo; s <= hi; ++s)
    if (seen.insert(s).second) fresh.push_back(s);
  return runs_of(fresh);
}

Runs reference_ranges(const std::set<std::uint64_t>& seen) {
  return runs_of(std::vector<std::uint64_t>(seen.begin(), seen.end()));
}

TEST(SeenRangesTest, InOrderArrivalsExtendOneRange) {
  SeenRanges seen;
  Runs fresh;
  const PeerKey key{3, 1, 7};
  seen.mark(key, 0, 3, fresh);
  EXPECT_EQ(fresh, (Runs{{0, 3}}));
  seen.mark(key, 4, 4, fresh);
  EXPECT_EQ(fresh, (Runs{{4, 4}}));
  seen.mark(key, 5, 9, fresh);
  EXPECT_EQ(seen.ranges(key), (Runs{{0, 9}}));
  EXPECT_EQ(seen.spilled_key_count(), 0u);
  seen.mark(key, 2, 6, fresh);
  EXPECT_TRUE(fresh.empty());
  EXPECT_EQ(seen.ranges(PeerKey{3, 0, 7}), Runs{});  // slot is part of the key
}

TEST(SeenRangesTest, GapFillMergesBackIntoTheNewestRange) {
  SeenRanges seen;
  Runs fresh;
  const PeerKey key{0, 0, 1};
  seen.mark(key, 0, 1, fresh);
  seen.mark(key, 5, 6, fresh);  // gap [2, 4]: [0, 1] moves to the side list
  EXPECT_EQ(seen.ranges(key), (Runs{{0, 1}, {5, 6}}));
  EXPECT_EQ(seen.spilled_key_count(), 1u);
  seen.mark(key, 0, 8, fresh);  // overlaps both ranges
  EXPECT_EQ(fresh, (Runs{{2, 4}, {7, 8}}));
  EXPECT_EQ(seen.ranges(key), (Runs{{0, 8}}));
  seen.mark(key, 10, 10, fresh);
  seen.mark(key, 9, 9, fresh);  // touches both neighbours: one range again
  EXPECT_EQ(fresh, (Runs{{9, 9}}));
  EXPECT_EQ(seen.ranges(key), (Runs{{0, 10}}));
}

TEST(SeenRangesTest, FilledGapGivesItsSideListSlotBack) {
  SeenRanges seen;
  Runs fresh;
  const PeerKey first{0, 0, 1};
  const PeerKey second{4, 0, 1};
  seen.mark(first, 0, 1, fresh);
  seen.mark(first, 4, 4, fresh);  // gap [2, 3]: a side list
  EXPECT_EQ(seen.spilled_key_count(), 1u);
  EXPECT_EQ(seen.spill_slot_count(), 1u);
  seen.mark(first, 2, 3, fresh);  // the gap fills: one range, no side list
  EXPECT_EQ(fresh, (Runs{{2, 3}}));
  EXPECT_EQ(seen.ranges(first), (Runs{{0, 4}}));
  EXPECT_EQ(seen.spilled_key_count(), 0u);
  seen.mark(second, 0, 0, fresh);
  seen.mark(second, 2, 2, fresh);  // a later gap takes the freed slot
  EXPECT_EQ(seen.spilled_key_count(), 1u);
  EXPECT_EQ(seen.spill_slot_count(), 1u);
  EXPECT_EQ(seen.ranges(second), (Runs{{0, 0}, {2, 2}}));
  seen.mark(first, 6, 6, fresh);  // and the first key's next gap a new one
  EXPECT_EQ(seen.spilled_key_count(), 2u);
  EXPECT_EQ(seen.spill_slot_count(), 2u);
  EXPECT_EQ(seen.ranges(first), (Runs{{0, 4}, {6, 6}}));
  EXPECT_EQ(seen.ranges(second), (Runs{{0, 0}, {2, 2}}));
}

TEST(SeenRangesTest, ArrivalBelowASingleRangeSpills) {
  SeenRanges seen;
  Runs fresh;
  const PeerKey key{1, 0, 2};
  seen.mark(key, 10, 12, fresh);
  seen.mark(key, 3, 4, fresh);  // out of order, below the only range
  EXPECT_EQ(fresh, (Runs{{3, 4}}));
  EXPECT_EQ(seen.ranges(key), (Runs{{3, 4}, {10, 12}}));
  seen.mark(key, 13, 13, fresh);  // the newest range is still the inline one
  EXPECT_EQ(seen.ranges(key), (Runs{{3, 4}, {10, 13}}));
}

/// The differential battery. Each key keeps a frontier (one past the
/// highest seq issued) so the generator can aim each arrival class.
TEST(SeenRangesTest, MatchesPerSeqReferenceOnRandomHistories) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    std::mt19937_64 rng(seed);
    SeenRanges seen;
    constexpr std::size_t kKeys = 300;
    std::vector<PeerKey> keys;
    for (std::uint32_t p = 0; p < 50; ++p)
      for (std::uint32_t slot = 0; slot < 2; ++slot)
        for (std::uint64_t group : {0ULL, 9ULL, 1ULL << 40})
          keys.push_back(PeerKey{p, slot, group});
    ASSERT_EQ(keys.size(), kKeys);
    std::vector<std::set<std::uint64_t>> reference(kKeys);
    std::vector<std::uint64_t> frontier(kKeys, 0);
    std::vector<Runs> issued(kKeys);
    std::size_t growths = 0;
    std::size_t buckets = seen.bucket_count();
    Runs fresh;
    auto pick = [&rng](std::uint64_t n) {
      return std::uniform_int_distribution<std::uint64_t>(0, n - 1)(rng);
    };
    for (std::size_t call = 0; call < 30000; ++call) {
      // Early calls sweep every key once so the table grows in bulk.
      const std::size_t k = call < kKeys ? call : pick(kKeys);
      std::uint64_t lo = 0;
      std::uint64_t hi = 0;
      const std::uint64_t width = 1 + pick(6);
      const auto kind = frontier[k] == 0 ? 0 : pick(5);
      switch (kind) {
        case 0:  // in order: starts at the frontier
          lo = frontier[k];
          break;
        case 1:  // gapped: skips ahead
          lo = frontier[k] + 1 + pick(5);
          break;
        case 2:  // out of order: anywhere below the frontier
          lo = pick(frontier[k]);
          break;
        case 3:  // partial overlap: straddles the frontier
          lo = frontier[k] - 1 - pick(std::min<std::uint64_t>(frontier[k], 4));
          break;
        default: {  // pure duplicate of an earlier arrival
          const SeenRanges::Run& again = issued[k][pick(issued[k].size())];
          lo = again.first;
          hi = again.second;
          break;
        }
      }
      if (kind != 4) hi = lo + width - 1;
      issued[k].emplace_back(lo, hi);
      frontier[k] = std::max(frontier[k], hi + 1);
      seen.mark(keys[k], lo, hi, fresh);
      ASSERT_EQ(fresh, reference_mark(reference[k], lo, hi))
          << "seed " << seed << " call " << call << " [" << lo << ", " << hi << "]";
      ASSERT_EQ(seen.ranges(keys[k]), reference_ranges(reference[k]))
          << "seed " << seed << " call " << call;
      if (seen.bucket_count() != buckets) {
        ++growths;
        buckets = seen.bucket_count();
      }
    }
    EXPECT_EQ(seen.key_count(), kKeys);
    EXPECT_GE(growths, 3u);  // the first allocation plus at least 2 growths
    for (std::size_t k = 0; k < kKeys; ++k)
      ASSERT_EQ(seen.ranges(keys[k]), reference_ranges(reference[k])) << "key " << k;
  }
}

}  // namespace
}  // namespace geomcast::groups
