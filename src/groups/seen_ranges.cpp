#include "groups/seen_ranges.hpp"

#include <algorithm>

namespace geomcast::groups {

std::uint32_t SeenRanges::acquire_spill() {
  if (free_spill_.empty()) {
    spill_.emplace_back();
    return static_cast<std::uint32_t>(spill_.size() - 1);
  }
  const std::uint32_t slot = free_spill_.back();
  free_spill_.pop_back();
  return slot;
}

void SeenRanges::release_spill(Covered& c) {
  std::vector<Run>().swap(spill_[c.spill]);
  free_spill_.push_back(c.spill);
  c.spill = kNoSpill;
}

void SeenRanges::mark(const util::PeerKey& key, std::uint64_t lo, std::uint64_t hi,
                      std::vector<Run>& fresh) {
  fresh.clear();
  auto [covered, inserted] = table_.try_emplace(key);
  Covered& c = *covered;
  if (inserted) {
    c.lo = lo;
    c.hi = hi;
    fresh.emplace_back(lo, hi);
    return;
  }
  // Hot paths first: in-order traffic lands exactly one past the newest
  // range and extends it in place; an arrival past a gap retires the
  // newest range to the side list and takes its place.
  if (lo == c.hi + 1) {
    c.hi = hi;
    fresh.emplace_back(lo, hi);
    return;
  }
  if (lo > c.hi + 1) {
    if (c.spill == kNoSpill) c.spill = acquire_spill();
    spill_[c.spill].emplace_back(c.lo, c.hi);
    c.lo = lo;
    c.hi = hi;
    fresh.emplace_back(lo, hi);
    return;
  }
  // General case (overlap, or an arrival below the newest range): run the
  // ascending list of every covered range, newest appended, then split the
  // newest back out. `first` is the first range that overlaps or touches
  // [lo, hi] from below.
  scratch_.clear();
  std::vector<Run>& all = c.spill == kNoSpill ? scratch_ : spill_[c.spill];
  all.emplace_back(c.lo, c.hi);
  auto first = std::partition_point(all.begin(), all.end(),
                                    [lo](const Run& r) { return r.second + 1 < lo; });
  // The fresh runs are [lo, hi]'s complement against the covered ranges.
  std::uint64_t cursor = lo;
  for (auto it = first; it != all.end() && it->first <= hi; ++it) {
    if (it->first > cursor) fresh.emplace_back(cursor, it->first - 1);
    cursor = std::max(cursor, it->second + 1);
    if (cursor > hi) break;
  }
  if (cursor <= hi) fresh.emplace_back(cursor, hi);
  // Splice [lo, hi] in, merging every overlapping or adjacent range.
  const auto last = std::partition_point(first, all.end(),
                                         [hi](const Run& r) { return r.first <= hi + 1; });
  if (first == last) {
    all.insert(first, Run{lo, hi});
  } else {
    first->first = std::min(first->first, lo);
    first->second = std::max(std::prev(last)->second, hi);
    all.erase(std::next(first), last);
  }
  c.lo = all.back().first;
  c.hi = all.back().second;
  all.pop_back();
  if (c.spill != kNoSpill) {
    if (all.empty()) release_spill(c);
  } else if (!scratch_.empty()) {
    c.spill = acquire_spill();
    spill_[c.spill] = scratch_;
  }
}

std::vector<SeenRanges::Run> SeenRanges::ranges(const util::PeerKey& key) const {
  const Covered* c = table_.find(key);
  if (c == nullptr) return {};
  std::vector<Run> out;
  if (c->spill != kNoSpill) out = spill_[c->spill];
  out.emplace_back(c->lo, c->hi);
  return out;
}

}  // namespace geomcast::groups
