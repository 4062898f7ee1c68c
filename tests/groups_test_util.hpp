// Retention helpers for the QoS 2 and batching batteries: pooled tagged
// waves and the tag a retained handle carries. Overlays, member draws and
// whole cells come from the scenario library (bench/scenario/). Header-only
// so the per-file test executables (tests/*.cpp glob) stay one-source each.
#pragma once

#include <cstdint>

#include "groups/pubsub.hpp"

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

}  // namespace geomcast::groups::testutil
