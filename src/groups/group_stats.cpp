#include "groups/group_stats.hpp"

namespace geomcast::groups {

double GroupStats::delivery_ratio() const noexcept {
  if (expected_deliveries == 0) return 1.0;
  return static_cast<double>(deliveries) / static_cast<double>(expected_deliveries);
}

double GroupStats::maintenance_per_publish() const noexcept {
  if (publishes == 0) return 0.0;
  return static_cast<double>(build_messages + graft_messages + prune_messages +
                             repair_messages) /
         static_cast<double>(publishes);
}

double GroupStats::mean_gap_latency() const noexcept {
  if (gap_seqs_repaired == 0) return 0.0;
  return gap_latency_total / static_cast<double>(gap_seqs_repaired);
}

double GroupStats::mean_batch_occupancy() const noexcept {
  const std::uint64_t flushes = batch_flushes_window + batch_flushes_full;
  if (flushes == 0) return 0.0;
  return static_cast<double>(batch_occupancy_sum) / static_cast<double>(flushes);
}

GroupStats& GroupStats::operator+=(const GroupStats& other) {
#define GEOMCAST_SUM_FIELD(type, name) name += other.name;
  GEOMCAST_GROUP_STATS_FIELDS(GEOMCAST_SUM_FIELD)
#undef GEOMCAST_SUM_FIELD
  delivery_latency.merge(other.delivery_latency);
  gap_repair_latency.merge(other.gap_repair_latency);
  graft_latency.merge(other.graft_latency);
  return *this;
}

}  // namespace geomcast::groups
