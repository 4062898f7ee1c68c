// Unified metrics snapshot layer: deterministic JSON serialisation for
// every stats block the simulation family accumulates (GroupStats,
// NetworkStats, HopStats, the latency histograms they embed), plus a
// periodic in-simulation Sampler that turns the counters into a time
// series (deliveries/sec, in-flight grafts, retained seqs, event-queue
// depth, per-peer send/receive load) a bench can export next to its
// scalar results.
//
// All serialisation is snprintf-pinned: the same stats produce the same
// bytes on every run and platform, so snapshot files diff cleanly and the
// determinism tests can compare them wholesale.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/histogram.hpp"

namespace geomcast::sim {
struct NetworkStats;
}
namespace geomcast::multicast {
struct HopStats;
}
namespace geomcast::groups {
struct GroupStats;
class PubSubSystem;
}  // namespace geomcast::groups

namespace geomcast::obs {

/// Hot-peer summary of a per-node counter vector (sent_by_node /
/// received_by_node): the max identifies the single hottest peer, the p99
/// (nearest-rank) the load the busiest percentile carries — the imbalance
/// axis the sharding roadmap item gates on.
struct LoadSummary {
  std::uint64_t max = 0;
  std::uint64_t p99 = 0;
  double mean = 0.0;
};

[[nodiscard]] LoadSummary summarize_load(const std::vector<std::uint64_t>& per_node);

[[nodiscard]] std::string to_json(const LoadSummary& load);
[[nodiscard]] std::string to_json(const groups::GroupStats& stats);
/// NetworkStats serialisation names each sent_by_kind entry through the
/// groups message-kind registry (unknown kinds fall back to "kind_<id>")
/// and folds the per-node vectors into LoadSummary blocks.
[[nodiscard]] std::string to_json(const sim::NetworkStats& stats);
[[nodiscard]] std::string to_json(const multicast::HopStats& stats);

/// One periodic observation of a running PubSubSystem. Counters are
/// cumulative (the Sampler's to_json derives the per-interval rates);
/// gauges are instantaneous.
struct SnapshotSample {
  double time = 0.0;
  std::uint64_t deliveries = 0;        // cumulative application deliveries
  std::uint64_t envelopes_sent = 0;    // cumulative network sends
  std::uint64_t envelopes_dropped = 0; // cumulative network drops
  std::uint64_t in_flight_grafts = 0;  // gauge: routed descents outstanding
  std::uint64_t retained_seqs = 0;     // gauge: QoS 2 repair-buffer occupancy
  std::uint64_t queue_pending = 0;     // gauge: live events scheduled
  std::uint64_t queue_heap_size = 0;   // gauge: queue entries incl. cancelled
  LoadSummary send_load;               // cumulative per-peer sends
  LoadSummary receive_load;            // cumulative per-peer receives
};

[[nodiscard]] std::string to_json(const SnapshotSample& sample);

/// Samples a PubSubSystem every `interval` simulated seconds while its
/// event loop has work left. The tick re-schedules itself only while the
/// simulator is non-idle, so run_until_idle() still terminates: the last
/// sample lands on the tick that finds the queue drained. Strictly
/// passive — ticks read counters and gauges, never mutate protocol state —
/// but note the ticks ARE events, so a sampled run's event count differs
/// from an unsampled one (unlike tracing, which adds no events at all).
class Sampler {
 public:
  Sampler(groups::PubSubSystem& system, double interval);

  /// Schedules the first tick at simulated time `first_at`; call before
  /// running the workload.
  void start(double first_at = 0.0);

  [[nodiscard]] const std::vector<SnapshotSample>& samples() const noexcept {
    return samples_;
  }

  /// {"interval": .., "samples": [..]} with a derived deliveries_per_sec
  /// per sample (delta against the previous sample over the actual gap).
  [[nodiscard]] std::string to_json() const;

 private:
  void tick();

  groups::PubSubSystem& system_;
  double interval_;
  std::vector<SnapshotSample> samples_;
};

}  // namespace geomcast::obs
