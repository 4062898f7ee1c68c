// Wave-lifecycle tracing for the pub/sub protocol stack: a bounded-ring
// TraceSink collecting structured events keyed by (group, wave, peer), and
// a Tracer handle the instrumented layers hold.
//
// Design constraints, in order:
//  * Zero cost when disabled. A Tracer is one pointer; every emit site
//    guards on enabled() (a null test) before even building the event, so
//    the disabled hot path pays one predictable branch
//    (bench/micro_core.cpp's BM_TracerDisabledOverhead pins this).
//  * Passive. Tracing reads protocol state and writes only to the sink —
//    enabling it must leave delivered sets, every GroupStats/NetworkStats
//    counter, and the event schedule bit-identical on a pinned seed
//    (tests/obs_trace_test.cpp pins this on a lossy QoS 2 + churn run).
//  * Deterministic. Events are recorded in simulation order with simulated
//    timestamps; identical seeds yield byte-identical exported streams.
//  * Bounded. The sink is a ring: when full it overwrites the oldest
//    events, counts the overwritten ones in dropped(), and warns through
//    util::log exactly once per sink, not once per event.
//
// This header is dependency-free (plain integer fields, std only) so the
// protocol layers (groups/, multicast/) can include it without cycles; the
// exporter and the util::log warning live in trace.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace geomcast::obs {

/// Every lifecycle point the instrumented layers emit. Names (exported to
/// the Chrome trace and the README glossary) are in trace_event_name().
enum class TraceEventType : std::uint8_t {
  // Publish pipeline, at the rendezvous root.
  kPublishAccepted,  ///< publish envelope booked at the root (origin in `other`)
  kRootBuffer,       ///< publish joined the coalescing buffer (occupancy in seq_lo)
  kRootFlush,        ///< wave left the root: range [seq_lo, seq_hi] assigned
  // Per-hop data plane (reliable_hop taps; `peer` sends to `other`).
  kHopSend,        ///< first transmission of a wave on a tree edge
  kHopRetransmit,  ///< ack timeout resent the wave on that edge
  kHopAck,         ///< receiver acked the wave back to its sender
  // Subscriber side.
  kDelivery,             ///< application-level delivery of one seq at `peer`
  kDuplicateSuppressed,  ///< arrival deduped (re-acked, not re-delivered)
  // QoS 2 gap repair.
  kGapDetected,   ///< subscriber found seq missing
  kNackSent,      ///< batched NACK for seqs [seq_lo, seq_hi] to ancestor `other`
  kRepairServed,  ///< responder resent a retained wave to `other`
  kRepairMiss,    ///< responder lacked seqs [seq_lo, seq_hi] (miss to `other`)
  kGapRepaired,   ///< gap filled (repair or late per-hop recovery)
  kGapAbandoned,  ///< gap given up; window skips the seq
  // Routed graft control plane (`wave` carries the graft id).
  kGraftBegin,   ///< descent registered at the root (`peer`=root, `other`=subscriber)
  kGraftStep,    ///< one descent decision; request forwarded `peer` -> `other`
  kGraftFinish,  ///< subscriber attached (accept processed at the root)
  kGraftAbort,   ///< descent given up; cache dirtied, resubscribe owed
  // Tree maintenance (GroupManager).
  kTreeBuild,      ///< full construction wave rebuilt the cached tree
  kRootMigration,  ///< rendezvous root departed; successor (`peer`) took over
  // Warm root failover + session heartbeats (groups replica plane).
  kReplicaSync,  ///< root `peer` streamed one delta to replica `other` (`wave`=sync id)
  kPromotion,    ///< successor `peer` took over from dead root `other` (warm in seq_lo)
  kHeartbeat,    ///< root `peer` issued an idle beacon (highest seq in seq_lo/seq_hi)
  // Replica-shard coordination (root_replicas > 1; `wave` carries the coord id).
  kSeqLease,   ///< slot root `peer` asked authority `other` for seq_lo seqs
  kSeqGrant,   ///< authority `peer` granted [seq_lo, seq_hi] to slot root `other`
  kShardWave,  ///< committed range [seq_lo, seq_hi] handed `peer` -> slot root `other`
};

[[nodiscard]] const char* trace_event_name(TraceEventType type) noexcept;

/// Sentinel for an unset peer/counterparty field.
inline constexpr std::uint32_t kNoTracePeer = 0xffffffffu;
/// Sentinel wave id for events scoped to seqs rather than one wave
/// (deliveries and the gap-repair plane outlive the wave that carried
/// them). Real wave ids are dense from 0, so 0 cannot be the sentinel.
inline constexpr std::uint64_t kNoWave = ~std::uint64_t{0};

struct TraceEvent {
  double time = 0.0;  // simulated seconds
  TraceEventType type = TraceEventType::kPublishAccepted;
  std::uint64_t group = 0;
  /// Wave id for data-plane events, graft id for graft events, kNoWave for
  /// seq-scoped events (query by range intersection instead).
  std::uint64_t wave = kNoWave;
  std::uint64_t seq_lo = 0;
  std::uint64_t seq_hi = 0;
  std::uint32_t peer = kNoTracePeer;   // the acting peer
  std::uint32_t other = kNoTracePeer;  // counterparty (sender/receiver/origin)
};

[[nodiscard]] bool operator==(const TraceEvent& a, const TraceEvent& b) noexcept;

/// Bounded ring of trace events, written in simulation order.
class TraceSink {
 public:
  static constexpr std::size_t kDefaultCapacity = 1u << 16;

  explicit TraceSink(std::size_t capacity = kDefaultCapacity);

  void record(const TraceEvent& event);

  /// Events currently held, oldest first.
  [[nodiscard]] std::vector<TraceEvent> events() const;

  /// One wave's lifecycle: events carrying this (group, wave) — for graft
  /// ids, the graft's legs — plus, when the wave's kRootFlush is in the
  /// ring, the seq-scoped events (wave == kNoWave: deliveries, gap repair)
  /// whose [seq_lo, seq_hi] intersects the wave's flushed range. Order is
  /// recording (= simulation) order.
  [[nodiscard]] std::vector<TraceEvent> events_for_wave(std::uint64_t group,
                                                        std::uint64_t wave) const;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return ring_.size(); }
  /// Events overwritten by the ring since construction.
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }
  /// Events ever recorded (size() + dropped()).
  [[nodiscard]] std::uint64_t recorded() const noexcept { return recorded_; }

 private:
  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;  // next write slot
  std::size_t size_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t recorded_ = 0;
  bool overflow_warned_ = false;
};

/// The handle instrumented layers hold: one pointer, null when disabled.
class Tracer {
 public:
  void attach(TraceSink* sink) noexcept { sink_ = sink; }
  [[nodiscard]] bool enabled() const noexcept { return sink_ != nullptr; }
  void emit(const TraceEvent& event) const {
    if (sink_ != nullptr) sink_->record(event);
  }

 private:
  TraceSink* sink_ = nullptr;
};

/// Writes `events` as Chrome trace-event JSON (the Perfetto/chrome://tracing
/// format): one instant event per TraceEvent with pid = group, tid = peer,
/// ts in microseconds, and wave/seqs/counterparty under "args". Formatting
/// is snprintf-pinned, so identical event streams serialize byte-identically.
void write_chrome_trace(std::ostream& out, const std::vector<TraceEvent>& events);

/// Convenience: the same JSON as a string (tests pin byte identity on it).
[[nodiscard]] std::string chrome_trace_json(const std::vector<TraceEvent>& events);

}  // namespace geomcast::obs
