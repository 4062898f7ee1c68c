#include "obs/trace.hpp"

#include <cstdio>
#include <optional>
#include <ostream>
#include <sstream>

#include "util/log.hpp"

namespace geomcast::obs {

const char* trace_event_name(TraceEventType type) noexcept {
  switch (type) {
    case TraceEventType::kPublishAccepted: return "publish_accepted";
    case TraceEventType::kRootBuffer: return "root_buffer";
    case TraceEventType::kRootFlush: return "root_flush";
    case TraceEventType::kHopSend: return "hop_send";
    case TraceEventType::kHopRetransmit: return "hop_retransmit";
    case TraceEventType::kHopAck: return "hop_ack";
    case TraceEventType::kDelivery: return "delivery";
    case TraceEventType::kDuplicateSuppressed: return "duplicate_suppressed";
    case TraceEventType::kGapDetected: return "gap_detected";
    case TraceEventType::kNackSent: return "nack_sent";
    case TraceEventType::kRepairServed: return "repair_served";
    case TraceEventType::kRepairMiss: return "repair_miss";
    case TraceEventType::kGapRepaired: return "gap_repaired";
    case TraceEventType::kGapAbandoned: return "gap_abandoned";
    case TraceEventType::kGraftBegin: return "graft_begin";
    case TraceEventType::kGraftStep: return "graft_step";
    case TraceEventType::kGraftFinish: return "graft_finish";
    case TraceEventType::kGraftAbort: return "graft_abort";
    case TraceEventType::kTreeBuild: return "tree_build";
    case TraceEventType::kRootMigration: return "root_migration";
    case TraceEventType::kReplicaSync: return "replica_sync";
    case TraceEventType::kPromotion: return "promotion";
    case TraceEventType::kHeartbeat: return "heartbeat";
    case TraceEventType::kSeqLease: return "seq_lease";
    case TraceEventType::kSeqGrant: return "seq_grant";
    case TraceEventType::kShardWave: return "shard_wave";
  }
  return "unknown";
}

bool operator==(const TraceEvent& a, const TraceEvent& b) noexcept {
  return a.time == b.time && a.type == b.type && a.group == b.group &&
         a.wave == b.wave && a.seq_lo == b.seq_lo && a.seq_hi == b.seq_hi &&
         a.peer == b.peer && a.other == b.other;
}

TraceSink::TraceSink(std::size_t capacity) : ring_(capacity == 0 ? 1 : capacity) {}

void TraceSink::record(const TraceEvent& event) {
  ++recorded_;
  if (size_ == ring_.size()) {
    ++dropped_;
    if (!overflow_warned_) {
      overflow_warned_ = true;
      util::log_warn() << "TraceSink ring full (capacity " << ring_.size()
                       << "): overwriting oldest events; dropped count in "
                          "TraceSink::dropped() (warned once per sink)";
    }
  } else {
    ++size_;
  }
  ring_[head_] = event;
  head_ = head_ + 1 == ring_.size() ? 0 : head_ + 1;
}

std::vector<TraceEvent> TraceSink::events() const {
  std::vector<TraceEvent> out;
  out.reserve(size_);
  // Oldest event sits at head_ once the ring has wrapped, at 0 before.
  const std::size_t start = size_ == ring_.size() ? head_ : 0;
  for (std::size_t i = 0; i < size_; ++i)
    out.push_back(ring_[(start + i) % ring_.size()]);
  return out;
}

namespace {
/// Wave-scoped types carry a real wave/graft id in `wave`; seq-scoped
/// types (wave == kNoWave) are matched by range intersection instead.
bool is_wave_scoped(TraceEventType type) noexcept {
  switch (type) {
    case TraceEventType::kDelivery:
    case TraceEventType::kDuplicateSuppressed:
    case TraceEventType::kGapDetected:
    case TraceEventType::kNackSent:
    case TraceEventType::kRepairMiss:
    case TraceEventType::kGapRepaired:
    case TraceEventType::kGapAbandoned:
      return false;
    default:
      return true;
  }
}
}  // namespace

std::vector<TraceEvent> TraceSink::events_for_wave(std::uint64_t group,
                                                   std::uint64_t wave) const {
  const auto all = events();
  // Pass 1: the wave's flushed seq range, if its kRootFlush survived the ring.
  std::optional<std::pair<std::uint64_t, std::uint64_t>> range;
  for (const TraceEvent& event : all)
    if (event.type == TraceEventType::kRootFlush && event.group == group &&
        event.wave == wave) {
      range = {event.seq_lo, event.seq_hi};
      break;
    }
  std::vector<TraceEvent> out;
  for (const TraceEvent& event : all) {
    if (event.group != group) continue;
    if (event.wave == wave && wave != kNoWave) {
      out.push_back(event);
      continue;
    }
    if (range && !is_wave_scoped(event.type) && event.seq_lo <= range->second &&
        event.seq_hi >= range->first)
      out.push_back(event);
  }
  return out;
}

void write_chrome_trace(std::ostream& out, const std::vector<TraceEvent>& events) {
  out << "{\"traceEvents\":[";
  char buffer[512];
  bool first = true;
  for (const TraceEvent& event : events) {
    if (!first) out << ',';
    first = false;
    // Instant events, thread-scoped: pid buckets a group's lanes together
    // in the Perfetto timeline, tid is the acting peer. ts is microseconds
    // of simulated time with fixed precision so identical streams
    // serialize byte-identically.
    std::snprintf(buffer, sizeof(buffer),
                  "{\"name\":\"%s\",\"cat\":\"geomcast\",\"ph\":\"i\",\"s\":\"t\","
                  "\"ts\":%.3f,\"pid\":%llu,\"tid\":%llu",
                  trace_event_name(event.type), event.time * 1e6,
                  static_cast<unsigned long long>(event.group),
                  static_cast<unsigned long long>(
                      event.peer == kNoTracePeer ? 0 : event.peer));
    out << buffer;
    out << ",\"args\":{";
    bool first_arg = true;
    const auto arg = [&](const char* key, unsigned long long value) {
      if (!first_arg) out << ',';
      first_arg = false;
      out << '"' << key << "\":" << value;
    };
    if (event.wave != kNoWave) arg("wave", event.wave);
    arg("seq_lo", event.seq_lo);
    arg("seq_hi", event.seq_hi);
    if (event.other != kNoTracePeer) arg("other", event.other);
    out << "}}";
  }
  out << "],\"displayTimeUnit\":\"ms\"}\n";
}

std::string chrome_trace_json(const std::vector<TraceEvent>& events) {
  std::ostringstream out;
  write_chrome_trace(out, events);
  return out.str();
}

}  // namespace geomcast::obs
