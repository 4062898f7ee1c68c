// Histogram + unified-snapshot battery: bucketing invariants, quantile
// error bounds, merge exactness, the JSON serialisers (GroupStats,
// NetworkStats with named sent_by_kind, HopStats) checked field by field
// against their field lists, the GroupStats merge, the periodic Sampler,
// and the GEOMCAST_LOG level parser.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "multicast/reliable_hop.hpp"
#include "obs/histogram.hpp"
#include "obs/snapshot.hpp"
#include "scenario/scenario.hpp"
#include "sim/network.hpp"
#include "util/log.hpp"

namespace geomcast {
namespace {

using groups::GroupId;
using groups::PubSubConfig;
using groups::PubSubSystem;
using scenario::make_overlay;
using scenario::subscribe_members;

TEST(Histogram, EmptyConventions) {
  const obs::Histogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.p50(), 0.0);
  EXPECT_EQ(h.p99(), 0.0);
}

TEST(Histogram, SingleValueIsExactEverywhere) {
  obs::Histogram h;
  h.record(0.125);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.min(), 0.125);
  EXPECT_DOUBLE_EQ(h.max(), 0.125);
  EXPECT_DOUBLE_EQ(h.mean(), 0.125);
  // Quantiles clamp to [min, max], so a single sample is exact.
  EXPECT_DOUBLE_EQ(h.p50(), 0.125);
  EXPECT_DOUBLE_EQ(h.p99(), 0.125);
}

TEST(Histogram, BucketingInvariants) {
  // Non-positive and NaN underflow to bucket 0.
  EXPECT_EQ(obs::Histogram::bucket_of(0.0), 0u);
  EXPECT_EQ(obs::Histogram::bucket_of(-1.0), 0u);
  // Below-range underflows; at/above-range overflows to the last bucket.
  EXPECT_EQ(obs::Histogram::bucket_of(1e-9), 0u);
  EXPECT_EQ(obs::Histogram::bucket_of(2e6), obs::Histogram::kBuckets - 1);
  // Monotone: a larger value never lands in an earlier bucket.
  double prev_value = 1e-6;
  std::size_t prev_bucket = obs::Histogram::bucket_of(prev_value);
  for (double v = prev_value; v < 1e5; v *= 1.07) {
    const std::size_t b = obs::Histogram::bucket_of(v);
    EXPECT_GE(b, prev_bucket) << "bucket regressed at value " << v;
    prev_bucket = b;
  }
  // Values an octave apart never share a bucket.
  EXPECT_NE(obs::Histogram::bucket_of(0.01), obs::Histogram::bucket_of(0.02));
}

TEST(Histogram, QuantileRelativeErrorBounded) {
  obs::Histogram h;
  std::vector<double> values;
  // Deterministic multiplicative walk over ~4 decades.
  double v = 0.0005;
  while (v < 5.0) {
    h.record(v);
    values.push_back(v);
    v *= 1.013;
  }
  for (const double q : {0.50, 0.90, 0.99}) {
    const double exact =
        values[static_cast<std::size_t>(q * static_cast<double>(values.size() - 1))];
    const double estimate = h.quantile(q);
    // Log-linear with 8 sub-buckets bounds relative error by 1/8.
    EXPECT_NEAR(estimate, exact, exact * 0.125 + 1e-12)
        << "q=" << q << " exact=" << exact;
  }
  EXPECT_LE(h.p50(), h.p90());
  EXPECT_LE(h.p90(), h.p99());
  EXPECT_LE(h.p99(), h.max());
}

TEST(Histogram, MergeEqualsCombinedRecording) {
  obs::Histogram a, b, combined;
  for (int i = 1; i <= 500; ++i) {
    const double v = 0.001 * i;
    (i % 3 == 0 ? a : b).record(v);
    combined.record(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_DOUBLE_EQ(a.min(), combined.min());
  EXPECT_DOUBLE_EQ(a.max(), combined.max());
  // The merged sum accumulates in a different order; only bit-level FP
  // associativity separates the two means.
  EXPECT_NEAR(a.mean(), combined.mean(), 1e-12);
  // Bucket-exact merge => identical serialisation.
  EXPECT_EQ(a.to_json(), combined.to_json());
  // Merging an empty histogram is a no-op either way round.
  obs::Histogram empty;
  const std::string before = a.to_json();
  a.merge(empty);
  EXPECT_EQ(a.to_json(), before);
  empty.merge(a);
  EXPECT_EQ(empty.to_json(), before);
}

TEST(Histogram, MergeMatchesSampleBySampleInEveryEmptyCase) {
  // The bucket array is allocated on the first sample or non-empty merge;
  // an empty side must neither change the other nor serialise differently.
  // Samples are multiples of 2^-10, so every sum is exact in any order.
  const std::vector<double> left = {0.5, 0.25, 3.0, 0.0009765625, 0.125};
  const std::vector<double> right = {0.75, 12.0, 0.0625};
  for (const bool left_sampled : {false, true})
    for (const bool right_sampled : {false, true}) {
      obs::Histogram a, b, reference;
      if (left_sampled)
        for (const double v : left) {
          a.record(v);
          reference.record(v);
        }
      if (right_sampled)
        for (const double v : right) {
          b.record(v);
          reference.record(v);
        }
      a.merge(b);
      const obs::Histogram copy = a;
      EXPECT_EQ(a.to_json(), reference.to_json()) << left_sampled << right_sampled;
      EXPECT_EQ(copy.to_json(), reference.to_json());
      EXPECT_EQ(a.count(), reference.count());
      for (const double q : {0.0, 0.1, 0.5, 0.9, 0.99, 1.0})
        EXPECT_EQ(a.quantile(q), reference.quantile(q)) << "q " << q;
    }
  EXPECT_EQ(obs::Histogram{}.to_json(),
            "{\"count\":0,\"min\":0,\"mean\":0,\"p50\":0,\"p90\":0,\"p99\":0,\"max\":0}");
}

TEST(KindRegistry, NamesResolve) {
  EXPECT_STREQ(groups::kind_name(groups::kDeliverKind), "deliver");
  EXPECT_STREQ(groups::kind_name(groups::kNackKind), "nack");
  EXPECT_STREQ(groups::kind_name(groups::kGraftRequestKind), "graft_request");
  EXPECT_EQ(groups::kind_name(999), nullptr);
}

TEST(LoadSummary, MaxAndNearestRankP99) {
  EXPECT_EQ(obs::summarize_load({}).max, 0u);
  std::vector<std::uint64_t> loads(100);
  for (std::size_t i = 0; i < loads.size(); ++i) loads[i] = i + 1;  // 1..100
  const auto summary = obs::summarize_load(loads);
  EXPECT_EQ(summary.max, 100u);
  EXPECT_EQ(summary.p99, 99u);  // nearest rank: 99th of 100
  EXPECT_DOUBLE_EQ(summary.mean, 50.5);
}

/// One listed scalar: its name and the JSON text its value serialises to.
struct ListedField {
  std::string name;
  std::string json;
};

std::string json_text(std::uint64_t value) { return std::to_string(value); }

std::string json_text(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  return buffer;
}

// Every field gets a value no other field of either operand holds; the
// doubles get a half so a lost fraction would show.
void assign(std::uint64_t& field, std::uint64_t value) { field = value; }
void assign(double& field, std::uint64_t value) {
  field = static_cast<double>(value) + 0.5;
}

#define GEOMCAST_FILL_FIELD(type, name)                    \
  assign(stats.name, base + fields.size() + 1);            \
  fields.push_back({#name, json_text(stats.name)});

/// Sets every listed scalar of `stats` to base + its 1-based list position
/// and returns the fields in list order.
std::vector<ListedField> fill(groups::GroupStats& stats, std::uint64_t base) {
  std::vector<ListedField> fields;
  GEOMCAST_GROUP_STATS_FIELDS(GEOMCAST_FILL_FIELD)
  return fields;
}

std::vector<ListedField> fill(sim::NetworkStats& stats, std::uint64_t base) {
  std::vector<ListedField> fields;
  GEOMCAST_NETWORK_STATS_FIELDS(GEOMCAST_FILL_FIELD)
  return fields;
}

std::vector<ListedField> fill(multicast::HopStats& stats, std::uint64_t base) {
  std::vector<ListedField> fields;
  GEOMCAST_HOP_STATS_FIELDS(GEOMCAST_FILL_FIELD)
  return fields;
}

#undef GEOMCAST_FILL_FIELD

/// The serialisation opens with every listed scalar, in list order, with
/// its value, and names each of them exactly once.
void expect_scalars_lead(const std::string& json, const std::vector<ListedField>& fields) {
  ASSERT_FALSE(fields.empty());
  std::string prefix = "{";
  for (const ListedField& field : fields) {
    if (prefix.size() > 1) prefix += ",";
    prefix += "\"" + field.name + "\":" + field.json;
    const std::string key = "\"" + field.name + "\":";
    const std::size_t at = json.find(key);
    ASSERT_NE(at, std::string::npos) << field.name << " missing";
    EXPECT_EQ(json.find(key, at + 1), std::string::npos) << field.name << " emitted twice";
  }
  EXPECT_EQ(json.compare(0, prefix.size(), prefix), 0)
      << "expected prefix " << prefix << "\n got " << json;
  const char next = json.size() > prefix.size() ? json[prefix.size()] : '\0';
  EXPECT_TRUE(next == ',' || next == '}') << "last scalar runs on: " << json;
}

TEST(StatsFields, GroupStatsJsonEmitsEveryListedScalar) {
  groups::GroupStats stats;
  const auto fields = fill(stats, 0);
  EXPECT_EQ(fields.size(), 63u);
  const std::string json = obs::to_json(stats);
  expect_scalars_lead(json, fields);
  // Derived ratios, then the histograms, follow the scalars.
  const std::size_t ratio = json.find("\"delivery_ratio\":");
  ASSERT_NE(ratio, std::string::npos);
  EXPECT_GT(ratio, json.find("\"" + fields.back().name + "\":"));
  EXPECT_LT(ratio, json.find("\"delivery_latency\":{"));
  EXPECT_LT(json.find("\"delivery_latency\":{"), json.find("\"gap_repair_latency\":{"));
  EXPECT_LT(json.find("\"gap_repair_latency\":{"), json.find("\"graft_latency\":{"));
}

TEST(StatsFields, NetworkStatsJsonEmitsEveryListedScalar) {
  sim::NetworkStats stats;
  const auto fields = fill(stats, 0);
  EXPECT_EQ(fields.size(), 3u);  // sent, delivered, dropped: what the transport sees
  const std::string json = obs::to_json(stats);
  expect_scalars_lead(json, fields);
  EXPECT_GT(json.find("\"sent_by_kind\":{"), json.find("\"" + fields.back().name + "\":"));
}

TEST(StatsFields, HopStatsJsonIsExactlyTheListedScalars) {
  multicast::HopStats stats;
  const auto fields = fill(stats, 0);
  EXPECT_EQ(fields.size(), 4u);
  const std::string json = obs::to_json(stats);
  expect_scalars_lead(json, fields);
  EXPECT_EQ(json.back(), '}');
  EXPECT_EQ(json.find('{', 1), std::string::npos) << "HopStats has no nested blocks";
}

TEST(StatsFields, GroupStatsMergeSumsEveryScalarAndHistogram) {
  groups::GroupStats a, b;
  fill(a, 0);
  fill(b, 1000);
  // Each histogram gets its own sample values and counts, so merging one
  // into another's slot shows up in the JSON comparison below.
  obs::Histogram expected[3];
  obs::Histogram* a_hist[3] = {&a.delivery_latency, &a.gap_repair_latency,
                               &a.graft_latency};
  obs::Histogram* b_hist[3] = {&b.delivery_latency, &b.gap_repair_latency,
                               &b.graft_latency};
  for (int h = 0; h < 3; ++h) {
    for (int i = 0; i <= h; ++i) {
      const double in_a = 0.001 * (h + 1) * (i + 1);
      const double in_b = 0.1 * (h + 1) + 0.01 * i;
      a_hist[h]->record(in_a);
      b_hist[h]->record(in_b);
      b_hist[h]->record(in_b * 2.0);
      expected[h].record(in_a);
      expected[h].record(in_b);
      expected[h].record(in_b * 2.0);
    }
  }
  const groups::GroupStats before = a;
  a += b;
#define GEOMCAST_EXPECT_SUM(type, name) \
  EXPECT_EQ(a.name, before.name + b.name) << #name " was not summed";
  GEOMCAST_GROUP_STATS_FIELDS(GEOMCAST_EXPECT_SUM)
#undef GEOMCAST_EXPECT_SUM
  for (int h = 0; h < 3; ++h)
    EXPECT_EQ(a_hist[h]->to_json(), expected[h].to_json()) << "histogram " << h;
}

/// A small QoS 2 workload with enough traffic to populate the latency
/// histograms and the per-kind counters.
PubSubConfig snapshot_config() {
  PubSubConfig config;
  config.seed = 11;
  config.reliability.qos = multicast::QoS::kEndToEnd;
  config.loss.drop_probability = 0.03;
  return config;
}

TEST(Snapshot, StatsJsonCarriesHistogramsAndNamedKinds) {
  const auto graph = make_overlay(60, 2, 11).graph;
  PubSubSystem system(graph, snapshot_config());
  const GroupId group = 3;
  const auto members = subscribe_members(system, graph, group, 12, 11);
  for (int i = 0; i < 20; ++i)
    system.publish_at(2.0 + 0.05 * i, members[i % members.size()], group);
  // Late joiners after the tree exists: the routed graft plane attaches
  // them, populating graft_latency.
  scenario::subscribe_late(system, graph.size(), group, members, 4, 3.5);
  for (int i = 0; i < 5; ++i)
    system.publish_at(4.0 + 0.05 * i, members[i % members.size()], group);
  system.run();

  const auto totals = system.total_stats();
  EXPECT_GT(totals.deliveries, 0u);
  // Latency histograms populate unconditionally (no sink attached here).
  EXPECT_EQ(totals.delivery_latency.count(), totals.deliveries);
  EXPECT_GT(totals.delivery_latency.p50(), 0.0);
  EXPECT_GT(totals.graft_latency.count(), 0u);

  const std::string group_json = obs::to_json(totals);
  EXPECT_NE(group_json.find("\"deliveries\":"), std::string::npos);
  EXPECT_NE(group_json.find("\"delivery_latency\":{\"count\":"), std::string::npos);
  EXPECT_NE(group_json.find("\"graft_latency\":"), std::string::npos);
  EXPECT_NE(group_json.find("\"delivery_ratio\":"), std::string::npos);

  const std::string net_json = obs::to_json(system.simulator().network().stats());
  EXPECT_NE(net_json.find("\"sent_by_kind\":{"), std::string::npos);
  EXPECT_NE(net_json.find("\"deliver\":"), std::string::npos);
  EXPECT_NE(net_json.find("\"subscribe\":"), std::string::npos);
  EXPECT_NE(net_json.find("\"send_load\":{\"max\":"), std::string::npos);

  const std::string hop_json = obs::to_json(system.hop_stats());
  EXPECT_NE(hop_json.find("\"data_messages\":"), std::string::npos);
  EXPECT_NE(hop_json.find("\"retransmissions\":"), std::string::npos);
}

TEST(Snapshot, SamplerProducesMonotoneDeterministicSeries) {
  const auto run = [](std::string* json) {
    const auto graph = make_overlay(60, 2, 11).graph;
    PubSubSystem system(graph, snapshot_config());
    obs::Sampler sampler(system, 0.25);
    sampler.start();
    const GroupId group = 3;
    const auto members = subscribe_members(system, graph, group, 12, 11);
    for (int i = 0; i < 20; ++i)
      system.publish_at(2.0 + 0.05 * i, members[i % members.size()], group);
    system.run();
    std::vector<obs::SnapshotSample> samples = sampler.samples();
    if (json != nullptr) *json = sampler.to_json();
    return samples;
  };
  const auto samples = run(nullptr);
  // The workload spans ~3 simulated seconds at a 0.25 s interval.
  ASSERT_GT(samples.size(), 4u);
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_GT(samples[i].time, samples[i - 1].time);
    // Cumulative counters never regress.
    EXPECT_GE(samples[i].deliveries, samples[i - 1].deliveries);
    EXPECT_GE(samples[i].envelopes_sent, samples[i - 1].envelopes_sent);
    EXPECT_GE(samples[i].send_load.max, samples[i - 1].send_load.max);
  }
  // The final tick fires after the queue drained: it sees the full totals.
  EXPECT_GT(samples.back().deliveries, 0u);
  EXPECT_EQ(samples.back().queue_pending, 0u);
  // Deterministic: an identical run serialises byte-identically.
  std::string first_json, second_json;
  run(&first_json);
  run(&second_json);
  EXPECT_EQ(first_json, second_json);
  EXPECT_NE(first_json.find("\"deliveries_per_sec\":"), std::string::npos);
}

TEST(LogLevel, ParseGeomcastLogNames) {
  using util::LogLevel;
  EXPECT_EQ(util::parse_log_level("debug"), LogLevel::kDebug);
  EXPECT_EQ(util::parse_log_level("INFO"), LogLevel::kInfo);
  EXPECT_EQ(util::parse_log_level("Warn"), LogLevel::kWarn);
  EXPECT_EQ(util::parse_log_level("warning"), LogLevel::kWarn);
  EXPECT_EQ(util::parse_log_level("error"), LogLevel::kError);
  EXPECT_EQ(util::parse_log_level("off"), LogLevel::kOff);
  EXPECT_EQ(util::parse_log_level("bogus"), std::nullopt);
  EXPECT_EQ(util::parse_log_level(""), std::nullopt);
}

}  // namespace
}  // namespace geomcast
