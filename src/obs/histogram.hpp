// Mergeable log-bucketed latency histogram — the distribution-shaped
// counterpart of util::RunningStats for the stats structs the simulations
// aggregate (GroupStats and friends sum per-group instances into system
// totals, so the histogram must merge by bucket addition, not resample).
//
// Buckets are log-linear (HdrHistogram style): each power-of-two octave of
// the value range splits into kSubBuckets linear sub-buckets, giving a
// bounded relative quantile error of 1/kSubBuckets (12.5% at 8) and O(1)
// record. The bucket array (about 2.6 KB) is allocated on the first sample
// or non-empty merge: groups that never sample pay only the header.
// Bucketing uses std::frexp on the IEEE representation, so identical
// inputs land in identical buckets on every platform (no libm rounding in
// the hot path). Exact min/max/mean ride alongside the buckets; quantiles
// interpolate linearly inside the winning bucket and clamp to [min, max].
//
// Values are simulated seconds: the range [2^-20, 2^20) ≈ [1 µs, 12 days)
// covers every latency this codebase can produce; values outside it land
// in the underflow/overflow buckets and report as min()/max().
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace geomcast::obs {

class Histogram {
 public:
  static constexpr std::size_t kSubBuckets = 8;  // linear slices per octave
  static constexpr int kMinExp = -20;            // lowest octave: [2^-20, 2^-19)
  static constexpr int kMaxExp = 20;             // one past the highest octave
  static constexpr std::size_t kOctaves =
      static_cast<std::size_t>(kMaxExp - kMinExp);
  /// Data buckets plus the underflow (index 0) and overflow (last) bins.
  static constexpr std::size_t kBuckets = kOctaves * kSubBuckets + 2;

  void record(double value) {
    ++count_;
    sum_ += value;
    if (count_ == 1 || value < min_) min_ = value;
    if (count_ == 1 || value > max_) max_ = value;
    if (buckets_.empty()) buckets_.resize(kBuckets);
    ++buckets_[bucket_of(value)];
  }

  /// Bucket-wise addition: merging per-group histograms into a system
  /// aggregate yields exactly the histogram of the concatenated samples.
  void merge(const Histogram& other);

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  /// Min/max/mean of an empty histogram are 0 by convention (matching
  /// util::RunningStats).
  [[nodiscard]] double min() const noexcept { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return count_ ? max_ : 0.0; }
  [[nodiscard]] double mean() const noexcept {
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
  }

  /// Quantile estimate, q in [0, 1]; relative error bounded by
  /// 1/kSubBuckets within the bucketed range. Empty => 0.
  [[nodiscard]] double quantile(double q) const noexcept;
  [[nodiscard]] double p50() const noexcept { return quantile(0.50); }
  [[nodiscard]] double p90() const noexcept { return quantile(0.90); }
  [[nodiscard]] double p99() const noexcept { return quantile(0.99); }

  /// {"count":N,"min":..,"mean":..,"p50":..,"p90":..,"p99":..,"max":..}
  [[nodiscard]] std::string to_json() const;

  /// Maps a value to its bucket index (exposed for the unit tests that pin
  /// the bucketing invariants).
  [[nodiscard]] static std::size_t bucket_of(double value) noexcept {
    if (!(value > 0.0)) return 0;  // non-positive and NaN underflow
    int exp = 0;
    const double mantissa = std::frexp(value, &exp);  // value = m * 2^exp, m in [0.5, 1)
    const int octave = exp - 1 - kMinExp;             // value in [2^(exp-1), 2^exp)
    if (octave < 0) return 0;
    if (octave >= static_cast<int>(kOctaves)) return kBuckets - 1;
    const auto sub = static_cast<std::size_t>((mantissa - 0.5) * 2.0 *
                                              static_cast<double>(kSubBuckets));
    return 1 + static_cast<std::size_t>(octave) * kSubBuckets +
           (sub < kSubBuckets ? sub : kSubBuckets - 1);
  }

 private:
  [[nodiscard]] static double bucket_lower(std::size_t index) noexcept;
  [[nodiscard]] static double bucket_width(std::size_t index) noexcept;

  std::vector<std::uint64_t> buckets_;  // empty until the first sample, then kBuckets
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace geomcast::obs
