#include "obs/histogram.hpp"

#include <algorithm>
#include <cstdio>

namespace geomcast::obs {

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0) return;
  if (count_ == 0 || other.min_ < min_) min_ = other.min_;
  if (count_ == 0 || other.max_ > max_) max_ = other.max_;
  count_ += other.count_;
  sum_ += other.sum_;
  buckets_.resize(kBuckets);
  for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
}

double Histogram::bucket_lower(std::size_t index) noexcept {
  // Data bucket (index - 1) = octave * kSubBuckets + sub covers
  // [2^(kMinExp + octave) * (1 + sub/kSub), lower + width).
  const std::size_t data = index - 1;
  const std::size_t octave = data / kSubBuckets;
  const std::size_t sub = data % kSubBuckets;
  const double base = std::ldexp(1.0, kMinExp + static_cast<int>(octave));
  return base * (1.0 + static_cast<double>(sub) / static_cast<double>(kSubBuckets));
}

double Histogram::bucket_width(std::size_t index) noexcept {
  const std::size_t octave = (index - 1) / kSubBuckets;
  return std::ldexp(1.0, kMinExp + static_cast<int>(octave)) /
         static_cast<double>(kSubBuckets);
}

double Histogram::quantile(double q) const noexcept {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the sample the quantile asks for, 1-based; walk the cumulative
  // bucket counts until it is covered, then interpolate inside the bucket.
  const double target = q * static_cast<double>(count_);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (buckets_[i] == 0) continue;
    const double next = cumulative + static_cast<double>(buckets_[i]);
    if (next >= target) {
      if (i == 0) return min_;             // underflow bin: best estimate is the exact min
      if (i == kBuckets - 1) return max_;  // overflow bin: exact max
      const double fraction =
          buckets_[i] == 0 ? 0.0
                           : (target - cumulative) / static_cast<double>(buckets_[i]);
      const double estimate = bucket_lower(i) + fraction * bucket_width(i);
      return std::clamp(estimate, min_, max_);
    }
    cumulative = next;
  }
  return max_;
}

std::string Histogram::to_json() const {
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "{\"count\":%llu,\"min\":%.6g,\"mean\":%.6g,\"p50\":%.6g,"
                "\"p90\":%.6g,\"p99\":%.6g,\"max\":%.6g}",
                static_cast<unsigned long long>(count_), min(), mean(), p50(), p90(),
                p99(), max());
  return buffer;
}

}  // namespace geomcast::obs
