#include "util/histogram.hpp"

#include <algorithm>
#include <cmath>

namespace pts {
namespace {

constexpr std::size_t kLastBucket = LogHistogram::kBucketCount - 1;

}  // namespace

std::size_t LogHistogram::bucket_index(double value) {
  if (!(value > 0.0)) return 0;  // <= 0 and NaN: underflow bucket
  int exponent = 0;
  // frexp: value = fraction * 2^exponent with fraction in [0.5, 1).
  const double fraction = std::frexp(value, &exponent);
  if (std::isinf(value)) return kLastBucket;
  // Map [0.5, 1) onto [0, kSubBuckets) linearly — equal-width slices of the
  // octave, the HdrHistogram layout.
  auto sub = static_cast<int>((fraction - 0.5) * 2.0 * kSubBuckets);
  sub = std::clamp(sub, 0, kSubBuckets - 1);
  // frexp's exponent for values in [2^(e-1), 2^e) is e; shift so the
  // smallest resolved octave lands at relative 0.
  const long relative =
      (static_cast<long>(exponent) - 1 - kMinExponent) * kSubBuckets + sub;
  if (relative < 0) return 1;  // tiny positive: clamp into first real bucket
  const auto index = static_cast<std::size_t>(relative) + 1;
  return std::min(index, kLastBucket);
}

double LogHistogram::bucket_lower_bound(std::size_t index) {
  if (index == 0) return 0.0;
  const auto relative = static_cast<long>(std::min(index, kLastBucket)) - 1;
  const auto exponent =
      static_cast<int>(relative / kSubBuckets) + kMinExponent + 1;
  const auto sub = static_cast<int>(relative % kSubBuckets);
  return std::ldexp(0.5 + static_cast<double>(sub) / (2.0 * kSubBuckets),
                    exponent);
}

double LogHistogram::bucket_upper_bound(std::size_t index) {
  if (index == 0) return bucket_lower_bound(1);
  if (index >= kLastBucket) return std::ldexp(1.0, kMaxExponent);
  return bucket_lower_bound(index + 1);
}

void LogHistogram::record(double value) {
  const auto index = bucket_index(value);
  ++buckets_[index];
  const double clean = std::isnan(value) ? 0.0 : value;
  if (count_ == 0) {
    min_ = clean;
    max_ = clean;
  } else {
    min_ = std::min(min_, clean);
    max_ = std::max(max_, clean);
  }
  ++count_;
  sum_ += clean;
}

void LogHistogram::reset() { *this = LogHistogram{}; }

double LogHistogram::percentile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the order statistic we are after, 1-based: ceil(q * count),
  // with q=0 mapping to the first observation.
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(q * static_cast<double>(count_))));
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    cumulative += buckets_[i];
    if (cumulative >= rank) {
      if (i == 0) return std::clamp(0.0, min_, max_);
      // Geometric midpoint of the bucket: at most a factor 2^(1/2k) from
      // either edge, so within one bucket width of the true order statistic.
      const double lo = bucket_lower_bound(i);
      const double hi = bucket_upper_bound(i);
      return std::clamp(std::sqrt(lo * hi), min_, max_);
    }
  }
  return max_;
}

}  // namespace pts
