// LogHistogram: bucket geometry, exact count/sum/min/max bookkeeping, merge
// associativity (bitwise, on exactly-representable samples), percentile
// clamping, and a randomized comparison against the exact sorted-vector
// order statistic — the 12.5% relative-error contract the header promises.
#include "util/histogram.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "util/rng.hpp"

namespace pts {
namespace {

TEST(LogHistogram, EmptyReportsZeros) {
  const LogHistogram h;
  EXPECT_EQ(h.count(), 0U);
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.percentile(0.5), 0.0);
  EXPECT_EQ(h.percentile(0.99), 0.0);
}

TEST(LogHistogram, TracksExactCountSumMinMax) {
  LogHistogram h;
  h.record(0.25);
  h.record(4.0);
  h.record(1.0);
  EXPECT_EQ(h.count(), 3U);
  EXPECT_DOUBLE_EQ(h.sum(), 5.25);
  EXPECT_DOUBLE_EQ(h.min(), 0.25);
  EXPECT_DOUBLE_EQ(h.max(), 4.0);
  EXPECT_DOUBLE_EQ(h.mean(), 1.75);
}

TEST(LogHistogram, BucketBoundsContainTheirValue) {
  // Every positive value in the resolved range must land in a bucket whose
  // [lower, upper) interval contains it.
  Rng rng(7);
  for (int i = 0; i < 2'000; ++i) {
    // Log-uniform across the resolved magnitudes.
    const double exponent = rng.uniform_real(-38.0, 23.0);
    const double value = std::pow(2.0, exponent);
    const auto index = LogHistogram::bucket_index(value);
    ASSERT_GT(index, 0U);
    ASSERT_LT(index, LogHistogram::kBucketCount);
    EXPECT_LE(LogHistogram::bucket_lower_bound(index), value)
        << "value " << value << " below bucket " << index;
    EXPECT_LT(value, LogHistogram::bucket_upper_bound(index))
        << "value " << value << " above bucket " << index;
  }
}

TEST(LogHistogram, BucketRelativeWidthIsBounded) {
  // Each octave is cut into kSubBuckets EQUAL-width slices, so the widest
  // slice (the octave's first) spans a factor (kSubBuckets + 1)/kSubBuckets
  // — the resolution claim behind the percentile error bound.
  const double max_ratio =
      (LogHistogram::kSubBuckets + 1.0) / LogHistogram::kSubBuckets + 1e-12;
  for (std::size_t i = 1; i + 1 < LogHistogram::kBucketCount; ++i) {
    const double lo = LogHistogram::bucket_lower_bound(i);
    const double hi = LogHistogram::bucket_upper_bound(i);
    ASSERT_GT(lo, 0.0);
    EXPECT_GT(hi, lo);
    EXPECT_LE(hi / lo, max_ratio) << "bucket " << i;
  }
}

TEST(LogHistogram, NonPositiveAndNaNLandInUnderflowBucket) {
  LogHistogram h;
  h.record(0.0);
  h.record(-3.5);
  h.record(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(h.count(), 3U);
  EXPECT_EQ(h.bucket_count(0), 3U);
  // NaN is cleaned to 0 for the exact stats; the minimum is the real -3.5.
  EXPECT_DOUBLE_EQ(h.min(), -3.5);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  // The underflow bucket reports 0, clamped into the observed range.
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
}

TEST(LogHistogram, ExtremesClampToEdgeBuckets) {
  EXPECT_EQ(LogHistogram::bucket_index(1e-300), 1U);
  EXPECT_EQ(LogHistogram::bucket_index(1e300),
            LogHistogram::kBucketCount - 1);
  EXPECT_EQ(LogHistogram::bucket_index(
                std::numeric_limits<double>::infinity()),
            LogHistogram::kBucketCount - 1);
}

TEST(LogHistogram, PercentileClampsToObservedRange) {
  LogHistogram h;
  h.record(0.37);
  for (const double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(h.percentile(q), 0.37) << "q=" << q;
  }
  h.record(0.38);
  EXPECT_GE(h.percentile(0.0), 0.37);
  EXPECT_LE(h.percentile(1.0), 0.38);
}

TEST(LogHistogram, PercentileIsMonotoneInQ) {
  LogHistogram h;
  Rng rng(11);
  for (int i = 0; i < 500; ++i) h.record(rng.uniform_real(1e-4, 10.0));
  double previous = -1.0;
  for (double q = 0.0; q <= 1.0; q += 0.01) {
    const double p = h.percentile(q);
    EXPECT_GE(p, previous) << "q=" << q;
    previous = p;
  }
}

TEST(LogHistogram, PercentileTracksSortedVectorReference) {
  // Fuzz the 12.5% relative-error contract: the histogram's percentile must
  // stay within one bucket width of the exact order statistic.
  const double width =
      (LogHistogram::kSubBuckets + 1.0) / LogHistogram::kSubBuckets;
  Rng rng(20260808);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 50 + rng.index(2'000);
    std::vector<double> values;
    values.reserve(n);
    LogHistogram h;
    for (std::size_t i = 0; i < n; ++i) {
      // Log-uniform over six decades of "latency".
      const double v = std::pow(10.0, rng.uniform_real(-6.0, 0.5));
      values.push_back(v);
      h.record(v);
    }
    std::sort(values.begin(), values.end());
    for (const double q : {0.5, 0.9, 0.99}) {
      const auto rank = std::max<std::size_t>(
          1, static_cast<std::size_t>(
                 std::ceil(q * static_cast<double>(n))));
      const double exact = values[rank - 1];
      const double estimate = h.percentile(q);
      EXPECT_GE(estimate, exact / width)
          << "trial " << trial << " q=" << q << " n=" << n;
      EXPECT_LE(estimate, exact * width)
          << "trial " << trial << " q=" << q << " n=" << n;
    }
  }
}

}  // namespace
}  // namespace pts
