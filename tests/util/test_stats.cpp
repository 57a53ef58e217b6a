#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/rng.hpp"

namespace pts {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0U);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(4.5);
  EXPECT_EQ(s.count(), 1U);
  EXPECT_DOUBLE_EQ(s.mean(), 4.5);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 4.5);
  EXPECT_DOUBLE_EQ(s.max(), 4.5);
}

TEST(RunningStats, KnownSample) {
  // Sample {2, 4, 4, 4, 5, 5, 7, 9}: mean 5, sample variance 32/7.
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, MatchesNaiveComputation) {
  Rng rng(5);
  std::vector<double> values;
  RunningStats s;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform_real(-50, 50);
    values.push_back(v);
    s.add(v);
  }
  double mean = 0.0;
  for (double v : values) mean += v;
  mean /= static_cast<double>(values.size());
  double var = 0.0;
  for (double v : values) var += (v - mean) * (v - mean);
  var /= static_cast<double>(values.size() - 1);
  EXPECT_NEAR(s.mean(), mean, 1e-9);
  EXPECT_NEAR(s.variance(), var, 1e-7);
}

TEST(RunningStats, MergeMatchesCombinedStream) {
  Rng rng(6);
  RunningStats all, left, right;
  for (int i = 0; i < 500; ++i) {
    const double v = rng.uniform_real(0, 10);
    all.add(v);
    (i < 200 ? left : right).add(v);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-7);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, b;
  a.add(1.0);
  a.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2U);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  b.merge(a);
  EXPECT_EQ(b.count(), 2U);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(RunningStats, MergeChainPropagatesMinMax) {
  // Extremes live in different shards; every merge order must surface them.
  RunningStats a, b, c;
  a.add(5.0);
  b.add(-100.0);
  b.add(6.0);
  c.add(200.0);
  a.merge(b);
  a.merge(c);
  EXPECT_DOUBLE_EQ(a.min(), -100.0);
  EXPECT_DOUBLE_EQ(a.max(), 200.0);
  EXPECT_EQ(a.count(), 4U);

  RunningStats reversed;
  reversed.merge(c);  // merge into empty adopts the shard wholesale
  reversed.merge(b);
  reversed.merge(a);  // re-merging a superset keeps extremes stable
  EXPECT_DOUBLE_EQ(reversed.min(), -100.0);
  EXPECT_DOUBLE_EQ(reversed.max(), 200.0);
}

TEST(RunningStats, MergedM2MatchesBatchOnOffsetData) {
  // Chan's pairwise update must agree with the two-pass computation even
  // when the shards sit on a large common offset (the classic catastrophic
  // cancellation setup for naive sum-of-squares).
  constexpr double kOffset = 1.0e9;
  std::vector<double> values;
  RunningStats left, right;
  for (int i = 0; i < 400; ++i) {
    const double v = kOffset + static_cast<double>(i % 17) * 0.25;
    values.push_back(v);
    (i % 3 == 0 ? left : right).add(v);
  }
  left.merge(right);

  double mean = 0.0;
  for (double v : values) mean += v;
  mean /= static_cast<double>(values.size());
  double var = 0.0;
  for (double v : values) var += (v - mean) * (v - mean);
  var /= static_cast<double>(values.size() - 1);

  EXPECT_EQ(left.count(), values.size());
  EXPECT_NEAR(left.mean(), mean, 1e-3);  // absolute tolerance vs 1e9 offset
  EXPECT_NEAR(left.variance(), var, var * 1e-6);
}

TEST(RunningStats, SelfMergeOfEmptyStaysEmpty) {
  RunningStats s;
  s.merge(RunningStats{});
  EXPECT_EQ(s.count(), 0U);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(DeviationPercent, PaperConvention) {
  // achieved 95 against reference 100 -> 5% below.
  EXPECT_DOUBLE_EQ(deviation_percent(95.0, 100.0), 5.0);
  EXPECT_DOUBLE_EQ(deviation_percent(100.0, 100.0), 0.0);
  // above the reference -> negative deviation
  EXPECT_LT(deviation_percent(105.0, 100.0), 0.0);
}

TEST(DeviationPercent, ZeroReferenceIsDefinedAsZero) {
  EXPECT_DOUBLE_EQ(deviation_percent(5.0, 0.0), 0.0);
}

}  // namespace
}  // namespace pts
