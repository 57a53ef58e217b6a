#include "exact/dp_single.hpp"

#include <gtest/gtest.h>

#include "exact/brute_force.hpp"
#include "mkp/generator.hpp"

namespace pts::exact {
namespace {

TEST(Dp, TinyHandExample) {
  mkp::Instance inst("t", {10, 7, 6, 1}, {5, 4, 3, 1}, {7});
  const auto result = dp_single_knapsack(inst);
  EXPECT_DOUBLE_EQ(result.optimum, 13.0);
  EXPECT_TRUE(result.best.is_feasible());
}

TEST(Dp, SubsetSumReachesCapacity) {
  mkp::Instance inst("ss", {1, 2, 3, 4, 5, 6}, {1, 2, 3, 4, 5, 6}, {10});
  const auto result = dp_single_knapsack(inst);
  EXPECT_DOUBLE_EQ(result.optimum, 10.0);
}

TEST(Dp, NothingFits) {
  mkp::Instance inst("n", {5.0}, {10.0}, {4.0});
  const auto result = dp_single_knapsack(inst);
  EXPECT_DOUBLE_EQ(result.optimum, 0.0);
  EXPECT_EQ(result.best.cardinality(), 0U);
}

TEST(Dp, FractionalCapacityIsFloored) {
  // capacity 7.9 floors to 7: same optimum as capacity 7.
  mkp::Instance inst("f", {10, 7, 6, 1}, {5, 4, 3, 1}, {7.9});
  const auto result = dp_single_knapsack(inst);
  EXPECT_DOUBLE_EQ(result.optimum, 13.0);
}

TEST(DpDeath, RequiresSingleConstraint) {
  mkp::Instance inst("m2", {1, 1}, {1, 1, 1, 1}, {2, 2});
  EXPECT_DEATH((void)dp_single_knapsack(inst), "one constraint");
}

TEST(DpDeath, RequiresIntegerWeights) {
  mkp::Instance inst("fr", {1, 1}, {1.5, 2.0}, {3.0});
  EXPECT_DEATH((void)dp_single_knapsack(inst), "integer weights");
}

class DpOracleSweep : public ::testing::TestWithParam<std::uint64_t> {};

/// Strongly correlated: every profit is its weight plus 10.
mkp::Instance strongly_correlated(std::uint64_t seed) {
  const auto base = mkp::generate_uncorrelated(15, 1, seed, 30.0, 0.5);
  const auto weights = base.weights_row(0);
  std::vector<double> profits(weights.begin(), weights.end());
  for (auto& p : profits) p += 10.0;
  return mkp::Instance("strong", std::move(profits),
                       {weights.begin(), weights.end()}, {base.capacity(0)});
}

TEST_P(DpOracleSweep, MatchesBruteForce) {
  const auto inst = mkp::generate_uncorrelated(18, 1, GetParam(), 40.0, 0.5);
  const auto oracle = brute_force(inst);
  const auto result = dp_single_knapsack(inst);
  EXPECT_DOUBLE_EQ(result.optimum, oracle.optimum);
}

TEST_P(DpOracleSweep, MatchesBruteForceStronglyCorrelated) {
  const auto inst = strongly_correlated(GetParam());
  const auto oracle = brute_force(inst);
  const auto result = dp_single_knapsack(inst);
  EXPECT_DOUBLE_EQ(result.optimum, oracle.optimum);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DpOracleSweep, ::testing::Values(2, 4, 6, 8, 10, 12));

}  // namespace
}  // namespace pts::exact
