#include "bounds/greedy.hpp"

#include <gtest/gtest.h>

#include "mkp/catalog.hpp"
#include "mkp/generator.hpp"

namespace pts::bounds {
namespace {

using mkp::generate_gk;

TEST(Greedy, ProducesFeasibleSolution) {
  const auto inst = generate_gk({.num_items = 50, .num_constraints = 5}, 1);
  for (auto order : {GreedyOrder::kProfit, GreedyOrder::kDensity,
                     GreedyOrder::kScaledDensity}) {
    const auto s = greedy_construct(inst, order);
    EXPECT_TRUE(s.is_feasible());
    EXPECT_GT(s.value(), 0.0);
  }
}

TEST(Greedy, SolutionIsMaximal) {
  const auto inst = generate_gk({.num_items = 50, .num_constraints = 5}, 2);
  const auto s = greedy_construct(inst);
  for (std::size_t j = 0; j < inst.num_items(); ++j) {
    if (!s.contains(j)) {
      EXPECT_FALSE(s.fits(j)) << "item " << j << " still fits";
    }
  }
}

TEST(Greedy, DensityGreedyFallsIntoTheTrap) {
  // The catalog instance built so density-greedy picks item 0 and scores 10
  // while the optimum is 12.
  const auto entry = mkp::catalog_entry("cat-greedy-trap");
  const auto s = greedy_construct(entry.instance, GreedyOrder::kDensity);
  EXPECT_DOUBLE_EQ(s.value(), 10.0);
  EXPECT_LT(s.value(), entry.optimum);
}

TEST(Greedy, OrderFunctionReturnsPermutation) {
  const auto inst = generate_gk({.num_items = 30, .num_constraints = 3}, 3);
  const auto order = greedy_item_order(inst, GreedyOrder::kDensity);
  ASSERT_EQ(order.size(), 30U);
  std::vector<bool> seen(30, false);
  for (auto j : order) {
    ASSERT_LT(j, 30U);
    EXPECT_FALSE(seen[j]);
    seen[j] = true;
  }
}

TEST(Greedy, ProfitOrderIsDescendingProfit) {
  const auto inst = generate_gk({.num_items = 25, .num_constraints = 3}, 4);
  const auto order = greedy_item_order(inst, GreedyOrder::kProfit);
  for (std::size_t k = 1; k < order.size(); ++k) {
    EXPECT_GE(inst.profit(order[k - 1]), inst.profit(order[k]));
  }
}

TEST(GreedyRandomized, RclOneEqualsDeterministicGreedy) {
  const auto inst = generate_gk({.num_items = 40, .num_constraints = 5}, 5);
  Rng rng(1);
  const auto det = greedy_construct(inst);
  const auto rand1 = greedy_randomized(inst, rng, 1);
  EXPECT_EQ(det, rand1);
}

TEST(GreedyRandomized, FeasibleAndMaximal) {
  const auto inst = generate_gk({.num_items = 40, .num_constraints = 5}, 6);
  Rng rng(2);
  const auto s = greedy_randomized(inst, rng, 4);
  EXPECT_TRUE(s.is_feasible());
  for (std::size_t j = 0; j < inst.num_items(); ++j) {
    if (!s.contains(j)) {
      EXPECT_FALSE(s.fits(j));
    }
  }
}

TEST(GreedyRandomized, DifferentDrawsDiffer) {
  const auto inst = generate_gk({.num_items = 60, .num_constraints = 5}, 7);
  Rng rng(3);
  const auto a = greedy_randomized(inst, rng, 6);
  const auto b = greedy_randomized(inst, rng, 6);
  EXPECT_NE(a, b);  // overwhelmingly likely with rcl 6 on 60 items
}

TEST(RandomFeasible, FeasibleMaximalAndVaried) {
  const auto inst = generate_gk({.num_items = 60, .num_constraints = 5}, 8);
  Rng rng(4);
  const auto a = random_feasible(inst, rng);
  const auto b = random_feasible(inst, rng);
  EXPECT_TRUE(a.is_feasible());
  EXPECT_TRUE(b.is_feasible());
  EXPECT_NE(a, b);
  for (std::size_t j = 0; j < inst.num_items(); ++j) {
    if (!a.contains(j)) {
      EXPECT_FALSE(a.fits(j));
    }
  }
}

TEST(GreedyFill, CompletesPartialSolution) {
  const auto inst = generate_gk({.num_items = 30, .num_constraints = 4}, 9);
  mkp::Solution s(inst);
  greedy_fill(s);
  const double filled = s.value();
  EXPECT_GT(filled, 0.0);
  // Filling an already-maximal solution changes nothing.
  greedy_fill(s);
  EXPECT_DOUBLE_EQ(s.value(), filled);
}

TEST(Repair, NoOpOnFeasible) {
  const auto inst = generate_gk({.num_items = 30, .num_constraints = 4}, 10);
  auto s = greedy_construct(inst);
  const double value = s.value();
  repair_to_feasible(s);
  EXPECT_DOUBLE_EQ(s.value(), value);
}

TEST(Repair, RestoresFeasibility) {
  const auto inst = generate_gk({.num_items = 30, .num_constraints = 4}, 11);
  mkp::Solution s(inst);
  for (std::size_t j = 0; j < inst.num_items(); ++j) s.add(j);  // grossly infeasible
  ASSERT_FALSE(s.is_feasible());
  repair_to_feasible(s);
  EXPECT_TRUE(s.is_feasible());
}

TEST(Repair, DropsWorstRatioFirst) {
  // Two items violating a single constraint: the one with worse
  // weight-sum/profit ratio must go first.
  mkp::Instance inst("r", {10, 1}, {5, 5}, {5});
  mkp::Solution s(inst);
  s.add(0);
  s.add(1);
  ASSERT_FALSE(s.is_feasible());
  repair_to_feasible(s);
  EXPECT_TRUE(s.contains(0));   // ratio 0.5
  EXPECT_FALSE(s.contains(1));  // ratio 5.0 -> dropped
}

class GreedySeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GreedySeedSweep, AllConstructorsFeasibleOnFpInstances) {
  const auto inst = mkp::generate_fp({.num_items = 35, .num_constraints = 8}, GetParam());
  Rng rng(GetParam());
  EXPECT_TRUE(greedy_construct(inst, GreedyOrder::kProfit).is_feasible());
  EXPECT_TRUE(greedy_construct(inst, GreedyOrder::kDensity).is_feasible());
  EXPECT_TRUE(greedy_construct(inst, GreedyOrder::kScaledDensity).is_feasible());
  EXPECT_TRUE(greedy_randomized(inst, rng, 3).is_feasible());
  EXPECT_TRUE(random_feasible(inst, rng).is_feasible());
}

INSTANTIATE_TEST_SUITE_P(Seeds, GreedySeedSweep, ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace pts::bounds
