#include "mkp/solution.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "mkp/generator.hpp"
#include "util/rng.hpp"

namespace pts::mkp {
namespace {

Instance make_inst() {
  // 2 constraints, 4 items.
  //   c = {10, 7, 6, 1}
  //   a = [5 4 3 1]
  //       [2 2 2 2]
  //   b = {7, 6}
  return Instance("s", {10, 7, 6, 1}, {5, 4, 3, 1, 2, 2, 2, 2}, {7, 6});
}

TEST(Solution, StartsEmptyAndFeasible) {
  const auto inst = make_inst();
  Solution s(inst);
  EXPECT_EQ(s.cardinality(), 0U);
  EXPECT_DOUBLE_EQ(s.value(), 0.0);
  EXPECT_TRUE(s.is_feasible());
  EXPECT_DOUBLE_EQ(s.load(0), 0.0);
}

TEST(Solution, AddUpdatesValueAndLoads) {
  const auto inst = make_inst();
  Solution s(inst);
  s.add(0);
  EXPECT_TRUE(s.contains(0));
  EXPECT_DOUBLE_EQ(s.value(), 10.0);
  EXPECT_DOUBLE_EQ(s.load(0), 5.0);
  EXPECT_DOUBLE_EQ(s.load(1), 2.0);
  EXPECT_DOUBLE_EQ(s.slack(0), 2.0);
  EXPECT_EQ(s.cardinality(), 1U);
}

TEST(Solution, DropRestoresState) {
  const auto inst = make_inst();
  Solution s(inst);
  s.add(1);
  s.add(2);
  s.drop(1);
  EXPECT_FALSE(s.contains(1));
  EXPECT_DOUBLE_EQ(s.value(), 6.0);
  EXPECT_DOUBLE_EQ(s.load(0), 3.0);
  EXPECT_EQ(s.cardinality(), 1U);
}

TEST(Solution, FlipTogglesMembership) {
  const auto inst = make_inst();
  Solution s(inst);
  s.flip(3);
  EXPECT_TRUE(s.contains(3));
  s.flip(3);
  EXPECT_FALSE(s.contains(3));
}

TEST(Solution, ClearResetsEverything) {
  const auto inst = make_inst();
  Solution s(inst);
  s.add(0);
  s.add(3);
  s.clear();
  EXPECT_EQ(s.cardinality(), 0U);
  EXPECT_DOUBLE_EQ(s.value(), 0.0);
  EXPECT_DOUBLE_EQ(s.load(0), 0.0);
  EXPECT_DOUBLE_EQ(s.load(1), 0.0);
}

TEST(Solution, InfeasibilityDetected) {
  const auto inst = make_inst();
  Solution s(inst);
  s.add(0);  // load0 = 5
  s.add(1);  // load0 = 9 > 7
  EXPECT_FALSE(s.is_feasible());
  EXPECT_DOUBLE_EQ(s.min_slack(), -2.0);
}

TEST(Solution, FitsChecksEveryConstraint) {
  const auto inst = make_inst();
  Solution s(inst);
  s.add(0);            // loads: {5, 2}
  EXPECT_FALSE(s.fits(1));  // 5+4 = 9 > 7
  EXPECT_TRUE(s.fits(3));   // 5+1 = 6 <= 7, 2+2 = 4 <= 6
  s.add(3);            // loads: {6, 4}
  s.add(2);            // would be 9 > 7... add unchecked
  EXPECT_FALSE(s.is_feasible());
}

TEST(Solution, MostSaturatedConstraintAbsolute) {
  const auto inst = make_inst();
  Solution s(inst);
  s.add(0);  // slacks: {2, 4}
  EXPECT_EQ(s.most_saturated_constraint(), 0U);
  s.drop(0);
  s.add(3);  // slacks: {6, 4}
  EXPECT_EQ(s.most_saturated_constraint(), 1U);
}

TEST(Solution, MostSaturatedConstraintRelative) {
  // Capacities differ wildly: relative mode normalizes.
  Instance inst("r", {1, 1}, {9, 0, 0, 150}, {100, 1000});
  Solution s(inst);
  s.add(0);  // relative slacks: 91/100 = 0.91, 1000/1000 = 1.0
  EXPECT_EQ(s.most_saturated_constraint(true), 0U);
  s.add(1);  // relative slacks: 0.91, 850/1000 = 0.85
  EXPECT_EQ(s.most_saturated_constraint(true), 1U);
}

TEST(Solution, MostSaturatedConstraintZeroCapacityTieBreak) {
  // b_0 = 0 uses raw slack (no normalization). Both constraints sit at
  // relative key 0 when empty... constraint 0: slack 0 raw; constraint 1:
  // slack 8, key 1.0 — the zero-capacity constraint is the bottleneck.
  Instance inst("zc", {1, 1}, {0, 0, 4, 4}, {0, 8});
  Solution s(inst);
  EXPECT_EQ(s.most_saturated_constraint(true), 0U);
  // A second zero-capacity constraint ties at key 0; lowest index wins.
  Instance both("zz", {1}, {1, 1}, {0, 0});
  Solution t(both);
  EXPECT_EQ(t.most_saturated_constraint(true), 0U);
  EXPECT_EQ(t.most_saturated_constraint(false), 0U);
}

TEST(Solution, MinSlackTracksAddDropClear) {
  const auto inst = make_inst();  // b = {7, 6}
  Solution s(inst);
  EXPECT_DOUBLE_EQ(s.min_slack(), 6.0);  // empty: min capacity
  s.add(0);                              // slacks {2, 4}
  EXPECT_DOUBLE_EQ(s.min_slack(), 2.0);
  s.add(3);  // slacks {1, 2}
  EXPECT_DOUBLE_EQ(s.min_slack(), 1.0);
  s.drop(0);  // slacks {6, 4}
  EXPECT_DOUBLE_EQ(s.min_slack(), 4.0);
  s.add(1);  // slacks {2, 2}
  s.add(2);  // slacks {-1, 0}: infeasible, min_slack negative
  EXPECT_DOUBLE_EQ(s.min_slack(), -1.0);
  EXPECT_FALSE(s.is_feasible());
  s.clear();
  EXPECT_DOUBLE_EQ(s.min_slack(), 6.0);
}

TEST(Solution, MinSlackMatchesDirectScanOnRandomWalk) {
  const auto inst = generate_gk({.num_items = 50, .num_constraints = 9}, 77);
  Solution s(inst);
  Rng rng(78);
  for (int step = 0; step < 500; ++step) {
    s.flip(rng.index(inst.num_items()));
    double expect = s.slack(0);
    for (std::size_t i = 1; i < inst.num_constraints(); ++i) {
      expect = std::min(expect, s.slack(i));
    }
    ASSERT_DOUBLE_EQ(s.min_slack(), expect) << "step " << step;
  }
}

TEST(Solution, InvSlackIsFlooredReciprocalSlack) {
  const auto inst = make_inst();  // b = {7, 6}
  Solution s(inst);
  ASSERT_EQ(s.inv_slack().size(), 2U);
  EXPECT_DOUBLE_EQ(s.inv_slack()[0], 1.0 / 7.0);
  EXPECT_DOUBLE_EQ(s.inv_slack()[1], 1.0 / 6.0);
  s.add(0);  // slacks {2, 4}
  EXPECT_DOUBLE_EQ(s.inv_slack()[0], 1.0 / 2.0);
  EXPECT_DOUBLE_EQ(s.inv_slack()[1], 1.0 / 4.0);
  s.add(1);  // slacks {-2, 2}: negative slack floors at kSlackFloor
  EXPECT_DOUBLE_EQ(s.inv_slack()[0], 1.0 / Solution::kSlackFloor);
  EXPECT_DOUBLE_EQ(s.inv_slack()[1], 1.0 / 2.0);
}

TEST(Solution, InvSlackMatchesDirectRecomputeOnRandomWalk) {
  const auto inst = generate_gk({.num_items = 50, .num_constraints = 9}, 81);
  Solution s(inst);
  Rng rng(82);
  for (int step = 0; step < 500; ++step) {
    s.flip(rng.index(inst.num_items()));
    for (std::size_t i = 0; i < inst.num_constraints(); ++i) {
      const double expect = 1.0 / std::max(s.slack(i), Solution::kSlackFloor);
      ASSERT_DOUBLE_EQ(s.inv_slack()[i], expect) << "step " << step << " i " << i;
    }
  }
}

TEST(Solution, SelectedItemsSortedAscending) {
  const auto inst = make_inst();
  Solution s(inst);
  s.add(2);
  s.add(0);
  const auto items = s.selected_items();
  ASSERT_EQ(items.size(), 2U);
  EXPECT_EQ(items[0], 0U);
  EXPECT_EQ(items[1], 2U);
}

TEST(Solution, HammingDistance) {
  const auto inst = make_inst();
  Solution a(inst), b(inst);
  a.add(0);
  a.add(1);
  b.add(1);
  b.add(2);
  EXPECT_EQ(a.hamming_distance(b), 2U);
  EXPECT_EQ(a.hamming_distance(a), 0U);
}

TEST(Solution, EqualityIsContentBased) {
  const auto inst = make_inst();
  Solution a(inst), b(inst);
  a.add(1);
  b.add(1);
  EXPECT_EQ(a, b);
  b.add(2);
  EXPECT_NE(a, b);
}

TEST(Solution, ConsistencyHoldsAfterManualOps) {
  const auto inst = make_inst();
  Solution s(inst);
  s.add(0);
  s.add(3);
  s.drop(0);
  EXPECT_TRUE(s.check_consistency());
}

class SolutionRandomWalk : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SolutionRandomWalk, IncrementalMatchesRecompute) {
  const auto inst = generate_gk({.num_items = 60, .num_constraints = 7}, GetParam());
  Solution s(inst);
  Rng rng(GetParam() ^ 0xABCDULL);
  for (int step = 0; step < 2000; ++step) {
    s.flip(rng.index(inst.num_items()));
  }
  EXPECT_TRUE(s.check_consistency());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolutionRandomWalk,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace pts::mkp
