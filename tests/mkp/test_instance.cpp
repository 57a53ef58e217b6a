#include "mkp/instance.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace pts::mkp {
namespace {

Instance make_2x3() {
  // 2 constraints, 3 items.
  //   c = {6, 4, 2}
  //   a = [1 2 3]
  //       [4 5 6]
  //   b = {10, 20}
  return Instance("t", {6, 4, 2}, {1, 2, 3, 4, 5, 6}, {10, 20});
}

TEST(Instance, BasicAccessors) {
  const auto inst = make_2x3();
  EXPECT_EQ(inst.name(), "t");
  EXPECT_EQ(inst.num_items(), 3U);
  EXPECT_EQ(inst.num_constraints(), 2U);
  EXPECT_DOUBLE_EQ(inst.profit(0), 6.0);
  EXPECT_DOUBLE_EQ(inst.profit(2), 2.0);
  EXPECT_DOUBLE_EQ(inst.weight(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(inst.weight(1, 2), 6.0);
  EXPECT_DOUBLE_EQ(inst.capacity(0), 10.0);
  EXPECT_DOUBLE_EQ(inst.capacity(1), 20.0);
}

TEST(Instance, WeightsRowIsContiguousRow) {
  const auto inst = make_2x3();
  const auto row1 = inst.weights_row(1);
  ASSERT_EQ(row1.size(), 3U);
  EXPECT_DOUBLE_EQ(row1[0], 4.0);
  EXPECT_DOUBLE_EQ(row1[1], 5.0);
  EXPECT_DOUBLE_EQ(row1[2], 6.0);
}

TEST(Instance, WeightsColIsContiguousColumnMirror) {
  const auto inst = make_2x3();
  for (std::size_t j = 0; j < inst.num_items(); ++j) {
    const auto col = inst.weights_col(j);
    ASSERT_EQ(col.size(), inst.num_constraints());
    for (std::size_t i = 0; i < inst.num_constraints(); ++i) {
      EXPECT_DOUBLE_EQ(col[i], inst.weight(i, j)) << "a[" << i << "][" << j << "]";
    }
  }
}

TEST(Instance, ColumnMinMaxWeightSummaries) {
  const auto inst = make_2x3();  // columns: {1,4}, {2,5}, {3,6}
  EXPECT_DOUBLE_EQ(inst.min_col_weight(0), 1.0);
  EXPECT_DOUBLE_EQ(inst.max_col_weight(0), 4.0);
  EXPECT_DOUBLE_EQ(inst.min_col_weight(2), 3.0);
  EXPECT_DOUBLE_EQ(inst.max_col_weight(2), 6.0);
}

TEST(Instance, RelativeSlackScalesAreReciprocalCapacities) {
  const auto inst = make_2x3();
  EXPECT_DOUBLE_EQ(inst.relative_slack_scale(0), 1.0 / 10.0);
  EXPECT_DOUBLE_EQ(inst.relative_slack_scale(1), 1.0 / 20.0);
  // b_i = 0 falls back to raw slack (scale 1), never a division by zero.
  Instance zero_cap("zc", {1}, {1, 1}, {0, 5});
  EXPECT_DOUBLE_EQ(zero_cap.relative_slack_scale(0), 1.0);
  EXPECT_DOUBLE_EQ(zero_cap.relative_slack_scale(1), 1.0 / 5.0);
}

TEST(Instance, ColumnWeightSums) {
  const auto inst = make_2x3();
  EXPECT_DOUBLE_EQ(inst.column_weight_sum(0), 5.0);
  EXPECT_DOUBLE_EQ(inst.column_weight_sum(1), 7.0);
  EXPECT_DOUBLE_EQ(inst.column_weight_sum(2), 9.0);
}

TEST(Instance, ProfitDensity) {
  const auto inst = make_2x3();
  EXPECT_DOUBLE_EQ(inst.profit_density(0), 6.0 / 5.0);
  EXPECT_DOUBLE_EQ(inst.profit_density(1), 4.0 / 7.0);
}

TEST(Instance, ZeroWeightItemHasInfiniteDensity) {
  Instance inst("z", {5, 3}, {0, 1, 0, 1}, {4, 4});
  EXPECT_TRUE(std::isinf(inst.profit_density(0)));
}

TEST(Instance, TotalProfit) {
  const auto inst = make_2x3();
  EXPECT_DOUBLE_EQ(inst.total_profit(), 12.0);
}

TEST(Instance, KnownOptimumDefaultsUnset) {
  auto inst = make_2x3();
  EXPECT_FALSE(inst.known_optimum().has_value());
  inst.set_known_optimum(11.0);
  ASSERT_TRUE(inst.known_optimum().has_value());
  EXPECT_DOUBLE_EQ(*inst.known_optimum(), 11.0);
}

TEST(Instance, ValidateCleanInstance) {
  EXPECT_TRUE(make_2x3().validate().empty());
}

TEST(Instance, ValidateFlagsNonPositiveProfit) {
  Instance inst("bad", {0, 1}, {1, 1}, {2});
  const auto issues = inst.validate();
  ASSERT_EQ(issues.size(), 1U);
  EXPECT_NE(issues[0].find("profit"), std::string::npos);
}

TEST(Instance, ValidateFlagsNegativeWeightAndCapacity) {
  Instance inst("bad", {1, 1}, {-1, 1}, {-2});
  const auto issues = inst.validate();
  EXPECT_EQ(issues.size(), 2U);
}

TEST(Instance, ValidateFlagsNonFiniteValues) {
  // NaN fails every ordered comparison, so each check must be written to
  // reject it; infinities are refused too.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(Instance("p", {nan, 1}, {1, 1}, {2}).validate().size(), 1U);
  EXPECT_EQ(Instance("p", {inf, 1}, {1, 1}, {2}).validate().size(), 1U);
  EXPECT_EQ(Instance("w", {1, 1}, {nan, inf}, {2}).validate().size(), 2U);
  EXPECT_EQ(Instance("c", {1, 1}, {1, 1}, {nan}).validate().size(), 1U);
  EXPECT_EQ(Instance("c", {1, 1}, {1, 1}, {inf}).validate().size(), 1U);
  EXPECT_TRUE(Instance("z", {1, 1}, {0, 1}, {0}).validate().empty());
}

TEST(Instance, EveryItemFits) {
  EXPECT_TRUE(make_2x3().every_item_fits());
  Instance tight("tight", {1, 1}, {5, 20}, {10});
  EXPECT_FALSE(tight.every_item_fits());
}

TEST(InstanceDeath, RejectsEmptyItems) {
  EXPECT_DEATH(Instance("x", {}, {}, {1.0}), "at least one item");
}

TEST(InstanceDeath, RejectsEmptyConstraints) {
  EXPECT_DEATH(Instance("x", {1.0}, {}, {}), "at least one constraint");
}

TEST(InstanceDeath, RejectsWrongMatrixSize) {
  EXPECT_DEATH(Instance("x", {1.0, 2.0}, {1.0, 2.0, 3.0}, {1.0}), "m\\*n");
}

}  // namespace
}  // namespace pts::mkp
