#include "mkp/generator.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace pts::mkp {
namespace {

TEST(GkGenerator, ShapeMatchesConfig) {
  const auto inst = generate_gk({.num_items = 40, .num_constraints = 6}, 11);
  EXPECT_EQ(inst.num_items(), 40U);
  EXPECT_EQ(inst.num_constraints(), 6U);
  EXPECT_TRUE(inst.validate().empty());
}

TEST(GkGenerator, DeterministicPerSeed) {
  const auto a = generate_gk({.num_items = 30, .num_constraints = 5}, 99);
  const auto b = generate_gk({.num_items = 30, .num_constraints = 5}, 99);
  for (std::size_t j = 0; j < 30; ++j) EXPECT_DOUBLE_EQ(a.profit(j), b.profit(j));
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(a.capacity(i), b.capacity(i));
    for (std::size_t j = 0; j < 30; ++j) {
      EXPECT_DOUBLE_EQ(a.weight(i, j), b.weight(i, j));
    }
  }
}

TEST(GkGenerator, SeedsProduceDifferentInstances) {
  const auto a = generate_gk({.num_items = 30, .num_constraints = 5}, 1);
  const auto b = generate_gk({.num_items = 30, .num_constraints = 5}, 2);
  bool any_diff = false;
  for (std::size_t j = 0; j < 30 && !any_diff; ++j) {
    any_diff = a.profit(j) != b.profit(j);
  }
  EXPECT_TRUE(any_diff);
}

TEST(GkGenerator, WeightsWithinRange) {
  const auto inst = generate_gk({.num_items = 50, .num_constraints = 4}, 5);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 50; ++j) {
      EXPECT_GE(inst.weight(i, j), 1.0);
      EXPECT_LE(inst.weight(i, j), 1000.0);
    }
  }
}

TEST(GkGenerator, CapacityRespectsTightness) {
  GkConfig config{.num_items = 100, .num_constraints = 3, .tightness = 0.25};
  const auto inst = generate_gk(config, 7);
  for (std::size_t i = 0; i < 3; ++i) {
    double row_sum = 0.0;
    for (std::size_t j = 0; j < 100; ++j) row_sum += inst.weight(i, j);
    EXPECT_LE(inst.capacity(i), 0.25 * row_sum + 1.0);
    EXPECT_GE(inst.capacity(i), 0.25 * row_sum - 1.0);
  }
}

TEST(GkGenerator, NoItemTriviallyExcluded) {
  // b_i >= max row weight even at extreme tightness.
  GkConfig config{.num_items = 8, .num_constraints = 2, .tightness = 0.01};
  const auto inst = generate_gk(config, 13);
  EXPECT_TRUE(inst.every_item_fits());
}

TEST(GkGenerator, ProfitsAreCorrelatedWithColumnSums) {
  // c_j = colsum/m + U(0,500): so c_j - colsum/m must lie in [0, 500].
  const auto inst = generate_gk({.num_items = 200, .num_constraints = 5}, 17);
  for (std::size_t j = 0; j < 200; ++j) {
    const double base = inst.column_weight_sum(j) / 5.0;
    EXPECT_GE(inst.profit(j), base - 1.0);
    EXPECT_LE(inst.profit(j), base + 501.0);
  }
}

TEST(FpGenerator, ShapeAndValidity) {
  const auto inst = generate_fp({.num_items = 25, .num_constraints = 10}, 3);
  EXPECT_EQ(inst.num_items(), 25U);
  EXPECT_EQ(inst.num_constraints(), 10U);
  EXPECT_TRUE(inst.validate().empty());
}

TEST(Fp57, ExactlyFiftySevenProblems) {
  const auto suite = generate_fp57(42);
  ASSERT_EQ(suite.size(), 57U);
}

TEST(Fp57, SizesWithinPublishedRanges) {
  for (const auto& inst : generate_fp57(42)) {
    EXPECT_GE(inst.num_items(), 6U);
    EXPECT_LE(inst.num_items(), 105U);
    EXPECT_GE(inst.num_constraints(), 2U);
    EXPECT_LE(inst.num_constraints(), 30U);
    EXPECT_TRUE(inst.validate().empty());
  }
}

TEST(Fp57, DeterministicPerSeed) {
  const auto a = generate_fp57(9);
  const auto b = generate_fp57(9);
  for (std::size_t k = 0; k < 57; ++k) {
    EXPECT_EQ(a[k].num_items(), b[k].num_items());
    EXPECT_DOUBLE_EQ(a[k].profit(0), b[k].profit(0));
  }
}

TEST(Uncorrelated, ProfitsIndependentOfWeights) {
  const auto inst = generate_uncorrelated(60, 4, 21);
  EXPECT_EQ(inst.num_items(), 60U);
  EXPECT_TRUE(inst.validate().empty());
}

TEST(WeaklyCorrelated, ProfitsNearFirstRow) {
  const auto inst = generate_weakly_correlated(80, 3, 23, 1000.0, 100.0);
  for (std::size_t j = 0; j < 80; ++j) {
    EXPECT_GE(inst.profit(j), inst.weight(0, j) - 101.0);
    EXPECT_LE(inst.profit(j), inst.weight(0, j) + 101.0);
  }
}

TEST(Table1Classes, CoversPaperGrid) {
  const auto classes = generate_gk_table1_classes(31, 2);
  ASSERT_EQ(classes.size(), 10U);
  EXPECT_EQ(classes.front().label, "3x10");
  EXPECT_EQ(classes.back().label, "25x500");
  for (const auto& cls : classes) {
    EXPECT_EQ(cls.instances.size(), 2U);
    for (const auto& inst : cls.instances) EXPECT_TRUE(inst.validate().empty());
  }
}

TEST(Table1Classes, SizeScaleShrinksItems) {
  const auto classes = generate_gk_table1_classes(31, 1, 0.2);
  // 25x500 scaled by 0.2 -> 25x100.
  EXPECT_EQ(classes.back().label, "25x100");
  EXPECT_EQ(classes.back().instances[0].num_items(), 100U);
}

class GeneratorSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GeneratorSeedSweep, AllFamiliesProduceValidInstances) {
  const auto seed = GetParam();
  EXPECT_TRUE(generate_gk({.num_items = 30, .num_constraints = 5}, seed).validate().empty());
  EXPECT_TRUE(generate_fp({.num_items = 20, .num_constraints = 4}, seed).validate().empty());
  EXPECT_TRUE(generate_uncorrelated(25, 3, seed).validate().empty());
  EXPECT_TRUE(generate_weakly_correlated(25, 3, seed).validate().empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorSeedSweep,
                         ::testing::Values(1, 7, 19, 101, 997, 10007));

}  // namespace
}  // namespace pts::mkp
