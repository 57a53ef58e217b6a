#include "tabu/elite_pool.hpp"

#include <gtest/gtest.h>

#include "mkp/instance.hpp"

namespace pts::tabu {
namespace {

mkp::Instance make_inst() {
  // 6 items, one loose constraint so any subset is feasible; profits
  // 1, 2, 4, 8, 16, 32 make subset values unique.
  return mkp::Instance("e", {1, 2, 4, 8, 16, 32},
                       {1, 1, 1, 1, 1, 1}, {100});
}

mkp::Solution make_solution(const mkp::Instance& inst,
                            std::initializer_list<std::size_t> items) {
  mkp::Solution s(inst);
  for (auto j : items) s.add(j);
  return s;
}

TEST(ElitePool, KeepsBestFirst) {
  const auto inst = make_inst();
  ElitePool pool(3);
  EXPECT_TRUE(pool.offer(make_solution(inst, {0})));       // 1
  EXPECT_TRUE(pool.offer(make_solution(inst, {5})));       // 32
  EXPECT_TRUE(pool.offer(make_solution(inst, {2})));       // 4
  ASSERT_EQ(pool.size(), 3U);
  EXPECT_DOUBLE_EQ(pool.best().value(), 32.0);
  EXPECT_DOUBLE_EQ(pool.solutions()[1].value(), 4.0);
  EXPECT_DOUBLE_EQ(pool.solutions()[2].value(), 1.0);
}

TEST(ElitePool, EvictsWorstAtCapacity) {
  const auto inst = make_inst();
  ElitePool pool(2);
  pool.offer(make_solution(inst, {0}));  // 1
  pool.offer(make_solution(inst, {1}));  // 2
  EXPECT_TRUE(pool.offer(make_solution(inst, {2})));  // 4 evicts 1
  ASSERT_EQ(pool.size(), 2U);
  EXPECT_DOUBLE_EQ(pool.solutions()[1].value(), 2.0);
}

TEST(ElitePool, RejectsWorseThanWorstWhenFull) {
  const auto inst = make_inst();
  ElitePool pool(2);
  pool.offer(make_solution(inst, {4}));  // 16
  pool.offer(make_solution(inst, {5}));  // 32
  EXPECT_FALSE(pool.offer(make_solution(inst, {0})));  // 1 < 16
  EXPECT_EQ(pool.size(), 2U);
}

TEST(ElitePool, RejectsDuplicates) {
  const auto inst = make_inst();
  ElitePool pool(3);
  EXPECT_TRUE(pool.offer(make_solution(inst, {1, 2})));
  EXPECT_FALSE(pool.offer(make_solution(inst, {1, 2})));
  EXPECT_EQ(pool.size(), 1U);
}

TEST(ElitePool, RejectsInfeasible) {
  mkp::Instance tight("t", {5, 5}, {3, 3}, {3});
  ElitePool pool(3);
  mkp::Solution bad(tight);
  bad.add(0);
  bad.add(1);  // load 6 > 3
  EXPECT_FALSE(pool.offer(bad));
  EXPECT_TRUE(pool.empty());
}

TEST(ElitePool, ZeroCapacityAcceptsNothing) {
  const auto inst = make_inst();
  ElitePool pool(0);
  EXPECT_FALSE(pool.offer(make_solution(inst, {5})));
}

TEST(ElitePool, EqualValuesDistinctContentBothKept) {
  // items 0+1 (value 3) vs item 0 and 1 separately... use {0,1} vs {2}? 4 != 3.
  // Build two distinct solutions of equal value: {0,1} = 3 and... no pair
  // matches; use profits trick: {2} = 4 vs {0,1}+... simplest: same-value via
  // different instance.
  mkp::Instance inst("eq", {2, 1, 1}, {1, 1, 1}, {10});
  ElitePool pool(3);
  mkp::Solution a(inst);
  a.add(0);  // value 2
  mkp::Solution b(inst);
  b.add(1);
  b.add(2);  // value 2
  EXPECT_TRUE(pool.offer(a));
  EXPECT_TRUE(pool.offer(b));
  EXPECT_EQ(pool.size(), 2U);
}

TEST(ElitePool, ClearEmptiesPool) {
  const auto inst = make_inst();
  ElitePool pool(3);
  pool.offer(make_solution(inst, {0}));
  pool.clear();
  EXPECT_TRUE(pool.empty());
}

TEST(ElitePoolDeath, BestOnEmptyAborts) {
  ElitePool pool(3);
  EXPECT_DEATH((void)pool.best(), "empty");
}

}  // namespace
}  // namespace pts::tabu
