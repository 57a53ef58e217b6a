// Pathological instances through the whole stack: degenerate shapes that a
// downstream user will eventually feed the library must be handled without
// crashes and with sane answers.
#include <gtest/gtest.h>

#include "bounds/greedy.hpp"
#include "bounds/simplex.hpp"
#include "exact/branch_and_bound.hpp"
#include "parallel/runner.hpp"
#include "tabu/cets.hpp"
#include "tabu/engine.hpp"

namespace pts {
namespace {

tabu::TsParams tiny_budget() {
  tabu::TsParams params;
  params.max_moves = 300;
  params.strategy.nb_local = 10;
  return params;
}

TEST(Pathological, SingleItemThatFits) {
  mkp::Instance inst("one-fits", {7.0}, {3.0}, {5.0});
  Rng rng(1);
  const auto ts = tabu::tabu_search_from_scratch(inst, tiny_budget(), rng);
  EXPECT_DOUBLE_EQ(ts.best_value, 7.0);
  EXPECT_DOUBLE_EQ(exact::branch_and_bound(inst).objective, 7.0);
  EXPECT_DOUBLE_EQ(bounds::solve_lp_relaxation(inst).objective, 7.0);
}

TEST(Pathological, SingleItemThatDoesNot) {
  mkp::Instance inst("one-big", {7.0}, {9.0}, {5.0});
  Rng rng(2);
  const auto ts = tabu::tabu_search_from_scratch(inst, tiny_budget(), rng);
  EXPECT_DOUBLE_EQ(ts.best_value, 0.0);
  EXPECT_TRUE(ts.best.is_feasible());
  EXPECT_DOUBLE_EQ(exact::branch_and_bound(inst).objective, 0.0);
}

TEST(Pathological, NothingFitsAtAll) {
  mkp::Instance inst("none", {5, 6, 7}, {10, 11, 12}, {4});
  Rng rng(3);
  const auto ts = tabu::tabu_search_from_scratch(inst, tiny_budget(), rng);
  EXPECT_DOUBLE_EQ(ts.best_value, 0.0);
  const auto greedy = bounds::greedy_construct(inst);
  EXPECT_EQ(greedy.cardinality(), 0U);
}

TEST(Pathological, EverythingFitsTrivially) {
  mkp::Instance inst("all", {1, 2, 3, 4}, {1, 1, 1, 1}, {100});
  Rng rng(4);
  const auto ts = tabu::tabu_search_from_scratch(inst, tiny_budget(), rng);
  EXPECT_DOUBLE_EQ(ts.best_value, 10.0);
}

TEST(Pathological, AllItemsIdentical) {
  // 10 identical items, room for exactly 4.
  std::vector<double> profits(10, 5.0);
  std::vector<double> weights(10, 3.0);
  mkp::Instance inst("clones", std::move(profits), std::move(weights), {12.0});
  Rng rng(5);
  const auto ts = tabu::tabu_search_from_scratch(inst, tiny_budget(), rng);
  EXPECT_DOUBLE_EQ(ts.best_value, 20.0);
  const auto bnb = exact::branch_and_bound(inst);
  EXPECT_DOUBLE_EQ(bnb.objective, 20.0);
}

TEST(Pathological, ZeroWeightItemsAlwaysTaken) {
  // Items 1 and 3 weigh nothing: any sensible solver takes them for free.
  mkp::Instance inst("free", {4, 9, 2, 8}, {5, 0, 5, 0}, {5});
  Rng rng(6);
  const auto ts = tabu::tabu_search_from_scratch(inst, tiny_budget(), rng);
  EXPECT_TRUE(ts.best.contains(1));
  EXPECT_TRUE(ts.best.contains(3));
  // optimum: free items (17) + best of items 0/2 (4) = 21.
  EXPECT_DOUBLE_EQ(ts.best_value, 21.0);
}

TEST(Pathological, ZeroCapacityConstraintPinsEverythingWithWeight) {
  mkp::Instance inst("pin", {4, 9}, {1, 0, 1, 1}, {0, 10});
  // Constraint 0 has capacity 0: item 0 (weight 1) can never enter.
  Rng rng(7);
  const auto ts = tabu::tabu_search_from_scratch(inst, tiny_budget(), rng);
  EXPECT_FALSE(ts.best.contains(0));
  EXPECT_TRUE(ts.best.contains(1));
  EXPECT_DOUBLE_EQ(ts.best_value, 9.0);
}

TEST(Pathological, OneByOneInstance) {
  mkp::Instance inst("1x1", {42.0}, {1.0}, {1.0});
  Rng rng(8);
  EXPECT_DOUBLE_EQ(tabu::tabu_search_from_scratch(inst, tiny_budget(), rng).best_value,
                   42.0);
  Rng rng2(8);
  tabu::CetsParams cets;
  cets.max_steps = 200;
  EXPECT_DOUBLE_EQ(tabu::critical_event_tabu_search(inst, rng2, cets).best_value, 42.0);
}

TEST(Pathological, HugeProfitsStayFinite) {
  mkp::Instance inst("huge", {1e15, 2e15}, {1, 1}, {2});
  Rng rng(9);
  const auto ts = tabu::tabu_search_from_scratch(inst, tiny_budget(), rng);
  EXPECT_DOUBLE_EQ(ts.best_value, 3e15);
  const auto lp = bounds::solve_lp_relaxation(inst);
  ASSERT_TRUE(lp.optimal());
  EXPECT_DOUBLE_EQ(lp.objective, 3e15);
}

TEST(Pathological, ParallelRunnerHandlesTinyInstances) {
  mkp::Instance inst("tiny", {3, 1}, {2, 1}, {2});
  parallel::ParallelConfig config;
  config.num_slaves = 3;
  config.search_iterations = 2;
  config.work_per_slave_round = 100;
  const auto result = parallel::run_parallel_tabu_search(inst, config);
  EXPECT_DOUBLE_EQ(result.best_value, 3.0);
}

}  // namespace
}  // namespace pts
