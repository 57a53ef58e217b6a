// Oracle-agreement properties: every solver/bound in the repository must
// tell a mutually consistent story on instances small enough to enumerate:
//
//   greedy <= optimum(BF) == optimum(B&B) [== optimum(DP) when m == 1]
//          <= LP <= min-constraint Dantzig bound
#include <gtest/gtest.h>

#include "bounds/dantzig.hpp"
#include "bounds/greedy.hpp"
#include "bounds/simplex.hpp"
#include "exact/branch_and_bound.hpp"
#include "exact/brute_force.hpp"
#include "exact/dp_single.hpp"
#include "mkp/generator.hpp"
#include "tabu/engine.hpp"

namespace pts {
namespace {

class OracleChain : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OracleChain, FullChainOnMultiConstraintInstances) {
  const auto inst =
      mkp::generate_gk({.num_items = 15, .num_constraints = 4}, GetParam());

  const double greedy = bounds::greedy_construct(inst).value();
  const auto bf = exact::brute_force(inst);
  const auto bnb = exact::branch_and_bound(inst);
  ASSERT_TRUE(bnb.proven_optimal);
  const auto lp = bounds::solve_lp_relaxation(inst);
  ASSERT_TRUE(lp.optimal());
  const double dantzig = bounds::min_constraint_bound(inst);

  EXPECT_LE(greedy, bf.optimum + 1e-9);
  EXPECT_DOUBLE_EQ(bnb.objective, bf.optimum);
  EXPECT_GE(lp.objective, bf.optimum - 1e-7);
  EXPECT_GE(dantzig, lp.objective - 1e-6);
}

TEST_P(OracleChain, DpJoinsTheChainOnSingleConstraint) {
  const auto inst = mkp::generate_uncorrelated(16, 1, GetParam(), 50.0);
  const auto bf = exact::brute_force(inst);
  const auto dp = exact::dp_single_knapsack(inst);
  const auto bnb = exact::branch_and_bound(inst);
  ASSERT_TRUE(bnb.proven_optimal);
  EXPECT_DOUBLE_EQ(dp.optimum, bf.optimum);
  EXPECT_DOUBLE_EQ(bnb.objective, bf.optimum);
}

TEST_P(OracleChain, TabuSearchNeverExceedsTheOptimum) {
  const auto inst =
      mkp::generate_fp({.num_items = 14, .num_constraints = 5}, GetParam());
  const auto bf = exact::brute_force(inst);
  Rng rng(GetParam());
  tabu::TsParams params;
  params.max_moves = 800;
  params.strategy.nb_local = 15;
  const auto ts = tabu::tabu_search_from_scratch(inst, params, rng);
  EXPECT_LE(ts.best_value, bf.optimum + 1e-9);
  // With this budget on 14 items the optimum is all but guaranteed:
  EXPECT_GE(ts.best_value, bf.optimum * 0.95);
}

TEST_P(OracleChain, TightnessSweepKeepsChainValid) {
  for (double tightness : {0.25, 0.5, 0.75}) {
    const auto inst =
        mkp::generate_uncorrelated(14, 3, GetParam() * 31 + 1, 100.0, tightness);
    const auto bf = exact::brute_force(inst);
    const auto lp = bounds::solve_lp_relaxation(inst);
    ASSERT_TRUE(lp.optimal());
    EXPECT_GE(lp.objective, bf.optimum - 1e-7) << "tightness " << tightness;
    const double greedy = bounds::greedy_construct(inst).value();
    EXPECT_LE(greedy, bf.optimum + 1e-9) << "tightness " << tightness;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleChain,
                         ::testing::Values(1, 3, 7, 13, 29, 53, 97, 151));

}  // namespace
}  // namespace pts
