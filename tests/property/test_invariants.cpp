// Cross-module invariants swept over random instances: the properties that
// must hold for every instance/seed combination, not just hand-picked cases.
#include <gtest/gtest.h>

#include <sstream>

#include "bounds/greedy.hpp"
#include "bounds/simplex.hpp"
#include "bounds/surrogate.hpp"
#include "mkp/generator.hpp"
#include "mkp/parser.hpp"
#include "tabu/engine.hpp"
#include "util/rng.hpp"

namespace pts {
namespace {

struct Workload {
  std::size_t n;
  std::size_t m;
  std::uint64_t seed;
};

class InstanceSweep : public ::testing::TestWithParam<Workload> {
 protected:
  mkp::Instance make() const {
    const auto& p = GetParam();
    return mkp::generate_gk({.num_items = p.n, .num_constraints = p.m}, p.seed);
  }
};

TEST_P(InstanceSweep, GeneratedInstanceIsWellFormed) {
  const auto inst = make();
  EXPECT_TRUE(inst.validate().empty());
  EXPECT_TRUE(inst.every_item_fits());
}

TEST_P(InstanceSweep, ParserRoundTripPreservesEverything) {
  const auto inst = make();
  std::stringstream buffer;
  mkp::write_orlib_single(buffer, inst);
  const auto reread = mkp::read_orlib_single(buffer, inst.name());
  ASSERT_EQ(reread.num_items(), inst.num_items());
  ASSERT_EQ(reread.num_constraints(), inst.num_constraints());
  for (std::size_t j = 0; j < inst.num_items(); ++j) {
    EXPECT_DOUBLE_EQ(reread.profit(j), inst.profit(j));
  }
}

TEST_P(InstanceSweep, GreedySandwichedByLp) {
  const auto inst = make();
  const auto greedy = bounds::greedy_construct(inst);
  const auto lp = bounds::solve_lp_relaxation(inst);
  ASSERT_TRUE(lp.optimal());
  EXPECT_LE(greedy.value(), lp.objective + 1e-6);
  EXPECT_GT(greedy.value(), 0.0);
}

TEST_P(InstanceSweep, SurrogateDominatesLp) {
  const auto inst = make();
  const auto lp = bounds::solve_lp_relaxation(inst);
  ASSERT_TRUE(lp.optimal());
  bounds::SurrogateOptions options;
  options.refinement_rounds = 3;
  const auto surrogate = bounds::solve_surrogate(inst, options);
  EXPECT_GE(surrogate.bound, lp.objective - 1e-6);
}

TEST_P(InstanceSweep, EngineInvariants) {
  const auto inst = make();
  Rng rng(GetParam().seed ^ 0x5555ULL);
  tabu::TsParams params;
  params.max_moves = 600;
  params.strategy.nb_local = 15;
  const auto result = tabu::tabu_search_from_scratch(inst, params, rng);

  // The incumbent is feasible, internally consistent, LP-bounded.
  EXPECT_TRUE(result.best.is_feasible());
  EXPECT_TRUE(result.best.check_consistency());
  const auto lp = bounds::solve_lp_relaxation(inst);
  ASSERT_TRUE(lp.optimal());
  EXPECT_LE(result.best_value, lp.objective + 1e-6);

  // The elite pool is sorted, distinct, feasible, headed by the incumbent.
  for (std::size_t k = 0; k < result.elite.size(); ++k) {
    EXPECT_TRUE(result.elite[k].is_feasible());
    if (k > 0) {
      EXPECT_GE(result.elite[k - 1].value(), result.elite[k].value());
    }
  }
  ASSERT_FALSE(result.elite.empty());
  EXPECT_DOUBLE_EQ(result.elite.front().value(), result.best_value);

  // Budget respected exactly (run_to_budget).
  EXPECT_EQ(result.moves, 600U);
}

TEST_P(InstanceSweep, EngineMonotoneUnderExtraBudget) {
  // More moves can never yield a worse incumbent for the same stream: the
  // incumbent is a running maximum over a deterministic trajectory.
  const auto inst = make();
  tabu::TsParams small_params;
  small_params.max_moves = 200;
  small_params.strategy.nb_local = 15;
  tabu::TsParams large_params = small_params;
  large_params.max_moves = 800;
  Rng rng_small(3), rng_large(3);
  const auto small_run = tabu::tabu_search_from_scratch(inst, small_params, rng_small);
  const auto large_run = tabu::tabu_search_from_scratch(inst, large_params, rng_large);
  EXPECT_GE(large_run.best_value, small_run.best_value);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, InstanceSweep,
    ::testing::Values(Workload{10, 2, 1}, Workload{20, 3, 2}, Workload{30, 5, 3},
                      Workload{50, 5, 4}, Workload{50, 10, 5}, Workload{80, 8, 6},
                      Workload{100, 10, 7}, Workload{120, 15, 8}),
    [](const ::testing::TestParamInfo<Workload>& workload) {
      return "n" + std::to_string(workload.param.n) + "m" +
             std::to_string(workload.param.m) + "s" + std::to_string(workload.param.seed);
    });

}  // namespace
}  // namespace pts
