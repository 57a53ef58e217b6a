// Last-mile end-to-end edges: behaviors at the seams between modules.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "bounds/greedy.hpp"
#include "mkp/catalog.hpp"
#include "mkp/generator.hpp"
#include "mkp/parser.hpp"
#include "mkp/solution_io.hpp"
#include "parallel/presets.hpp"
#include "exact/brute_force.hpp"
#include "tabu/engine.hpp"

namespace pts {
namespace {

/// The "quick" preset scaled to `inst`, stopped by a wall budget rather
/// than by its round count.
parallel::ParallelConfig quick_config(const mkp::Instance& inst, double seconds) {
  auto config = parallel::preset_quick();
  parallel::scale_budget_to_instance(config, inst);
  config.search_iterations = std::max<std::size_t>(config.search_iterations, 1000);
  config.time_limit_seconds = seconds;
  config.relink_elites = true;
  return config;
}

TEST(EndToEndEdges, TargetAlreadyMetByInitialSolution) {
  // The engine's starting greedy fill can itself satisfy the target; the
  // run must report reached_target without burning the budget.
  const auto inst = mkp::generate_gk({.num_items = 50, .num_constraints = 5}, 1);
  const double greedy = bounds::greedy_construct(inst).value();
  Rng rng(1);
  tabu::TsParams params;
  params.max_moves = 100000;
  params.target_value = greedy * 0.5;  // far below any start
  const auto result = tabu::tabu_search_from_scratch(inst, params, rng);
  EXPECT_TRUE(result.reached_target);
  EXPECT_LE(result.moves, 1U);
}

TEST(EndToEndEdges, ParsedInstanceSolvesAndPersists) {
  // Full loop: generate -> write orlib -> read -> solve -> write solution,
  // and the saved text names exactly the solution's items and value.
  const auto original = mkp::generate_gk({.num_items = 30, .num_constraints = 4}, 2);
  std::stringstream file;
  mkp::write_orlib_single(file, original);
  const auto reread = mkp::read_orlib_single(file, "rt");

  const auto result =
      parallel::run_parallel_tabu_search(reread, quick_config(reread, 0.1));
  EXPECT_TRUE(result.best.is_feasible());
  EXPECT_DOUBLE_EQ(result.best.value(), result.best_value);

  std::stringstream solution_file;
  mkp::write_solution(solution_file, result.best);
  const auto items = result.best.selected_items();
  std::ostringstream selected;
  selected << "selected " << items.size();
  for (const auto j : items) selected << ' ' << j;
  std::ostringstream value;
  value << "value " << result.best.value() << '\n';
  EXPECT_NE(solution_file.str().find(selected.str() + '\n'), std::string::npos);
  EXPECT_NE(solution_file.str().find(value.str()), std::string::npos);
}

TEST(EndToEndEdges, CatalogDominantTrapDefeatsDensityGreedy) {
  // The new catalog entry's raison d'etre: greedy strands capacity, the
  // tabu engine recovers the optimum by dropping the "best" item.
  const auto entry = mkp::catalog_entry("cat-dominant-trap");
  const auto greedy =
      bounds::greedy_construct(entry.instance, bounds::GreedyOrder::kDensity);
  EXPECT_LT(greedy.value(), entry.optimum);
  Rng rng(3);
  tabu::TsParams params;
  params.max_moves = 3000;
  params.strategy.tabu_tenure = 3;
  const auto ts = tabu::tabu_search_from_scratch(entry.instance, params, rng);
  EXPECT_DOUBLE_EQ(ts.best_value, entry.optimum);
}

TEST(EndToEndEdges, NestedCapacitiesOnlyTightOneBinds) {
  const auto entry = mkp::catalog_entry("cat-nested");
  Rng rng(4);
  tabu::TsParams params;
  params.max_moves = 2000;
  const auto ts = tabu::tabu_search_from_scratch(entry.instance, params, rng);
  EXPECT_DOUBLE_EQ(ts.best_value, entry.optimum);
  // The binding constraint is saturated, the duplicate is half-used.
  EXPECT_DOUBLE_EQ(ts.best.load(1), entry.instance.capacity(1));
  EXPECT_DOUBLE_EQ(ts.best.load(0), entry.instance.capacity(1));
}

TEST(EndToEndEdges, SolveOnCatalogReachesOptimaFast) {
  for (const auto& entry : mkp::catalog()) {
    auto config = quick_config(entry.instance, 2.0);
    config.target_value = entry.optimum;
    const auto result = parallel::run_parallel_tabu_search(entry.instance, config);
    EXPECT_DOUBLE_EQ(result.best_value, entry.optimum) << entry.instance.name();
    EXPECT_TRUE(result.reached_target) << entry.instance.name();
  }
}

TEST(EndToEndEdges, FractionalDataEndToEnd) {
  // Real-valued profits/weights (the paper allows positive reals): parse,
  // solve, verify against brute force.
  std::stringstream file("4 2 0\n1.5 2.25 3.125 0.875\n"
                         "0.5 1.5 2.5 0.25\n1.0 1.0 1.0 1.0\n3.0 2.5\n");
  const auto inst = mkp::read_orlib_single(file, "frac");
  const auto oracle = exact::brute_force(inst);
  Rng rng(5);
  tabu::TsParams params;
  params.max_moves = 2000;
  const auto ts = tabu::tabu_search_from_scratch(inst, params, rng);
  EXPECT_DOUBLE_EQ(ts.best_value, oracle.optimum);
}

}  // namespace
}  // namespace pts
