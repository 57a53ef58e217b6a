#include "parallel/runner.hpp"


#include <algorithm>
#include <gtest/gtest.h>

#include "mkp/generator.hpp"
#include "obs/anytime.hpp"

namespace pts::parallel {
namespace {

ParallelConfig quick_config(CooperationMode mode) {
  ParallelConfig config;
  config.mode = mode;
  config.num_slaves = 3;
  config.search_iterations = 3;
  config.work_per_slave_round = 400;
  config.base_params.strategy.nb_local = 10;
  config.seed = 5;
  return config;
}

class AllModes : public ::testing::TestWithParam<CooperationMode> {};

TEST_P(AllModes, ProducesFeasibleBest) {
  const auto inst = mkp::generate_gk({.num_items = 50, .num_constraints = 5}, 1);
  const auto result = run_parallel_tabu_search(inst, quick_config(GetParam()));
  EXPECT_EQ(result.mode, GetParam());
  EXPECT_TRUE(result.best.is_feasible());
  EXPECT_TRUE(result.best.check_consistency());
  EXPECT_DOUBLE_EQ(result.best.value(), result.best_value);
  EXPECT_GT(result.total_moves, 0U);
}

TEST_P(AllModes, TargetValueStops) {
  const auto inst = mkp::generate_gk({.num_items = 50, .num_constraints = 5}, 2);
  auto config = quick_config(GetParam());
  config.target_value = 1.0;
  config.search_iterations = 50;
  const auto result = run_parallel_tabu_search(inst, config);
  EXPECT_TRUE(result.reached_target);
}

INSTANTIATE_TEST_SUITE_P(Modes, AllModes,
                         ::testing::Values(CooperationMode::kSequential,
                                           CooperationMode::kIndependent,
                                           CooperationMode::kCooperativePool,
                                           CooperationMode::kCooperativeAdaptive),
                         [](const ::testing::TestParamInfo<CooperationMode>& mode) {
                           return to_string(mode.param);
                         });

TEST(Runner, SequentialConsumesWholeEnsembleBudget) {
  const auto inst = mkp::generate_gk({.num_items = 50, .num_constraints = 5}, 3);
  const auto config = quick_config(CooperationMode::kSequential);
  const auto result = run_parallel_tabu_search(inst, config);
  // total work = 3 slaves * 3 rounds * 400 units; the SEQ run gets it all,
  // converted to moves by its (random) strategy's nb_drop.
  const auto total_work = 3U * 3U * 400U;
  EXPECT_GE(result.total_moves, total_work / 8);  // nb_drop <= 8 by default bounds
  EXPECT_LE(result.total_moves, total_work);
  EXPECT_EQ(result.master.rounds_completed, 0U);  // no master ran
}

TEST(Runner, MasterModesFillTheTimeline) {
  const auto inst = mkp::generate_gk({.num_items = 50, .num_constraints = 5}, 4);
  const auto result = run_parallel_tabu_search(
      inst, quick_config(CooperationMode::kCooperativeAdaptive));
  EXPECT_EQ(result.master.rounds_completed, 3U);
  EXPECT_EQ(result.master.timeline.size(), 9U);
  EXPECT_DOUBLE_EQ(result.master.best_value, result.best_value);
}

TEST(Runner, DeterministicPerSeedAllModes) {
  const auto inst = mkp::generate_gk({.num_items = 40, .num_constraints = 5}, 5);
  for (auto mode : {CooperationMode::kSequential, CooperationMode::kIndependent,
                    CooperationMode::kCooperativePool,
                    CooperationMode::kCooperativeAdaptive}) {
    const auto a = run_parallel_tabu_search(inst, quick_config(mode));
    const auto b = run_parallel_tabu_search(inst, quick_config(mode));
    EXPECT_DOUBLE_EQ(a.best_value, b.best_value) << to_string(mode);
    EXPECT_EQ(a.best, b.best) << to_string(mode);
  }
}

TEST(Runner, ModeNamesMatchThePaper) {
  EXPECT_EQ(to_string(CooperationMode::kSequential), "SEQ");
  EXPECT_EQ(to_string(CooperationMode::kIndependent), "ITS");
  EXPECT_EQ(to_string(CooperationMode::kCooperativePool), "CTS1");
  EXPECT_EQ(to_string(CooperationMode::kCooperativeAdaptive), "CTS2");
}

TEST(Runner, ModeNamesRoundTripThroughFromString) {
  for (auto mode :
       {CooperationMode::kSequential, CooperationMode::kIndependent,
        CooperationMode::kCooperativePool, CooperationMode::kCooperativeAdaptive}) {
    const auto parsed = cooperation_mode_from_string(to_string(mode));
    ASSERT_TRUE(parsed.has_value()) << to_string(mode);
    EXPECT_EQ(*parsed, mode);
  }
  // Case-insensitive, so CLI flags accept what users actually type.
  EXPECT_EQ(*cooperation_mode_from_string("cts2"),
            CooperationMode::kCooperativeAdaptive);
  const auto bad = cooperation_mode_from_string("PVM");
  ASSERT_FALSE(bad.has_value());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  // The error names the accepted spellings — flag parsers print it as-is.
  EXPECT_NE(bad.status().message().find("CTS2"), std::string::npos);
}

class CountingTrace : public MasterTrace {
 public:
  void on_round_start(std::size_t) override { ++rounds; }
  std::size_t rounds = 0;
};

TEST(Runner, ObserverFieldSeesEveryRound) {
  const auto inst = mkp::generate_gk({.num_items = 30, .num_constraints = 4}, 8);
  CountingTrace trace;
  auto config = quick_config(CooperationMode::kCooperativeAdaptive);
  config.observer = &trace;
  const auto result = run_parallel_tabu_search(inst, config);
  EXPECT_EQ(trace.rounds, result.master.rounds_completed);
  EXPECT_GT(trace.rounds, 0U);
}

TEST(Runner, SingleSlaveDegenerateCase) {
  const auto inst = mkp::generate_gk({.num_items = 30, .num_constraints = 4}, 6);
  auto config = quick_config(CooperationMode::kCooperativeAdaptive);
  config.num_slaves = 1;
  const auto result = run_parallel_tabu_search(inst, config);
  EXPECT_TRUE(result.best.is_feasible());
  EXPECT_EQ(result.master.timeline.size(), 3U);
}

TEST(Runner, CoreReductionLiftsToFullSpace) {
  // With core reduction on, the search runs over the residual instance but
  // everything the caller sees — best, best_value, feasibility — must be in
  // full space, with every LP-fixed variable at its fixed value.
  const auto inst = mkp::generate_uncorrelated(80, 3, 3, 1000.0, 0.5);
  auto config = quick_config(CooperationMode::kCooperativeAdaptive);
  config.core.enabled = true;
  config.core.min_fixed_fraction = 0.0;
  const auto result = run_parallel_tabu_search(inst, config);
  ASSERT_TRUE(result.status.ok()) << result.status.to_string();
  ASSERT_TRUE(result.core_engaged)
      << "fixing did not engage; pick a different instance";
  EXPECT_GT(result.core_fixed_zero + result.core_fixed_one, 0U);

  EXPECT_TRUE(result.best.is_feasible());
  EXPECT_DOUBLE_EQ(result.best_value, result.best.value());
  EXPECT_DOUBLE_EQ(result.master.best_value, result.best_value);

  // The reduction is deterministic, so rederiving it recovers the fixing
  // this run used; the lifted best must honour every fixed variable.
  bounds::CoreOptions options;
  options.enabled = true;
  options.min_fixed_fraction = 0.0;
  const auto core = bounds::build_core_problem(inst, options);
  ASSERT_TRUE(core.use_core);
  EXPECT_EQ(core.fixing.fixed_to_zero, result.core_fixed_zero);
  EXPECT_EQ(core.fixing.fixed_to_one, result.core_fixed_one);
  EXPECT_DOUBLE_EQ(core.banked_profit(), result.core_banked_profit);
  for (std::size_t j = 0; j < inst.num_items(); ++j) {
    if (core.fixing.status[j] == bounds::FixedValue::kOne) {
      EXPECT_TRUE(result.best.contains(j)) << "item " << j;
    } else if (core.fixing.status[j] == bounds::FixedValue::kZero) {
      EXPECT_FALSE(result.best.contains(j)) << "item " << j;
    }
  }
}

TEST(Runner, CoreReductionMatchesTelemetryOffsets) {
  // Timeline values and anytime samples are reported in FULL-space profit:
  // the banked constant is folded back in, so a plot of a core-reduced run
  // is directly comparable with an unreduced one.
  const auto inst = mkp::generate_uncorrelated(80, 3, 3, 1000.0, 0.5);
  auto config = quick_config(CooperationMode::kCooperativeAdaptive);
  config.core.enabled = true;
  config.core.min_fixed_fraction = 0.0;
  const auto result = run_parallel_tabu_search(inst, config);
  ASSERT_TRUE(result.status.ok());
  ASSERT_TRUE(result.core_engaged);
  ASSERT_FALSE(result.master.timeline.empty());
  // The best slave round must land exactly on the global best; without the
  // banked offset it would be short by core_banked_profit (> 0 here).
  ASSERT_GT(result.core_banked_profit, 0.0);
  double timeline_best = 0.0;
  for (const auto& log : result.master.timeline) {
    timeline_best = std::max(timeline_best, log.final_value);
  }
  EXPECT_DOUBLE_EQ(timeline_best, result.best_value);
  for (const auto& sample : result.master.anytime) {
    EXPECT_GE(sample.value, result.core_banked_profit);
  }
}

TEST(Runner, CoreReductionDisengagedIsAPlainRun) {
  // An impossible engagement threshold must leave the run byte-identical to
  // one with the core layer off entirely.
  const auto inst = mkp::generate_gk({.num_items = 40, .num_constraints = 4}, 9);
  auto plain = quick_config(CooperationMode::kCooperativePool);
  const auto reference = run_parallel_tabu_search(inst, plain);

  auto gated = plain;
  gated.core.enabled = true;
  gated.core.min_fixed_fraction = 1.1;  // can never be met
  const auto result = run_parallel_tabu_search(inst, gated);
  ASSERT_TRUE(result.status.ok());
  EXPECT_FALSE(result.core_engaged);
  EXPECT_DOUBLE_EQ(result.best_value, reference.best_value);
  EXPECT_EQ(result.best, reference.best);
  EXPECT_EQ(result.total_moves, reference.total_moves);
}

TEST(Runner, AdaptiveModeRecordsCooperationEvents) {
  // With a target-free longer run, CTS2 should exercise at least one of the
  // cooperation mechanisms (injection / restart / retune) — all three
  // counters zero would mean the mode degenerated to ITS.
  const auto inst = mkp::generate_gk({.num_items = 60, .num_constraints = 6}, 7);
  auto config = quick_config(CooperationMode::kCooperativeAdaptive);
  config.search_iterations = 8;
  const auto result = run_parallel_tabu_search(inst, config);
  const auto events = result.master.strategy_retunes +
                      result.master.global_best_injections +
                      result.master.random_restarts;
  EXPECT_GT(events, 0U);
}

}  // namespace
}  // namespace pts::parallel
