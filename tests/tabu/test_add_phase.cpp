// MoveKernel::add_phase skips items an earlier sweep of the same phase found
// cannot fit. These tests hold it to a loop of fresh select_add calls: the
// same picks, the same MoveStats and the same rng state afterwards, on
// random mid-search states and with candidate budgets small enough that the
// first sweep stops early.

#include <gtest/gtest.h>

#include "mkp/generator.hpp"
#include "obs/counters.hpp"
#include "tabu/moves.hpp"

namespace pts::tabu {
namespace {

struct PhaseRun {
  MoveOutcome outcome;
  MoveStats stats;
  Rng rng;
  mkp::Solution x;
  std::uint64_t kernel_calls = 0;  ///< fit_and_score calls plus O(1) prunes
};

/// Runs one Add phase from copies of the given state: the masked
/// MoveKernel::add_phase, or the loop it replaces, one fresh select_add
/// per add.
PhaseRun run_phase(const MoveKernel& kernel, const mkp::Solution& start,
                   const TabuList& start_tabu, std::uint64_t iter,
                   const Strategy& strategy, double best_value, const Rng& start_rng,
                   bool masked) {
  PhaseRun run{{}, {}, start_rng, start, 0};
  TabuList tabu = start_tabu;
  const std::size_t tenure = strategy.tabu_tenure;
  obs::Counters counters;
  {
    obs::CounterScope scope(&counters);
    if (masked) {
      kernel.add_phase(run.x, tabu, iter, strategy, tenure, best_value, run.rng,
                       run.stats, run.outcome);
    } else {
      while (auto candidate = kernel.select_add(run.x, tabu, iter, best_value, &run.stats,
                                                &run.rng, strategy.nb_candidates)) {
        run.x.add(*candidate);
        tabu.forbid_drop(*candidate, iter, tenure / 2 + 1);
        run.outcome.flipped.push_back(*candidate);
        ++run.outcome.num_adds;
        ++run.stats.adds;
      }
    }
  }
  run.kernel_calls = counters[obs::Counter::kFitScoreCalls] +
                     counters[obs::Counter::kPruneEarlyOuts];
  return run;
}

void expect_same_phase(const PhaseRun& masked, const PhaseRun& fresh) {
  EXPECT_EQ(masked.outcome.flipped, fresh.outcome.flipped);
  EXPECT_EQ(masked.outcome.num_adds, fresh.outcome.num_adds);
  EXPECT_EQ(masked.stats, fresh.stats);
  EXPECT_EQ(masked.rng.state(), fresh.rng.state());
  EXPECT_EQ(masked.x.bits(), fresh.x.bits());
  EXPECT_LE(masked.kernel_calls, fresh.kernel_calls);
}

class AddPhaseEquivalence : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AddPhaseEquivalence, MatchesFreshSelectAddOnRandomMidSearchStates) {
  const std::size_t nb_candidates = GetParam();
  // n = 250 leaves a partial last mask word; 30 constraints as in GK 30x500.
  const auto inst = mkp::generate_gk({.num_items = 250, .num_constraints = 30}, 41);
  const MoveKernel kernel(inst);
  Strategy strategy;
  strategy.nb_candidates = nb_candidates;
  std::uint64_t masked_calls = 0;
  std::uint64_t fresh_calls = 0;
  std::uint64_t aspiration_hits = 0;
  for (std::uint64_t trial = 0; trial < 40; ++trial) {
    Rng setup(9000 + trial);
    // A mid-search state: a random maximal solution with a few items
    // dropped, a tabu list with a mix of live and expired add-tabu entries,
    // and a best value just above the current one so that some tabu items
    // aspire only after the phase has added a few items.
    mkp::Solution x(inst);
    for (const std::size_t j : random_permutation(inst.num_items(), setup)) {
      if (x.fits(j)) x.add(j);
    }
    const std::size_t drops = 1 + setup.index(6);
    for (std::size_t d = 0; d < drops && x.cardinality() > 0; ++d) {
      const auto selected = x.selected_items();
      x.drop(selected[setup.index(selected.size())]);
    }
    const std::uint64_t iter = 100;
    TabuList tabu(inst.num_items());
    for (std::size_t j = 0; j < inst.num_items(); ++j) {
      if (!x.contains(j) && setup.uniform01() < 0.4) {
        tabu.forbid_add(j, iter - setup.index(20), 1 + setup.index(30));
      }
    }
    const double best_value = x.value() + setup.uniform01() * 3000.0;
    const Rng rng(trial);

    const auto masked =
        run_phase(kernel, x, tabu, iter, strategy, best_value, rng, /*masked=*/true);
    const auto fresh =
        run_phase(kernel, x, tabu, iter, strategy, best_value, rng, /*masked=*/false);
    SCOPED_TRACE(trial);
    expect_same_phase(masked, fresh);
    masked_calls += masked.kernel_calls;
    fresh_calls += fresh.kernel_calls;
    aspiration_hits += masked.stats.aspiration_hits;
  }
  EXPECT_GT(aspiration_hits, 0U);
  EXPECT_LT(masked_calls, fresh_calls);
}

INSTANTIATE_TEST_SUITE_P(Budgets, AddPhaseEquivalence, ::testing::Values(0, 1, 3),
                         [](const ::testing::TestParamInfo<std::size_t>& budget) {
                           return "nb_candidates_" + std::to_string(budget.param);
                         });

TEST(AddPhase, TabuItemAspiresOnceTheValueHasGrown) {
  // 1 constraint, capacity 10. Item 0 (profit 5) outscores item 1 (profit
  // 1); item 1 is add-tabu. With best_value 5.5 item 1 is blocked in the
  // first sweep (0 + 1 <= 5.5) but aspires in the second (5 + 1 > 5.5).
  const mkp::Instance inst("asp", {5, 1}, {1, 1}, {10});
  const MoveKernel kernel(inst);
  const mkp::Solution x(inst);
  TabuList tabu(2);
  tabu.forbid_add(1, 0, 50);
  for (const std::size_t nb_candidates : {0, 1, 3}) {
    SCOPED_TRACE(nb_candidates);
    Strategy strategy;
    strategy.nb_candidates = nb_candidates;
    const Rng rng(3);
    const auto masked = run_phase(kernel, x, tabu, 1, strategy, 5.5, rng, true);
    const auto fresh = run_phase(kernel, x, tabu, 1, strategy, 5.5, rng, false);
    expect_same_phase(masked, fresh);
    EXPECT_EQ(masked.outcome.flipped, (std::vector<std::size_t>{0, 1}));
    EXPECT_EQ(masked.stats.tabu_blocked_adds, 1U);
    EXPECT_EQ(masked.stats.aspiration_hits, 1U);
  }
}

}  // namespace
}  // namespace pts::tabu
