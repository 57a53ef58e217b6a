#include "parallel/master.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "mkp/generator.hpp"
#include "parallel/slave.hpp"

namespace pts::parallel {
namespace {

struct Harness {
  explicit Harness(const mkp::Instance& instance, std::size_t num_slaves)
      : inst(instance), links(num_slaves) {
    for (std::size_t i = 0; i < num_slaves; ++i) {
      slaves.emplace_back(
          [this, i, ch = links.channels(i)] { slave_loop(inst, i, 13, ch); });
    }
  }

  ~Harness() {
    // Wake any slave still blocked on its inbox so the jthread joins cannot
    // hang (e.g. when a death test aborts before run_master sends Stop).
    links.close_inboxes();
  }

  const mkp::Instance& inst;
  MailboxMasterTransport links;
  std::vector<std::jthread> slaves;
};

MasterConfig quick_config(std::size_t slaves, std::size_t rounds) {
  MasterConfig config;
  config.num_slaves = slaves;
  config.search_iterations = rounds;
  config.work_per_slave_round = 300;
  config.base_params.strategy.nb_local = 10;
  return config;
}

TEST(Master, CompletesAllRoundsWithFullTimeline) {
  const auto inst = mkp::generate_gk({.num_items = 40, .num_constraints = 5}, 1);
  Harness harness(inst, 3);
  const auto result = run_master(inst, harness.links, quick_config(3, 4));
  EXPECT_EQ(result.rounds_completed, 4U);
  EXPECT_EQ(result.timeline.size(), 12U);
  EXPECT_TRUE(result.best.is_feasible());
  EXPECT_GT(result.best_value, 0.0);
  EXPECT_GT(result.total_moves, 0U);
}

TEST(Master, BestDominatesEveryReportedValue) {
  const auto inst = mkp::generate_gk({.num_items = 40, .num_constraints = 5}, 2);
  Harness harness(inst, 2);
  const auto result = run_master(inst, harness.links, quick_config(2, 3));
  for (const auto& log : result.timeline) {
    EXPECT_GE(result.best_value, log.final_value);
  }
}

TEST(Master, WorkBalancingInvertsNbDrop) {
  // Every slave's assigned moves * nb_drop must equal the configured work
  // budget (up to integer division).
  const auto inst = mkp::generate_gk({.num_items = 40, .num_constraints = 5}, 3);
  Harness harness(inst, 4);
  auto config = quick_config(4, 2);
  config.work_per_slave_round = 1200;
  const auto result = run_master(inst, harness.links, config);
  for (const auto& log : result.timeline) {
    const auto expected = 1200U / log.strategy.nb_drop;
    EXPECT_EQ(log.moves, expected)
        << "slave " << log.slave << " round " << log.round;
  }
}

TEST(Master, IndependentModeNeverRetunesNorInjects) {
  const auto inst = mkp::generate_gk({.num_items = 40, .num_constraints = 5}, 4);
  Harness harness(inst, 3);
  auto config = quick_config(3, 4);
  config.share_solutions = false;
  config.adapt_strategies = false;
  const auto result = run_master(inst, harness.links, config);
  EXPECT_EQ(result.strategy_retunes, 0U);
  EXPECT_EQ(result.global_best_injections, 0U);
  EXPECT_EQ(result.random_restarts, 0U);
  for (const auto& log : result.timeline) {
    EXPECT_EQ(log.retune, RetuneKind::kKept);
  }
}

TEST(Master, PoolModeSharesButKeepsStrategies) {
  const auto inst = mkp::generate_gk({.num_items = 40, .num_constraints = 5}, 5);
  Harness harness(inst, 3);
  auto config = quick_config(3, 5);
  config.adapt_strategies = false;
  const auto result = run_master(inst, harness.links, config);
  EXPECT_EQ(result.strategy_retunes, 0U);
  // Strategies must stay at their initial draw across the run.
  for (std::size_t i = 0; i < 3; ++i) {
    tabu::Strategy first;
    bool seen = false;
    for (const auto& log : result.timeline) {
      if (log.slave != i) continue;
      if (!seen) {
        first = log.strategy;
        seen = true;
      } else {
        EXPECT_EQ(log.strategy, first);
      }
    }
  }
}

TEST(Master, TargetValueShortCircuitsRounds) {
  const auto inst = mkp::generate_gk({.num_items = 40, .num_constraints = 5}, 6);
  Harness harness(inst, 2);
  auto config = quick_config(2, 50);
  config.target_value = 1.0;
  const auto result = run_master(inst, harness.links, config);
  EXPECT_TRUE(result.reached_target);
  EXPECT_LT(result.rounds_completed, 50U);
}

TEST(Master, DeterministicDecisionsGivenSeed) {
  const auto inst = mkp::generate_gk({.num_items = 40, .num_constraints = 5}, 7);
  auto run_once = [&] {
    Harness harness(inst, 3);
    return run_master(inst, harness.links, quick_config(3, 3));
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_DOUBLE_EQ(a.best_value, b.best_value);
  ASSERT_EQ(a.timeline.size(), b.timeline.size());
  for (std::size_t k = 0; k < a.timeline.size(); ++k) {
    EXPECT_EQ(a.timeline[k].strategy, b.timeline[k].strategy);
    EXPECT_DOUBLE_EQ(a.timeline[k].final_value, b.timeline[k].final_value);
    EXPECT_EQ(a.timeline[k].init_kind, b.timeline[k].init_kind);
  }
}

// Figure-2 structural test: read data -> per round (SGP/ISP -> scatter ->
// gather), in that order, every round.
class Fig2Trace : public MasterTrace {
 public:
  void on_round_start(std::size_t round) override {
    events.push_back("round:" + std::to_string(round));
  }
  void on_assignments_sent(std::size_t round, std::size_t count) override {
    events.push_back("scatter:" + std::to_string(round) + ":" +
                     std::to_string(count));
  }
  void on_reports_gathered(std::size_t round, std::size_t count) override {
    events.push_back("gather:" + std::to_string(round) + ":" +
                     std::to_string(count));
  }
  std::vector<std::string> events;
};

TEST(MasterFigure2, ScatterGatherOrderingPerRound) {
  const auto inst = mkp::generate_gk({.num_items = 30, .num_constraints = 4}, 8);
  Harness harness(inst, 2);
  Fig2Trace trace;
  (void)run_master(inst, harness.links, quick_config(2, 3), &trace);
  const std::vector<std::string> expected{
      "round:0", "scatter:0:2", "gather:0:2",
      "round:1", "scatter:1:2", "gather:1:2",
      "round:2", "scatter:2:2", "gather:2:2",
  };
  EXPECT_EQ(trace.events, expected);
}

TEST(MasterDeath, ChannelCountMustMatch) {
  const auto inst = mkp::generate_gk({.num_items = 20, .num_constraints = 3}, 9);
  Harness harness(inst, 2);
  auto config = quick_config(3, 1);  // claims 3 slaves, only 2 channels
  EXPECT_DEATH((void)run_master(inst, harness.links, config), "");
}

}  // namespace
}  // namespace pts::parallel
