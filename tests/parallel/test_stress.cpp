// Concurrency stress: many slaves, many rounds, rapid small assignments —
// shaking out protocol races, lost messages and shutdown hangs that the
// functional tests' gentle schedules would never expose.
#include <gtest/gtest.h>

#include <thread>
#include <variant>

#include "mkp/generator.hpp"
#include "parallel/async_swarm.hpp"
#include "parallel/runner.hpp"
#include "parallel/slave.hpp"

namespace pts::parallel {
namespace {

TEST(Stress, ManySlavesManyShortRounds) {
  const auto inst = mkp::generate_gk({.num_items = 30, .num_constraints = 4}, 1);
  ParallelConfig config;
  config.num_slaves = 12;
  config.search_iterations = 20;
  config.work_per_slave_round = 50;  // trivially small: message-bound run
  config.base_params.strategy.nb_local = 5;
  config.seed = 2;
  const auto result = run_parallel_tabu_search(inst, config);
  EXPECT_EQ(result.master.rounds_completed, 20U);
  EXPECT_EQ(result.master.timeline.size(), 240U);
  EXPECT_TRUE(result.best.is_feasible());
}

TEST(Stress, RepeatedBackToBackRuns) {
  // Thread creation/teardown across runs must not leak or deadlock.
  const auto inst = mkp::generate_gk({.num_items = 25, .num_constraints = 3}, 2);
  for (int round = 0; round < 10; ++round) {
    ParallelConfig config;
    config.num_slaves = 4;
    config.search_iterations = 2;
    config.work_per_slave_round = 100;
    config.base_params.strategy.nb_local = 5;
    config.seed = static_cast<std::uint64_t>(round);
    const auto result = run_parallel_tabu_search(inst, config);
    EXPECT_TRUE(result.best.is_feasible());
  }
}

TEST(Stress, DeterminismSurvivesContention) {
  // 12 threads on 1 core maximizes interleaving variety; results must still
  // be bit-identical across runs.
  const auto inst = mkp::generate_gk({.num_items = 40, .num_constraints = 5}, 3);
  ParallelConfig config;
  config.num_slaves = 12;
  config.search_iterations = 5;
  config.work_per_slave_round = 200;
  config.base_params.strategy.nb_local = 5;
  config.seed = 7;
  const auto a = run_parallel_tabu_search(inst, config);
  const auto b = run_parallel_tabu_search(inst, config);
  EXPECT_EQ(a.best, b.best);
  ASSERT_EQ(a.master.timeline.size(), b.master.timeline.size());
  for (std::size_t k = 0; k < a.master.timeline.size(); ++k) {
    EXPECT_DOUBLE_EQ(a.master.timeline[k].final_value,
                     b.master.timeline[k].final_value);
  }
}

TEST(Stress, AsyncSwarmHighChurn) {
  const auto inst = mkp::generate_gk({.num_items = 30, .num_constraints = 4}, 4);
  AsyncConfig config;
  config.num_peers = 10;
  config.bursts_per_peer = 15;
  config.work_per_burst = 60;
  config.base_params.strategy.nb_local = 5;
  config.seed = 5;
  const auto result = run_async_swarm(inst, config);
  EXPECT_TRUE(result.best.is_feasible());
  EXPECT_GT(result.broadcasts, 0U);
}

TEST(Stress, SlaveSurvivesBurstOfQueuedAssignments) {
  // Queue everything up front, then drain: exercises mailbox buffering.
  const auto inst = mkp::generate_gk({.num_items = 20, .num_constraints = 3}, 5);
  Mailbox<Assignment> inbox;
  Mailbox<FromSlave> outbox;
  Rng rng(6);
  constexpr std::size_t kAssignments = 30;
  for (std::size_t k = 0; k < kAssignments; ++k) {
    Assignment a{k, mkp::Solution(inst), tabu::TsParams{}};
    a.params.max_moves = 40;
    a.params.strategy.nb_local = 5;
    inbox.send(std::move(a));
  }
  inbox.close();  // the queued assignments still drain before the loop ends
  std::jthread slave([&] { slave_loop(inst, 0, 9, SlaveChannels{&inbox, &outbox}); });
  slave.join();
  EXPECT_EQ(outbox.size(), kAssignments);
  std::size_t next_round = 0;
  while (auto message = outbox.try_receive()) {
    const auto* report = std::get_if<Report>(&*message);
    ASSERT_TRUE(report != nullptr);
    EXPECT_EQ(report->round, next_round++);  // in-order processing
  }
}

TEST(Stress, ZeroWorkRoundsStillTerminate) {
  const auto inst = mkp::generate_gk({.num_items = 20, .num_constraints = 3}, 6);
  ParallelConfig config;
  config.num_slaves = 3;
  config.search_iterations = 3;
  config.work_per_slave_round = 1;  // max_moves clamps to >= 1
  config.base_params.strategy.nb_local = 2;
  const auto result = run_parallel_tabu_search(inst, config);
  EXPECT_EQ(result.master.rounds_completed, 3U);
}

}  // namespace
}  // namespace pts::parallel
