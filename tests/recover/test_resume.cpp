// Resume semantics (DESIGN.md §9): a run killed at a round boundary and
// resumed from its checkpoint must replay the exact draw sequence of an
// uninterrupted run — bit-identical final best — because the checkpoint
// captures the master RNG raw state and every slave record, and slave-side
// randomness derives from (seed, slave, round) alone.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "mkp/generator.hpp"
#include "obs/anytime.hpp"
#include "parallel/runner.hpp"
#include "parallel/snapshot.hpp"

namespace pts::parallel {
namespace {

mkp::Instance test_instance() {
  return mkp::generate_gk({.num_items = 60, .num_constraints = 5}, 23);
}

ParallelConfig cts2_config(std::size_t rounds) {
  ParallelConfig config;
  config.mode = CooperationMode::kCooperativeAdaptive;
  config.num_slaves = 3;
  config.search_iterations = rounds;
  config.work_per_slave_round = 1'200;
  config.seed = 41;
  return config;
}

std::string temp_path(const char* name) { return ::testing::TempDir() + name; }

TEST(Resume, ResumedRunMatchesUninterruptedBitForBit) {
  const auto inst = test_instance();

  // Reference: 6 rounds straight through, no checkpointing at all.
  const auto uninterrupted = run_parallel_tabu_search(inst, cts2_config(6));
  ASSERT_TRUE(uninterrupted.status.ok());

  // "Crashed" run: stop after 3 rounds, leaving a checkpoint behind (the
  // final-checkpoint write covers the kill-at-a-round-boundary case).
  const auto path = temp_path("resume_equiv.ckpt");
  auto first_half = cts2_config(3);
  first_half.checkpoint_path = path;
  const auto partial = run_parallel_tabu_search(inst, first_half);
  ASSERT_TRUE(partial.status.ok());

  auto checkpoint = snapshot::load_checkpoint(path, inst);
  ASSERT_TRUE(checkpoint) << checkpoint.status().to_string();
  EXPECT_EQ(checkpoint->next_round, 3U);

  // Resumed run: same config asking for 6 rounds total; executes 3..5.
  auto second_half = cts2_config(6);
  second_half.resume = &*checkpoint;
  const auto resumed = run_parallel_tabu_search(inst, second_half);
  ASSERT_TRUE(resumed.status.ok());

  EXPECT_EQ(resumed.master.resumed_from_round, 3U);
  EXPECT_EQ(resumed.master.rounds_completed, 6U);
  EXPECT_DOUBLE_EQ(resumed.best_value, uninterrupted.best_value);
  EXPECT_EQ(resumed.best, uninterrupted.best);
  EXPECT_EQ(resumed.total_moves, uninterrupted.total_moves);
  std::remove(path.c_str());
}

TEST(Resume, IndependentModeAlsoResumesBitForBit) {
  // ITS shares nothing between slaves, so any divergence here isolates a
  // bug in the per-slave record capture rather than in pool reconstruction.
  const auto inst = test_instance();
  auto reference_config = cts2_config(5);
  reference_config.mode = CooperationMode::kIndependent;
  const auto reference = run_parallel_tabu_search(inst, reference_config);

  const auto path = temp_path("resume_its.ckpt");
  auto first = reference_config;
  first.search_iterations = 2;
  first.checkpoint_path = path;
  ASSERT_TRUE(run_parallel_tabu_search(inst, first).status.ok());

  auto checkpoint = snapshot::load_checkpoint(path, inst);
  ASSERT_TRUE(checkpoint);
  auto rest = reference_config;
  rest.resume = &*checkpoint;
  const auto resumed = run_parallel_tabu_search(inst, rest);
  ASSERT_TRUE(resumed.status.ok());
  EXPECT_DOUBLE_EQ(resumed.best_value, reference.best_value);
  EXPECT_EQ(resumed.best, reference.best);
  std::remove(path.c_str());
}

TEST(Resume, CheckpointCadenceCountsWrites) {
  const auto inst = test_instance();
  const auto path = temp_path("resume_cadence.ckpt");

  // Every 2 rounds over 6 rounds: writes after rounds 2, 4 and 6; the final
  // round's cadence write doubles as the final checkpoint (no extra write).
  auto config = cts2_config(6);
  config.checkpoint_path = path;
  config.checkpoint_every_rounds = 2;
  const auto result = run_parallel_tabu_search(inst, config);
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.master.checkpoints_written, 3U);
  EXPECT_EQ(result.master.checkpoint_failures, 0U);

  // Cadence 4 over 6 rounds: one cadence write plus the final checkpoint.
  auto sparse = cts2_config(6);
  sparse.checkpoint_path = path;
  sparse.checkpoint_every_rounds = 4;
  const auto sparse_result = run_parallel_tabu_search(inst, sparse);
  ASSERT_TRUE(sparse_result.status.ok());
  EXPECT_EQ(sparse_result.master.checkpoints_written, 2U);

  // The surviving file is always the final state.
  auto cp = snapshot::load_checkpoint(path, inst);
  ASSERT_TRUE(cp);
  EXPECT_EQ(cp->next_round, 6U);
  std::remove(path.c_str());
}

TEST(Resume, UnwritableCheckpointPathDegradesGracefully) {
  // Durability must never kill the search it protects: the run completes,
  // the failures are counted.
  const auto inst = test_instance();
  auto config = cts2_config(3);
  config.checkpoint_path = "/nonexistent-dir/sub/never.ckpt";
  const auto result = run_parallel_tabu_search(inst, config);
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.master.rounds_completed, 3U);
  EXPECT_EQ(result.master.checkpoints_written, 0U);
  EXPECT_GE(result.master.checkpoint_failures, 1U);
  EXPECT_GT(result.best_value, 0.0);
}

TEST(Resume, AnytimeEnvelopeReanchorsAtTheCheckpointedBest) {
  const auto inst = test_instance();
  const auto path = temp_path("resume_anytime.ckpt");
  auto first = cts2_config(3);
  first.checkpoint_path = path;
  ASSERT_TRUE(run_parallel_tabu_search(inst, first).status.ok());

  auto checkpoint = snapshot::load_checkpoint(path, inst);
  ASSERT_TRUE(checkpoint);
  auto rest = cts2_config(6);
  rest.resume = &*checkpoint;
  const auto resumed = run_parallel_tabu_search(inst, rest);
  ASSERT_TRUE(resumed.status.ok());

  // The resumed curve's first global-envelope sample re-anchors at the
  // checkpointed best and the carried-over elapsed time, so stitched curves
  // across a restart stay monotone in both axes.
  const obs::AnytimeSample* first_global = nullptr;
  for (const auto& sample : resumed.master.anytime) {
    if (sample.source == obs::kGlobalSource) {
      first_global = &sample;
      break;
    }
  }
  ASSERT_NE(first_global, nullptr);
  EXPECT_DOUBLE_EQ(first_global->value, checkpoint->best.value());
  EXPECT_DOUBLE_EQ(first_global->seconds, checkpoint->elapsed_seconds);
  EXPECT_EQ(first_global->work_units, checkpoint->total_moves);

  // And the envelope never dips below the checkpointed best afterwards.
  for (const auto& sample : resumed.master.anytime) {
    if (sample.source == obs::kGlobalSource) {
      EXPECT_GE(sample.value, checkpoint->best.value());
    }
  }
  std::remove(path.c_str());
}

TEST(Resume, CoreReducedRunResumesBitForBitViaPath) {
  // A core-reduced run's checkpoint holds core-space solutions; resuming it
  // through resume_from_path rederives the identical fixing, validates the
  // checkpointed CoreSection against it, and replays the remaining rounds in
  // core space — bit-identical to a run that was never interrupted.
  const auto inst = mkp::generate_uncorrelated(80, 3, 3, 1000.0, 0.5);
  auto base = cts2_config(6);
  base.core.enabled = true;
  base.core.min_fixed_fraction = 0.0;

  const auto uninterrupted = run_parallel_tabu_search(inst, base);
  ASSERT_TRUE(uninterrupted.status.ok());
  ASSERT_TRUE(uninterrupted.core_engaged)
      << "fixing did not engage; pick a different instance";

  const auto path = temp_path("resume_core.ckpt");
  auto first_half = base;
  first_half.search_iterations = 3;
  first_half.checkpoint_path = path;
  const auto partial = run_parallel_tabu_search(inst, first_half);
  ASSERT_TRUE(partial.status.ok());
  ASSERT_TRUE(partial.core_engaged);

  auto second_half = base;
  second_half.checkpoint_path.clear();
  second_half.resume_from_path = path;
  const auto resumed = run_parallel_tabu_search(inst, second_half);
  ASSERT_TRUE(resumed.status.ok()) << resumed.status.to_string();
  EXPECT_TRUE(resumed.core_engaged);
  EXPECT_EQ(resumed.master.resumed_from_round, 3U);
  EXPECT_EQ(resumed.master.rounds_completed, 6U);
  EXPECT_DOUBLE_EQ(resumed.best_value, uninterrupted.best_value);
  EXPECT_EQ(resumed.best, uninterrupted.best);
  EXPECT_EQ(resumed.total_moves, uninterrupted.total_moves);
  std::remove(path.c_str());
}

TEST(Resume, CoreCheckpointRefusesACoreDisabledResume) {
  // The checkpoint's solutions live in core coordinates, so a full-space
  // run must not be allowed to adopt them: the fingerprint (which is the
  // CORE instance's) fails against the full instance and the run errors out
  // instead of resuming garbage.
  const auto inst = mkp::generate_uncorrelated(80, 3, 3, 1000.0, 0.5);
  const auto path = temp_path("resume_core_mismatch.ckpt");
  auto core_run = cts2_config(3);
  core_run.core.enabled = true;
  core_run.core.min_fixed_fraction = 0.0;
  core_run.checkpoint_path = path;
  const auto partial = run_parallel_tabu_search(inst, core_run);
  ASSERT_TRUE(partial.status.ok());
  ASSERT_TRUE(partial.core_engaged);

  auto full_run = cts2_config(6);
  full_run.resume_from_path = path;
  const auto refused = run_parallel_tabu_search(inst, full_run);
  EXPECT_FALSE(refused.status.ok());
  EXPECT_EQ(refused.status.code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(Resume, MissingResumePathStartsFresh) {
  // resume_from_path names a file that does not exist: that is the normal
  // first launch of a crash-safe deployment, not an error.
  const auto inst = test_instance();
  auto config = cts2_config(3);
  config.resume_from_path = temp_path("never_written.ckpt");
  const auto result = run_parallel_tabu_search(inst, config);
  ASSERT_TRUE(result.status.ok()) << result.status.to_string();
  EXPECT_EQ(result.master.resumed_from_round, 0U);
  EXPECT_EQ(result.master.rounds_completed, 3U);
}

}  // namespace
}  // namespace pts::parallel
