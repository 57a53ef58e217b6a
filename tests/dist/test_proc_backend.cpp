// Multi-process backend integration: thread/proc equivalence on a fixed
// seed, worker death (kill -9) mid-run mapped onto the SlaveFault -> respawn
// path, and clean errors when the worker binary is missing. The worker path
// comes from the build (PTS_WORKER_BIN_FOR_TESTS points at the pts_worker
// target), so these tests exercise the real spawned binary.
#include "parallel/proc_backend.hpp"

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <filesystem>
#include <functional>
#include <thread>
#include <vector>

#include "mkp/generator.hpp"
#include "parallel/master.hpp"
#include "parallel/runner.hpp"

#ifndef PTS_WORKER_BIN_FOR_TESTS
#error "build must define PTS_WORKER_BIN_FOR_TESTS (see tests/CMakeLists.txt)"
#endif

namespace pts::parallel {
namespace {

constexpr const char* kWorkerBin = PTS_WORKER_BIN_FOR_TESTS;

ParallelConfig base_config() {
  ParallelConfig config;
  config.mode = CooperationMode::kCooperativeAdaptive;
  config.num_slaves = 3;
  config.search_iterations = 3;
  config.work_per_slave_round = 2'000;
  config.seed = 5;
  return config;
}

TEST(ProcBackend, MatchesThreadBackendOnFixedSeed) {
  // The core determinism claim of DESIGN.md §8: same seed, same preset,
  // same best value and solution whether slaves are threads or processes —
  // doubles travel as bit patterns and every round's rng derives from
  // (seed, slave, round) only.
  const auto inst = mkp::generate_gk({.num_items = 100, .num_constraints = 10}, 11);

  auto thread_config = base_config();
  const auto thread_run = run_parallel_tabu_search(inst, thread_config);
  ASSERT_TRUE(thread_run.status.ok());

  auto proc_config = base_config();
  proc_config.backend = Backend::kProcess;
  proc_config.proc.worker_path = kWorkerBin;
  const auto proc_run = run_parallel_tabu_search(inst, proc_config);
  ASSERT_TRUE(proc_run.status.ok()) << proc_run.status.to_string();

  EXPECT_DOUBLE_EQ(proc_run.best_value, thread_run.best_value);
  EXPECT_EQ(proc_run.best, thread_run.best);
  EXPECT_EQ(proc_run.master.rounds_completed, thread_run.master.rounds_completed);
  EXPECT_EQ(proc_run.master.slave_faults, 0U);
  EXPECT_EQ(proc_run.proc.workers_spawned, 3U);
  EXPECT_EQ(proc_run.proc.worker_respawns, 0U);
}

TEST(ProcBackend, KillNineMidRoundStillCompletesWithRespawn) {
  // The acceptance scenario: SIGKILL one worker while the farm runs. The
  // supervisor must map the death onto a SlaveFault (so the round completes
  // with P-1 reports), respawn the process, and finish every round.
  const auto inst = mkp::generate_gk({.num_items = 50, .num_constraints = 5}, 3);

  ProcOptions options;
  options.worker_path = kWorkerBin;
  ProcSupervisor supervisor(inst, /*num_slaves=*/3, /*seed=*/9, options);
  ASSERT_TRUE(supervisor.start().ok());

  struct Killer : MasterTrace {
    ProcSupervisor* supervisor = nullptr;
    std::atomic<bool> fired{false};
    void on_round_start(std::size_t round) override {
      if (round == 2 && !fired.exchange(true)) {
        const pid_t pid = supervisor->worker_pid(0);
        ASSERT_GT(pid, 0);
        ASSERT_EQ(::kill(pid, SIGKILL), 0);
      }
    }
  } killer;
  killer.supervisor = &supervisor;

  MasterConfig master_config;
  master_config.num_slaves = 3;
  master_config.search_iterations = 6;
  master_config.work_per_slave_round = 1'500;
  master_config.seed = 9;

  const auto result =
      run_master(inst, supervisor, master_config, &killer);
  supervisor.shutdown();

  EXPECT_TRUE(killer.fired.load());
  EXPECT_EQ(result.rounds_completed, 6U);
  EXPECT_GE(result.slave_faults, 1U);
  EXPECT_GE(result.slave_respawns, 1U);
  EXPECT_GT(result.best_value, 0.0);
  const auto stats = supervisor.stats();
  EXPECT_GE(stats.worker_respawns, 1U);
  EXPECT_EQ(stats.workers_spawned, 3U + stats.worker_respawns);
}

TEST(ProcBackend, RapidDeathBurstDoesNotBurnRespawnBudget) {
  // Regression: the old policy respawned eagerly inside the fault handler,
  // so a worker dying three times in under 100ms burned three respawns in
  // one round. The backoff policy respawns an isolated death immediately
  // but defers a streak — assignments landing inside the backoff window
  // fault fast (respawn_backoff_skips) and cost no budget.
  const auto inst = mkp::generate_gk({.num_items = 40, .num_constraints = 4}, 7);

  ProcOptions options;
  options.worker_path = kWorkerBin;
  options.max_respawns_per_slave = 8;
  options.respawn_backoff_base_seconds = 0.25;
  options.respawn_backoff_cap_seconds = 1.0;
  options.breaker_threshold = 0;  // isolate the backoff from the breaker
  ProcSupervisor supervisor(inst, /*num_slaves=*/2, /*seed=*/13, options);
  ASSERT_TRUE(supervisor.start().ok());

  // Kill worker 0 the moment it exists, continuously — every respawned
  // process dies within milliseconds, the tightest death loop we can make.
  std::atomic<bool> done{false};
  std::thread killer([&] {
    while (!done.load()) {
      const pid_t pid = supervisor.worker_pid(0);
      if (pid > 0) ::kill(pid, SIGKILL);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  MasterConfig master_config;
  master_config.num_slaves = 2;
  master_config.search_iterations = 8;
  master_config.work_per_slave_round = 500;
  master_config.seed = 13;

  const auto result =
      run_master(inst, supervisor, master_config, nullptr);
  done.store(true);
  killer.join();
  supervisor.shutdown();

  const auto stats = supervisor.stats();
  // Every round still completed (faults keep the rendezvous alive) and the
  // surviving slave kept the search going.
  EXPECT_EQ(result.rounds_completed, 8U);
  EXPECT_GT(result.best_value, 0.0);
  EXPECT_GE(result.slave_faults, 3U);
  // The budget survived the burst: strictly fewer respawns than faults, the
  // difference absorbed by backoff fast-faults.
  EXPECT_LT(stats.worker_respawns, options.max_respawns_per_slave);
  EXPECT_LT(stats.worker_respawns, result.slave_faults);
  EXPECT_GE(stats.respawn_backoff_skips, 1U);
}

TEST(ProcBackend, CancelMidRoundReturnsAndReapsEveryWorker) {
  // The gather polls the worker sockets in kPollSliceMs slices, so a cancel
  // fired while every worker is deep in a long round must end the run
  // within about one slice — and every worker process, all of them still
  // mid-round, must be reaped rather than left a zombie.
  const auto inst = mkp::generate_gk({.num_items = 60, .num_constraints = 5}, 4);

  ProcOptions options;
  options.worker_path = kWorkerBin;
  ProcSupervisor supervisor(inst, /*num_slaves=*/3, /*seed=*/31, options);
  ASSERT_TRUE(supervisor.start().ok());

  CancelSource cancel;
  struct PidRecorder : MasterTrace {
    ProcSupervisor* supervisor = nullptr;
    std::vector<pid_t> pids;
    void on_assignments_sent(std::size_t, std::size_t) override {
      for (std::size_t i = 0; i < 3; ++i) pids.push_back(supervisor->worker_pid(i));
    }
  } recorder;
  recorder.supervisor = &supervisor;

  MasterConfig master_config;
  master_config.num_slaves = 3;
  master_config.search_iterations = 4;
  master_config.work_per_slave_round = 4'000'000'000ULL;  // minutes per round
  master_config.seed = 31;
  master_config.cancel = cancel.token();

  std::jthread firer([&cancel] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    cancel.request_cancel();
  });
  const auto start = std::chrono::steady_clock::now();
  const auto result = run_master(inst, supervisor, master_config, &recorder);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  supervisor.shutdown();

  EXPECT_TRUE(result.cancelled);
  EXPECT_EQ(result.rounds_completed, 0U);
  EXPECT_LT(seconds, 5.0);
  ASSERT_EQ(recorder.pids.size(), 3U);
  for (const pid_t pid : recorder.pids) {
    ASSERT_GT(pid, 0);
    // Reaped: no longer our child at all (a zombie would still be waitable).
    errno = 0;
    EXPECT_EQ(::waitpid(pid, nullptr, WNOHANG), -1) << "pid " << pid;
    EXPECT_EQ(errno, ECHILD) << "pid " << pid;
  }
}

TEST(ProcBackend, FarmAddsNoThreads) {
  // The master thread drives every worker link itself: a proc farm is P
  // processes and zero extra threads in the master's process.
  const auto count_threads = [] {
    std::size_t n = 0;
    for ([[maybe_unused]] const auto& entry :
         std::filesystem::directory_iterator("/proc/self/task")) {
      ++n;
    }
    return n;
  };
  const auto inst = mkp::generate_gk({.num_items = 40, .num_constraints = 4}, 6);

  ProcOptions options;
  options.worker_path = kWorkerBin;
  ProcSupervisor supervisor(inst, /*num_slaves=*/3, /*seed=*/3, options);
  const std::size_t before = count_threads();
  ASSERT_TRUE(supervisor.start().ok());

  struct ThreadSampler : MasterTrace {
    std::function<std::size_t()> count;
    std::vector<std::size_t> samples;
    void on_round_start(std::size_t) override { samples.push_back(count()); }
  } sampler;
  sampler.count = count_threads;

  MasterConfig master_config;
  master_config.num_slaves = 3;
  master_config.search_iterations = 3;
  master_config.work_per_slave_round = 500;
  master_config.seed = 3;
  const auto result = run_master(inst, supervisor, master_config, &sampler);
  supervisor.shutdown();

  EXPECT_EQ(result.rounds_completed, 3U);
  ASSERT_EQ(sampler.samples.size(), 3U);
  for (const std::size_t during : sampler.samples) EXPECT_LE(during, before);
}

TEST(ProcBackend, MissingWorkerBinaryIsACleanStatus) {
  const auto inst = mkp::generate_gk({.num_items = 30, .num_constraints = 4}, 1);
  auto config = base_config();
  config.search_iterations = 1;
  config.backend = Backend::kProcess;
  config.proc.worker_path = "/nonexistent/dir/pts_worker";
  const auto result = run_parallel_tabu_search(inst, config);
  ASSERT_FALSE(result.status.ok());
  EXPECT_EQ(result.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(result.master.rounds_completed, 0U);
}

TEST(ProcBackend, BackendNamesRoundTripWithFlags) {
  EXPECT_EQ(to_string(Backend::kThread), "thread");
  EXPECT_EQ(to_string(Backend::kProcess), "proc");
  ASSERT_TRUE(backend_from_string("proc"));
  EXPECT_EQ(*backend_from_string("PROC"), Backend::kProcess);
  EXPECT_EQ(*backend_from_string("Thread"), Backend::kThread);
  EXPECT_FALSE(backend_from_string("pvm"));
}

TEST(ProcBackend, IndependentModeAlsoMatchesAcrossBackends) {
  // ITS never shares solutions, so any cross-backend divergence here would
  // isolate a serialization bug (no cooperative masking).
  const auto inst = mkp::generate_gk({.num_items = 60, .num_constraints = 5}, 21);
  auto thread_config = base_config();
  thread_config.mode = CooperationMode::kIndependent;
  const auto thread_run = run_parallel_tabu_search(inst, thread_config);

  auto proc_config = thread_config;
  proc_config.backend = Backend::kProcess;
  proc_config.proc.worker_path = kWorkerBin;
  const auto proc_run = run_parallel_tabu_search(inst, proc_config);
  ASSERT_TRUE(proc_run.status.ok()) << proc_run.status.to_string();
  EXPECT_DOUBLE_EQ(proc_run.best_value, thread_run.best_value);
}

}  // namespace
}  // namespace pts::parallel
