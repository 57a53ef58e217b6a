// Chaos harness (DESIGN.md §9): scheduled worker crashes, corrupt frames,
// stalls and trickled writes against the real proc backend; thread-backend
// stall schedules through FaultInjector; and the end-to-end acceptance
// scenario — kill -9 the driver binary mid-run, then --resume from its
// checkpoint. Every scenario must terminate with all rounds completed:
// chaos may cost quality and spawn counts, never liveness.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "mkp/generator.hpp"
#include "mkp/parser.hpp"
#include "parallel/master.hpp"
#include "parallel/proc_backend.hpp"
#include "parallel/runner.hpp"
#include "parallel/snapshot.hpp"

#ifndef PTS_WORKER_BIN_FOR_TESTS
#error "build must define PTS_WORKER_BIN_FOR_TESTS (see tests/CMakeLists.txt)"
#endif
#ifndef PTS_ORLIB_BIN_FOR_TESTS
#error "build must define PTS_ORLIB_BIN_FOR_TESTS (see tests/CMakeLists.txt)"
#endif

namespace pts::parallel {
namespace {

constexpr const char* kWorkerBin = PTS_WORKER_BIN_FOR_TESTS;
constexpr const char* kOrlibBin = PTS_ORLIB_BIN_FOR_TESTS;

std::string temp_path(const char* name) { return ::testing::TempDir() + name; }

/// Sets PTS_CHAOS_* knobs for one test and guarantees they are gone after,
/// so chaos never leaks into a neighbouring proc-backend test.
class EnvGuard {
 public:
  EnvGuard(std::initializer_list<std::pair<const char*, const char*>> vars) {
    for (const auto& [name, value] : vars) {
      ::setenv(name, value, 1);
      names_.push_back(name);
    }
  }
  ~EnvGuard() {
    for (const char* name : names_) ::unsetenv(name);
  }
  EnvGuard(const EnvGuard&) = delete;
  EnvGuard& operator=(const EnvGuard&) = delete;

 private:
  std::vector<const char*> names_;
};

/// fork/exec with stdout+stderr discarded (the driver prints tables we do
/// not parse; assertions read the checkpoint file instead).
pid_t spawn_quiet(const std::vector<std::string>& argv_strings) {
  std::vector<char*> argv;
  argv.reserve(argv_strings.size() + 1);
  for (const auto& arg : argv_strings) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    const int devnull = ::open("/dev/null", O_WRONLY);
    if (devnull >= 0) {
      ::dup2(devnull, STDOUT_FILENO);
      ::dup2(devnull, STDERR_FILENO);
    }
    ::execv(argv[0], argv.data());
    std::_Exit(127);
  }
  return pid;
}

TEST(Chaos, ScheduledWorkerCrashesDegradeButEveryRoundCompletes) {
  // PTS_CHAOS_CRASH_PPM makes each worker _exit(9) on a scheduled fraction
  // of assignments — from the supervisor's side indistinguishable from an
  // OOM kill. The farm must absorb the deaths through the fault -> backoff
  // -> respawn (or retire) policy and still complete every round.
  EnvGuard chaos({{"PTS_CHAOS_CRASH_PPM", "250000"}});
  const auto inst = mkp::generate_gk({.num_items = 50, .num_constraints = 5}, 3);

  ProcOptions options;
  options.worker_path = kWorkerBin;
  options.max_respawns_per_slave = 4;
  options.respawn_backoff_base_seconds = 0.05;
  options.respawn_backoff_cap_seconds = 0.2;
  ProcSupervisor supervisor(inst, /*num_slaves=*/3, /*seed=*/9, options);
  ASSERT_TRUE(supervisor.start().ok());

  MasterConfig master_config;
  master_config.num_slaves = 3;
  master_config.search_iterations = 8;
  master_config.work_per_slave_round = 800;
  master_config.seed = 9;

  const auto result =
      run_master(inst, supervisor, master_config, nullptr);
  supervisor.shutdown();

  EXPECT_EQ(result.rounds_completed, 8U);
  EXPECT_GE(result.slave_faults, 1U);
  EXPECT_GT(result.best_value, 0.0);
  const auto stats = supervisor.stats();
  EXPECT_GE(stats.worker_respawns, 1U);
}

TEST(Chaos, CorruptAndTrickledFramesNeverHangTheRendezvous) {
  // Three failure modes at once: flipped report-payload bytes (decode
  // failures in the master's gather), a per-report stall, and frames
  // trickled seven bytes at a time (framed-read reassembly). None of them
  // may hang a rendezvous or lose a round.
  EnvGuard chaos({{"PTS_CHAOS_CORRUPT_PPM", "300000"},
                  {"PTS_CHAOS_STALL_MS", "2"},
                  {"PTS_CHAOS_SLOW_WRITE", "1"}});
  const auto inst = mkp::generate_gk({.num_items = 40, .num_constraints = 4}, 5);

  ProcOptions options;
  options.worker_path = kWorkerBin;
  ProcSupervisor supervisor(inst, /*num_slaves=*/3, /*seed=*/17, options);
  ASSERT_TRUE(supervisor.start().ok());

  MasterConfig master_config;
  master_config.num_slaves = 3;
  master_config.search_iterations = 5;
  master_config.work_per_slave_round = 600;
  master_config.seed = 17;

  const auto result =
      run_master(inst, supervisor, master_config, nullptr);
  supervisor.shutdown();

  EXPECT_EQ(result.rounds_completed, 5U);
  EXPECT_GT(result.best_value, 0.0);
}

TEST(Chaos, StalledWorkersTripTheHeartbeatAndEveryRoundCompletes) {
  // Every worker sleeps far past the heartbeat before each report. The
  // gather must fault each one when its deadline passes — not wait out the
  // stall — kill it, and let the round complete on the fault messages.
  EnvGuard chaos({{"PTS_CHAOS_STALL_MS", "20000"}});
  const auto inst = mkp::generate_gk({.num_items = 40, .num_constraints = 4}, 19);

  ProcOptions options;
  options.worker_path = kWorkerBin;
  options.worker_timeout_seconds = 0.3;
  ProcSupervisor supervisor(inst, /*num_slaves=*/3, /*seed=*/29, options);
  ASSERT_TRUE(supervisor.start().ok());

  MasterConfig master_config;
  master_config.num_slaves = 3;
  master_config.search_iterations = 2;
  master_config.work_per_slave_round = 300;
  master_config.seed = 29;

  const auto start = std::chrono::steady_clock::now();
  const auto result = run_master(inst, supervisor, master_config, nullptr);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  supervisor.shutdown();

  EXPECT_EQ(result.rounds_completed, 2U);
  EXPECT_EQ(result.slave_faults, 6U);  // every worker, every round
  EXPECT_LT(seconds, 10.0);            // the 20 s stalls were never waited out
  EXPECT_GT(result.best_value, 0.0);   // the initial solutions survive
}

TEST(Chaos, MasterSideScheduleCorruptsAssignmentsYetEveryRoundCompletes) {
  // The mirror of the worker-side knobs: PTS_CHAOS_MASTER_* applies to the
  // SUPERVISOR'S assignment sends. A corrupted assignment fails the worker's
  // total decoder — the worker exits, the heartbeat read sees EOF, and the
  // round completes degraded through the SlaveFault + respawn path. The
  // stall fires on every send, so injections are guaranteed nonzero.
  EnvGuard chaos({{"PTS_CHAOS_MASTER_CORRUPT_PPM", "200000"},
                  {"PTS_CHAOS_MASTER_STALL_MS", "1"}});
  const auto inst = mkp::generate_gk({.num_items = 40, .num_constraints = 4}, 13);

  ProcOptions options;
  options.worker_path = kWorkerBin;
  options.respawn_backoff_base_seconds = 0.05;
  options.respawn_backoff_cap_seconds = 0.2;
  // The schedule is parsed from the environment at construction time.
  ProcSupervisor supervisor(inst, /*num_slaves=*/3, /*seed=*/23, options);
  ASSERT_TRUE(supervisor.start().ok());

  MasterConfig master_config;
  master_config.num_slaves = 3;
  master_config.search_iterations = 8;
  master_config.work_per_slave_round = 600;
  master_config.seed = 23;

  const auto result =
      run_master(inst, supervisor, master_config, nullptr);
  supervisor.shutdown();

  EXPECT_EQ(result.rounds_completed, 8U);
  EXPECT_GT(result.best_value, 0.0);
  const auto stats = supervisor.stats();
  // Every assignment send stalled, so at least slaves * rounds injections.
  EXPECT_GE(stats.chaos_injections, 3U * 8U);
}

TEST(Chaos, MasterSideSlowWriteTricklesAssignmentsWithoutFaults) {
  // Trickling the master's frames in 7-byte chunks exercises the WORKER'S
  // framed-read reassembly. Slowness is not failure: no faults, no respawns,
  // and the run stays bit-identical to a chaos-free one.
  const auto inst = mkp::generate_gk({.num_items = 40, .num_constraints = 4}, 29);

  ParallelConfig config;
  config.mode = CooperationMode::kCooperativeAdaptive;
  config.num_slaves = 2;
  config.search_iterations = 3;
  config.work_per_slave_round = 500;
  config.seed = 41;
  config.backend = Backend::kProcess;
  config.proc.worker_path = kWorkerBin;

  const auto clean = run_parallel_tabu_search(inst, config);
  ASSERT_TRUE(clean.status.ok()) << clean.status.to_string();

  EnvGuard chaos({{"PTS_CHAOS_MASTER_SLOW_WRITE", "1"}});
  const auto trickled = run_parallel_tabu_search(inst, config);
  ASSERT_TRUE(trickled.status.ok()) << trickled.status.to_string();

  EXPECT_EQ(trickled.master.rounds_completed, 3U);
  EXPECT_EQ(trickled.master.slave_faults, 0U);
  EXPECT_EQ(trickled.proc.worker_respawns, 0U);
  EXPECT_GE(trickled.proc.chaos_injections, 2U * 3U);
  EXPECT_DOUBLE_EQ(trickled.best_value, clean.best_value);
  EXPECT_EQ(trickled.best, clean.best);
}

TEST(Chaos, StallScheduleDelaysARoundWithoutFaultingIt) {
  // Thread-backend counterpart: FaultInjector.stall_seconds makes slave 1
  // sleep through round 1. A stall is slowness, not failure — the round
  // must still gather P reports and count zero faults.
  const auto inst = mkp::generate_gk({.num_items = 40, .num_constraints = 4}, 11);
  FaultInjector injector;
  injector.stall_seconds = [](std::size_t slave, std::size_t round) {
    return (slave == 1 && round == 1) ? 0.3 : 0.0;
  };

  ParallelConfig config;
  config.mode = CooperationMode::kCooperativeAdaptive;
  config.num_slaves = 3;
  config.search_iterations = 3;
  config.work_per_slave_round = 500;
  config.seed = 19;
  config.fault_injector = &injector;

  const auto start = std::chrono::steady_clock::now();
  const auto result = run_parallel_tabu_search(inst, config);
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;

  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.master.rounds_completed, 3U);
  EXPECT_EQ(result.master.slave_faults, 0U);
  EXPECT_GE(elapsed.count(), 0.3);
}

TEST(Chaos, ProcBackendResumeIsBitIdenticalWithoutFaults) {
  // Acceptance criterion: a CTS2 --backend=proc run checkpointed at round 2
  // and resumed must produce the exact final best of the uninterrupted run
  // when no faults are injected — process boundaries and the snapshot file
  // both preserve every byte that feeds the draw sequence.
  const auto inst = mkp::generate_gk({.num_items = 60, .num_constraints = 5}, 27);

  ParallelConfig config;
  config.mode = CooperationMode::kCooperativeAdaptive;
  config.num_slaves = 3;
  config.search_iterations = 5;
  config.work_per_slave_round = 1'000;
  config.seed = 33;
  config.backend = Backend::kProcess;
  config.proc.worker_path = kWorkerBin;

  const auto uninterrupted = run_parallel_tabu_search(inst, config);
  ASSERT_TRUE(uninterrupted.status.ok()) << uninterrupted.status.to_string();

  const auto path = temp_path("chaos_proc_resume.ckpt");
  auto first_half = config;
  first_half.search_iterations = 2;
  first_half.checkpoint_path = path;
  ASSERT_TRUE(run_parallel_tabu_search(inst, first_half).status.ok());

  auto checkpoint = snapshot::load_checkpoint(path, inst);
  ASSERT_TRUE(checkpoint) << checkpoint.status().to_string();
  auto second_half = config;
  second_half.resume = &*checkpoint;
  const auto resumed = run_parallel_tabu_search(inst, second_half);
  ASSERT_TRUE(resumed.status.ok()) << resumed.status.to_string();

  EXPECT_EQ(resumed.master.resumed_from_round, 2U);
  EXPECT_DOUBLE_EQ(resumed.best_value, uninterrupted.best_value);
  EXPECT_EQ(resumed.best, uninterrupted.best);
  EXPECT_EQ(resumed.total_moves, uninterrupted.total_moves);
  std::remove(path.c_str());
}

TEST(Chaos, DriverKillNineThenResumeReachesAtLeastTheCheckpointedBest) {
  // The full acceptance loop against the real driver binary: start
  // orlib_solver with --checkpoint, SIGKILL it once the first checkpoint is
  // durable, load what survived, rerun with --resume to completion, and
  // require the final best to be no worse than the mid-kill best.
  const auto orlib_path = temp_path("chaos_driver_problem.txt");
  const auto ckpt = temp_path("chaos_driver.ckpt");
  std::remove(ckpt.c_str());
  const auto generated =
      mkp::generate_gk({.num_items = 80, .num_constraints = 5}, 31);
  mkp::write_orlib_file(orlib_path, {generated});
  // Reload through the parser: the on-disk problem (fresh name, no recorded
  // optimum) is what the driver fingerprints its checkpoints against.
  const auto problems = mkp::read_orlib_file(orlib_path);
  ASSERT_EQ(problems.size(), 1U);
  const auto& inst = problems.front();

  const std::vector<std::string> run_args = {
      kOrlibBin,    orlib_path,     "--slaves=3",
      "--rounds=4000", "--work=1000", "--seed=7",
      "--checkpoint=" + ckpt};
  pid_t pid = spawn_quiet(run_args);
  ASSERT_GT(pid, 0);

  // Wait for the first durable checkpoint (cadence 1: after round 1), but
  // bail out with a diagnostic if the child dies before producing one.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  bool child_exited = false;
  while (!std::filesystem::exists(ckpt) &&
         std::chrono::steady_clock::now() < deadline) {
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) {
      child_exited = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(std::filesystem::exists(ckpt))
      << (child_exited ? "driver exited before checkpointing"
                       : "no checkpoint within 30s");
  if (!child_exited) {
    ASSERT_EQ(::kill(pid, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  }

  // The atomic tmp+rename protocol guarantees whatever file exists now is a
  // complete, loadable snapshot — even though the kill could have landed
  // mid-write of the NEXT checkpoint.
  auto mid = snapshot::load_checkpoint(ckpt, inst);
  ASSERT_TRUE(mid) << mid.status().to_string();
  const double best_at_kill = mid->best.value();
  EXPECT_GT(best_at_kill, 0.0);

  auto resume_args = run_args;
  resume_args.push_back("--resume");
  pid = spawn_quiet(resume_args);
  ASSERT_GT(pid, 0);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);

  auto final_state = snapshot::load_checkpoint(ckpt, inst);
  ASSERT_TRUE(final_state) << final_state.status().to_string();
  EXPECT_GE(final_state->rounds_completed, mid->rounds_completed);
  EXPECT_GE(final_state->best.value(), best_at_kill);
  std::remove(ckpt.c_str());
  std::remove(orlib_path.c_str());
}

}  // namespace
}  // namespace pts::parallel
