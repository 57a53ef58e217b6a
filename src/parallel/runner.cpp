#include "parallel/runner.hpp"

#include <atomic>
#include <thread>
#include <utility>
#include <vector>

#include "bounds/core.hpp"
#include "bounds/greedy.hpp"
#include "obs/counters.hpp"
#include "obs/metrics.hpp"
#include "parallel/proc_backend.hpp"
#include "parallel/slave.hpp"
#include "parallel/snapshot.hpp"
#include "tabu/engine.hpp"
#include "util/check.hpp"
#include "util/simd.hpp"
#include "util/timer.hpp"

namespace pts::parallel {

std::string to_string(CooperationMode mode) {
  switch (mode) {
    case CooperationMode::kSequential: return "SEQ";
    case CooperationMode::kIndependent: return "ITS";
    case CooperationMode::kCooperativePool: return "CTS1";
    case CooperationMode::kCooperativeAdaptive: return "CTS2";
  }
  return "?";
}

namespace {

std::string ascii_upper(const std::string& text) {
  std::string out = text;
  for (char& c : out) {
    if (c >= 'a' && c <= 'z') c = static_cast<char>(c - 'a' + 'A');
  }
  return out;
}

}  // namespace

Expected<CooperationMode> cooperation_mode_from_string(const std::string& text) {
  const auto upper = ascii_upper(text);
  for (auto mode : {CooperationMode::kSequential, CooperationMode::kIndependent,
                    CooperationMode::kCooperativePool,
                    CooperationMode::kCooperativeAdaptive}) {
    if (upper == to_string(mode)) return mode;
  }
  return Status::invalid_argument("unknown cooperation mode '" + text +
                                  "' (accepted: SEQ, ITS, CTS1, CTS2)");
}

std::string to_string(Backend backend) {
  switch (backend) {
    case Backend::kThread: return "thread";
    case Backend::kProcess: return "proc";
  }
  return "?";
}

Expected<Backend> backend_from_string(const std::string& text) {
  const auto upper = ascii_upper(text);
  if (upper == "THREAD") return Backend::kThread;
  if (upper == "PROC" || upper == "PROCESS") return Backend::kProcess;
  return Status::invalid_argument("unknown backend '" + text +
                                  "' (accepted: thread, proc)");
}

namespace {

ParallelResult run_sequential(const mkp::Instance& inst, const ParallelConfig& config) {
  Stopwatch watch;
  Rng rng(config.seed);

  tabu::TsParams params = config.base_params;
  params.strategy = random_strategy(rng, config.sgp.bounds);
  // The whole ensemble's work budget, converted to moves for this strategy.
  const std::uint64_t total_work = static_cast<std::uint64_t>(config.num_slaves) *
                                   config.search_iterations *
                                   config.work_per_slave_round;
  params.max_moves = std::max<std::uint64_t>(1, total_work / params.strategy.nb_drop);
  params.time_limit_seconds = config.time_limit_seconds;
  params.target_value = config.target_value;
  params.run_to_budget = true;
  params.cancel = config.cancel;

  const auto initial = bounds::greedy_randomized(inst, rng);
  auto ts = tabu::tabu_search(inst, initial, params, rng);

  ParallelResult result{config.mode, std::move(ts.best), ts.best_value, ts.moves,
                        watch.elapsed_seconds(), ts.reached_target,
                        config.cancel.stop_requested() && !ts.reached_target,
                        MasterResult{mkp::Solution(inst)}};
  // Surface the single run's telemetry through the same MasterResult fields
  // the cooperative modes fill, so --metrics / report_io treat SEQ uniformly.
  result.master.counters = ts.counters;
  result.master.counter_stats.observe(ts.counters);
  result.master.anytime = std::move(ts.anytime);
  return result;
}

/// A run that could not start at all (bad checkpoint, dead backend): default
/// solve fields over `inst`, the failure in `status`.
ParallelResult failed_result(const mkp::Instance& inst,
                             const ParallelConfig& config, Status status) {
  ParallelResult failed{config.mode,
                        mkp::Solution(inst),
                        0.0,
                        0,
                        0.0,
                        false,
                        false,
                        MasterResult{mkp::Solution(inst)}};
  failed.status = std::move(status);
  return failed;
}

/// The master-driven modes (ITS/CTS1/CTS2) over whichever instance the
/// caller resolved — full or core. Everything above the backend choice is
/// mode-independent wiring of MasterConfig.
ParallelResult run_parallel_impl(const mkp::Instance& inst,
                                 const ParallelConfig& config) {
  Stopwatch watch;

  MasterConfig master_config;
  master_config.num_slaves = config.num_slaves;
  master_config.search_iterations = config.search_iterations;
  master_config.work_per_slave_round = config.work_per_slave_round;
  master_config.seed = config.seed;
  master_config.share_solutions = config.mode != CooperationMode::kIndependent;
  master_config.adapt_strategies = config.mode == CooperationMode::kCooperativeAdaptive;
  master_config.isp = config.isp;
  master_config.sgp = config.sgp;
  master_config.base_params = config.base_params;
  master_config.mix_intensification = config.mix_intensification;
  master_config.relink_elites = config.relink_elites;
  master_config.target_value = config.target_value;
  master_config.time_limit_seconds = config.time_limit_seconds;
  master_config.cancel = config.cancel;
  master_config.checkpoint_path = config.checkpoint_path;
  master_config.checkpoint_every_rounds = config.checkpoint_every_rounds;
  master_config.resume = config.resume;
  master_config.core_section = config.core_section;
  master_config.degrade_after_faults = config.degrade_after_faults;
  master_config.warm_start = config.warm_start;

  MasterResult master_result{mkp::Solution(inst)};
  ProcStats proc_stats;
  if (config.backend == Backend::kProcess) {
    // Proc backend: the supervisor is the master's transport — run_master
    // writes assignments onto the worker sockets and polls them for the
    // replies from this very thread, so the farm adds no threads at all.
    ProcSupervisor supervisor(inst, config.num_slaves, config.seed, config.proc);
    if (auto status = supervisor.start(); !status.ok()) {
      return failed_result(inst, config, std::move(status));
    }
    master_result = run_master(inst, supervisor, master_config, config.observer);
    // End and reap the workers before sampling the stats so spawn counts are
    // final: an idle worker gets a kStop and a closed socket, one still
    // mid-round (a cancelled run) is SIGKILLed.
    supervisor.shutdown();
    proc_stats = supervisor.stats();
  } else {
    // Thread backend: one inbox per slave and one shared report box. Every
    // slave's channels carry the test-only fault injector.
    MailboxMasterTransport links(config.num_slaves);
    std::atomic<std::uint64_t> slave_drops{0};
    {
      // jthreads join on scope exit; closing the inboxes first ends every
      // slave (a round still running stops through its params.cancel), so
      // the joins cannot block (CP.23/CP.25: threads as scoped containers).
      std::vector<std::jthread> slaves;
      slaves.reserve(config.num_slaves);
      for (std::size_t i = 0; i < config.num_slaves; ++i) {
        slaves.emplace_back(
            [&inst, i, seed = config.seed,
             ch = links.channels(i, config.fault_injector), &slave_drops] {
              slave_drops.fetch_add(slave_loop(inst, i, seed, ch).dropped_messages,
                                    std::memory_order_relaxed);
            });
      }
      master_result = run_master(inst, links, master_config, config.observer);
      links.close_inboxes();
    }
    // Slaves are joined: fold their counted drops into the master's tally
    // (see MasterResult::dropped_messages).
    master_result.dropped_messages +=
        slave_drops.load(std::memory_order_relaxed);
  }
  if (obs::telemetry_enabled()) {
    master_result.counters[obs::Counter::kDroppedMessages] =
        master_result.dropped_messages;
  }

  ParallelResult result{config.mode,
                        master_result.best,
                        master_result.best_value,
                        master_result.total_moves,
                        watch.elapsed_seconds(),
                        master_result.reached_target,
                        master_result.cancelled,
                        std::move(master_result)};
  result.proc = proc_stats;
  return result;
}

/// Resolves ParallelConfig::resume_from_path (when set) into a loaded and
/// validated ParallelConfig::resume, then dispatches to SEQ or the master
/// impl. `inst` here is the instance the run actually searches — under core
/// reduction the caller (run_core_reduced) already swapped in the core, so
/// the checkpoint's solutions decode against the right bit width and its
/// core section is compared against the rederived fixing.
ParallelResult run_resolved(const mkp::Instance& inst,
                            const ParallelConfig& config) {
  if (config.mode == CooperationMode::kSequential) {
    // SEQ has no master, hence no checkpoints: nothing to resume.
    return run_sequential(inst, config);
  }
  if (config.resume_from_path.empty() || config.resume != nullptr) {
    return run_parallel_impl(inst, config);
  }
  auto loaded = snapshot::load_checkpoint(config.resume_from_path, inst);
  if (!loaded) {
    if (loaded.status().code() == StatusCode::kUnavailable) {
      // No checkpoint yet — the first run of a --resume loop starts fresh.
      return run_parallel_impl(inst, config);
    }
    return failed_result(inst, config, loaded.status());
  }
  if (!(loaded->core == config.core_section)) {
    return failed_result(
        inst, config,
        Status::invalid_argument(
            "snapshot: checkpoint core-reduction section does not match this "
            "run (was the checkpoint written with a different --core-reduction "
            "setting, bound, or instance?)"));
  }
  const bool share = config.mode != CooperationMode::kIndependent;
  const bool adapt = config.mode == CooperationMode::kCooperativeAdaptive;
  if (auto status = snapshot::check_compatible(*loaded, inst, config.seed,
                                               config.num_slaves, share, adapt);
      !status.ok()) {
    return failed_result(inst, config, std::move(status));
  }
  ParallelConfig resumed = config;
  resumed.resume = &*loaded;
  return run_parallel_impl(inst, resumed);
}

/// The core-reduction wrapper: reduce, search the residual core with the
/// whole cooperative machinery, lift the result back to full space. All
/// core-space Solutions are replaced before return — the core Instance dies
/// with this frame.
ParallelResult run_core_reduced(const mkp::Instance& inst,
                                const ParallelConfig& config) {
  Stopwatch watch;
  const auto core = bounds::build_core_problem(inst, config.core);

  if (!core.use_core) {
    // LP failed or the fixing was below min_fixed_fraction: run the full
    // instance untouched (checkpoints carry an empty core section).
    ParallelConfig full = config;
    full.core.enabled = false;
    return run_resolved(inst, full);
  }

  if (core.solved_outright()) {
    // Every variable settled by reduced cost — no search to run.
    ParallelResult result{config.mode,
                          core.lift(inst, nullptr),
                          0.0,
                          0,
                          watch.elapsed_seconds(),
                          false,
                          false,
                          MasterResult{mkp::Solution(inst)}};
    result.best_value = result.best.value();
    result.reached_target = config.target_value.has_value() &&
                            result.best_value >= *config.target_value;
    result.core_engaged = true;
    result.core_fixed_zero = core.fixing.fixed_to_zero;
    result.core_fixed_one = core.fixing.fixed_to_one;
    obs::metrics().gauge("core_fixed_vars").set(static_cast<double>(
        result.core_fixed_zero + result.core_fixed_one));
    result.core_banked_profit = core.banked_profit();
    return result;
  }

  const mkp::Instance& core_inst = core.core_instance();
  const double banked = core.banked_profit();

  ParallelConfig core_config = config;
  core_config.core.enabled = false;  // the inner run must not reduce again
  // Everything value-shaped the inner run compares against lives in core
  // coordinates: the target drops by the banked profit...
  if (config.target_value) {
    core_config.target_value = *config.target_value - banked;
  }
  // ...and checkpoints record which reduction their solutions assume.
  core_config.core_section.full_instance_fingerprint =
      snapshot::instance_fingerprint(inst);
  core_config.core_section.status = core.fixing.status;

  ParallelResult result = run_resolved(core_inst, core_config);
  result.core_engaged = true;
  result.core_fixed_zero = core.fixing.fixed_to_zero;
  result.core_fixed_one = core.fixing.fixed_to_one;
  obs::metrics().gauge("core_fixed_vars").set(static_cast<double>(
      result.core_fixed_zero + result.core_fixed_one));
  result.core_banked_profit = banked;
  result.seconds = watch.elapsed_seconds();  // include the reduction itself

  if (!result.status.ok()) {
    // The inner run never started; its default Solutions reference the core
    // instance, which dies here — replace them with full-space defaults.
    result.best = mkp::Solution(inst);
    result.master.best = mkp::Solution(inst);
    return result;
  }

  // Lift the winner and re-base every reported value to full space. The
  // MasterResult's only Solution is `best`; RoundLog and anytime samples
  // carry plain objective values, which shift by the banked profit.
  mkp::Solution lifted = core.lift(inst, &result.best);
  result.best_value = lifted.value();
  result.master.best_value = result.best_value;
  result.best = lifted;
  result.master.best = std::move(lifted);
  for (auto& round : result.master.timeline) {
    round.initial_value += banked;
    round.final_value += banked;
  }
  for (auto& sample : result.master.anytime) sample.value += banked;
  return result;
}

}  // namespace

ParallelResult run_parallel_tabu_search(const mkp::Instance& inst,
                                        const ParallelConfig& config) {
  PTS_CHECK(config.num_slaves >= 1);
  obs::metrics().gauge("simd_dispatch_kind")
      .set(static_cast<double>(simd::active()));
  PTS_CHECK_MSG(config.resume == nullptr || !config.core.enabled,
                "core reduction requires resume_from_path, not a pre-loaded "
                "checkpoint (its solutions are in core coordinates)");
  if (config.core.enabled) return run_core_reduced(inst, config);
  return run_resolved(inst, config);
}

}  // namespace pts::parallel
