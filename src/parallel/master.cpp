#include "parallel/master.hpp"

#include <algorithm>

#include "bounds/greedy.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tabu/path_relink.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace pts::parallel {

// The master's per-slave record — the paper's data structure entry (strategy
// St_i, initial solution S_i, B best solutions best_i, score_i) — is
// snapshot::SlaveState so a checkpoint captures it field-for-field.
using SlaveState = snapshot::SlaveState;

namespace {

/// Builds the resumable image of the master's state at a round boundary.
snapshot::MasterCheckpoint make_checkpoint(const mkp::Instance& inst,
                                           const MasterConfig& config,
                                           const MasterResult& result,
                                           const std::vector<SlaveState>& records,
                                           const Rng& master_rng,
                                           std::size_t next_round,
                                           double elapsed_seconds) {
  snapshot::MasterCheckpoint cp(inst);
  cp.instance_fingerprint = snapshot::instance_fingerprint(inst);
  cp.seed = config.seed;
  cp.num_slaves = static_cast<std::uint32_t>(config.num_slaves);
  cp.share_solutions = config.share_solutions;
  cp.adapt_strategies = config.adapt_strategies;
  cp.next_round = next_round;
  cp.best = result.best;
  cp.master_rng_state = master_rng.state();
  cp.slaves = records;
  cp.total_moves = result.total_moves;
  cp.elapsed_seconds = elapsed_seconds;
  cp.rounds_completed = result.rounds_completed;
  cp.strategy_retunes = result.strategy_retunes;
  cp.global_best_injections = result.global_best_injections;
  cp.random_restarts = result.random_restarts;
  cp.relink_improvements = result.relink_improvements;
  cp.slave_faults = result.slave_faults;
  cp.slave_respawns = result.slave_respawns;
  cp.core = config.core_section;
  return cp;
}

}  // namespace

MasterResult run_master(const mkp::Instance& inst, MasterTransport& links,
                        const MasterConfig& config, MasterTrace* trace) {
  PTS_CHECK(config.num_slaves >= 1);
  PTS_CHECK(links.num_slaves() == config.num_slaves);
  PTS_CHECK(config.search_iterations >= 1);

  Stopwatch watch;
  const auto deadline = config.time_limit_seconds > 0.0
                            ? Deadline::after_seconds(config.time_limit_seconds)
                            : Deadline::unbounded();

  Rng master_rng = Rng(config.seed).derive(0xFEEDULL);
  StrategyGenerator sgp(config.sgp);
  InitialSolutionGenerator isp(config.isp);

  MasterResult result{mkp::Solution(inst)};

  // Telemetry. The master runs under logical trace tid 0; the per-round
  // check keeps the disabled path at one relaxed load per round.
  const bool telemetry_on = obs::kTelemetryCompiled && obs::telemetry_enabled();
  if (obs::tracer().enabled()) {
    obs::tracer().name_thread(0, "master");
    for (std::size_t i = 0; i < config.num_slaves; ++i) {
      obs::tracer().name_thread(static_cast<std::uint32_t>(i) + 1,
                                "slave-" + std::to_string(i));
    }
  }
  std::vector<SlaveState> records(config.num_slaves);
  std::size_t first_round = 0;
  // Wall-clock and work offsets already earned before this process started
  // (zero on a fresh run); resumed telemetry continues the original curves.
  double time_offset = 0.0;
  if (config.resume != nullptr) {
    // Restore instead of initialize: the checkpoint holds every record, the
    // global best, the aggregates, and — critically — the master RNG's raw
    // state, so the draw sequence continues exactly where the killed run
    // stopped. The caller validated compatibility (snapshot::check_compatible);
    // these CHECKs only guard against wiring bugs.
    const auto& cp = *config.resume;
    PTS_CHECK_MSG(cp.slaves.size() == config.num_slaves,
                  "resume checkpoint slave count does not match the config");
    PTS_CHECK_MSG(cp.seed == config.seed,
                  "resume checkpoint seed does not match the config");
    records = cp.slaves;
    master_rng.set_state(cp.master_rng_state);
    result.best = cp.best;
    result.best_value = cp.best.value();
    result.total_moves = cp.total_moves;
    result.rounds_completed = static_cast<std::size_t>(cp.rounds_completed);
    result.strategy_retunes = static_cast<std::size_t>(cp.strategy_retunes);
    result.global_best_injections =
        static_cast<std::size_t>(cp.global_best_injections);
    result.random_restarts = static_cast<std::size_t>(cp.random_restarts);
    result.relink_improvements =
        static_cast<std::size_t>(cp.relink_improvements);
    result.slave_faults = static_cast<std::size_t>(cp.slave_faults);
    result.slave_respawns = static_cast<std::size_t>(cp.slave_respawns);
    first_round = static_cast<std::size_t>(cp.next_round);
    result.resumed_from_round = first_round;
    time_offset = cp.elapsed_seconds;
    if (telemetry_on) {
      // Re-anchor the global envelope: the resumed curve's max equals the
      // checkpointed best from its very first sample (§9 invariant).
      result.anytime.push_back({obs::kGlobalSource, time_offset,
                                result.total_moves, result.best_value});
    }
    if (obs::tracer().enabled()) {
      obs::tracer().instant("resume",
                            {{"round", static_cast<double>(first_round)},
                             {"best", result.best_value}});
    }
  } else {
    // Initialization: random strategies, randomized-greedy initial solutions.
    // A warm start substitutes harvested state for slave i's draws while its
    // entries last; slaves beyond the warm material fall through to the
    // random path. With no warm start the draw sequence is untouched, so
    // cold runs stay bit-identical to the pre-warm-start code.
    const WarmStart* ws = config.warm_start;
    for (std::size_t i = 0; i < config.num_slaves; ++i) {
      if (ws != nullptr && i < ws->strategies.size()) {
        records[i].strategy = ws->strategies[i];
        records[i].score =
            i < ws->scores.size() ? ws->scores[i] : config.sgp.initial_score;
      } else {
        records[i].strategy = random_strategy(master_rng, config.sgp.bounds);
        records[i].score = config.sgp.initial_score;
      }
      if (ws != nullptr && i < ws->initials.size()) {
        records[i].initial = ws->initials[i];
      } else {
        records[i].initial = bounds::greedy_randomized(inst, master_rng);
      }
      if (records[i].initial->value() > result.best_value) {
        result.best = *records[i].initial;
        result.best_value = records[i].initial->value();
      }
    }
  }

  // A warm-started (or resumed) best can already meet the target; searching
  // would only burn the budget re-finding a value the run starts with.
  if (config.target_value && result.best_value >= *config.target_value) {
    result.reached_target = true;
  }

  const auto active_count = [&records] {
    std::size_t n = 0;
    for (const auto& record : records) n += record.active ? 1 : 0;
    return n;
  };
  std::size_t last_checkpoint_round = first_round;  // nothing written yet
  const auto write_checkpoint = [&](std::size_t next_round) {
    auto cp = make_checkpoint(inst, config, result, records, master_rng,
                              next_round,
                              time_offset + watch.elapsed_seconds());
    const Stopwatch checkpoint_watch;
    const auto status = snapshot::save_checkpoint(config.checkpoint_path, cp);
    if (status.ok()) {
      ++result.checkpoints_written;
      if (telemetry_on) ++result.counters[obs::Counter::kCheckpointsWritten];
      obs::metrics().counter("checkpoint_writes_total").add();
      obs::metrics()
          .histogram("checkpoint_write_seconds")
          .record(checkpoint_watch.elapsed_seconds());
    } else {
      ++result.checkpoint_failures;
    }
    if (obs::tracer().enabled()) {
      obs::tracer().instant("checkpoint",
                            {{"round", static_cast<double>(next_round)},
                             {"ok", status.ok() ? 1.0 : 0.0}});
    }
    last_checkpoint_round = next_round;
  };

  for (std::size_t round = first_round; round < config.search_iterations;
       ++round) {
    if (config.cancel.stop_requested()) {
      result.cancelled = true;
      break;
    }
    if (deadline.expired() || result.reached_target) break;
    if (trace) trace->on_round_start(round);

    // Scatter: one assignment per active slave. Work balancing: slaves with
    // larger Nb_drop get proportionally fewer moves. When the pool has
    // degraded to P-k survivors, each absorbs the retired slaves' share so
    // the round's total work budget stays what the mode comparison assumes.
    const std::size_t assigned = active_count();
    PTS_CHECK_MSG(assigned >= 1, "every slave has been retired");
    const std::uint64_t round_work =
        config.work_per_slave_round * config.num_slaves / assigned;
    const double round_start_seconds = watch.elapsed_seconds();
    {
      obs::SpanScope scatter_span("scatter", {{"round", static_cast<double>(round)}});
      for (std::size_t i = 0; i < config.num_slaves; ++i) {
        if (!records[i].active) continue;
        Assignment assignment{round, *records[i].initial, config.base_params};
        if (config.mix_intensification) {
          assignment.params.intensification =
              i % 2 == 0 ? tabu::IntensificationKind::kSwap
                         : tabu::IntensificationKind::kStrategicOscillation;
        }
        assignment.params.strategy = records[i].strategy;
        assignment.params.max_moves = std::max<std::uint64_t>(
            1, round_work / records[i].strategy.nb_drop);
        assignment.params.target_value = config.target_value;
        assignment.params.run_to_budget = true;
        assignment.params.cancel = config.cancel;
        const bool sent = links.send(i, std::move(assignment));
        PTS_CHECK_MSG(sent, "slave link closed while the master is running");
      }
    }
    if (trace) trace->on_assignments_sent(round, assigned);

    // Gather: the synchronous rendezvous — one message per assigned slave,
    // where a message is either the round's Report or a SlaveFault. Faults
    // count toward the rendezvous (so it always completes) but leave their
    // slot empty; every consumer below must tolerate a missing report.
    std::vector<std::optional<Report>> reports(config.num_slaves);
    std::vector<bool> faulted(config.num_slaves, false);
    std::optional<double> first_report_at;
    std::size_t gathered = 0;
    {
      obs::SpanScope gather_span("gather", {{"round", static_cast<double>(round)}});
      for (std::size_t k = 0; k < assigned; ++k) {
        auto message = links.receive(config.cancel);
        if (!message) {
          // Either the cancel token fired mid-wait or the harness closed the
          // links. The former is an orderly wind-down; the latter is still a
          // wiring bug.
          PTS_CHECK_MSG(config.cancel.stop_requested(),
                        "slave links closed prematurely");
          result.cancelled = true;
          break;
        }
        if (!first_report_at) first_report_at = watch.elapsed_seconds();
        if (const auto* fault = std::get_if<SlaveFault>(&*message)) {
          PTS_CHECK(fault->slave_id < config.num_slaves);
          faulted[fault->slave_id] = true;
          ++result.slave_faults;
          ++gathered;
          if (obs::tracer().enabled()) {
            obs::tracer().instant("slave_fault",
                                  {{"round", static_cast<double>(round)},
                                   {"slave", static_cast<double>(fault->slave_id)}},
                                  "what", fault->what);
          }
          continue;
        }
        auto report = std::get<Report>(std::move(*message));
        PTS_CHECK(report.slave_id < config.num_slaves);
        reports[report.slave_id] = std::move(report);
        ++gathered;
      }
    }
    if (first_report_at) {
      result.rendezvous_idle_seconds += watch.elapsed_seconds() - *first_report_at;
    }
    if (result.cancelled) break;
    if (trace) trace->on_reports_gathered(round, gathered);

    // Update the global best first so ISP sees this round's discoveries.
    const double best_before_round = result.best_value;
    for (std::size_t i = 0; i < config.num_slaves; ++i) {
      if (!reports[i]) continue;  // faulted this round
      const auto& report = *reports[i];
      result.total_moves += report.moves;
      if (report.reached_target) result.reached_target = true;
      if (!report.elite.empty() && report.elite.front().value() > result.best_value) {
        result.best = report.elite.front();
        result.best_value = report.elite.front().value();
      }
      if (telemetry_on) {
        result.counters.add(report.counters);
        result.counter_stats.observe(report.counters);
        // Re-base the slave's curve: its clock starts at the scatter (plus
        // any wall time a resumed run inherited), its work units continue
        // from the moves it had already spent.
        for (const auto& sample : report.anytime) {
          result.anytime.push_back(
              {sample.source, time_offset + round_start_seconds + sample.seconds,
               records[i].moves_before_round + sample.work_units, sample.value});
        }
        records[i].moves_before_round += report.moves;
      }
    }
    if (telemetry_on && result.best_value > best_before_round) {
      result.anytime.push_back({obs::kGlobalSource,
                                time_offset + watch.elapsed_seconds(),
                                result.total_moves, result.best_value});
    }

    // Extension: path-relink the global best against each slave's best —
    // solutions combining the structure of two elites often sit on the path.
    const double best_before_relink = result.best_value;
    if (config.relink_elites && result.best_value > 0.0) {
      for (std::size_t i = 0; i < config.num_slaves; ++i) {
        if (!reports[i]) continue;
        const auto& report = *reports[i];
        if (report.elite.empty()) continue;
        const auto& slave_best = report.elite.front();
        if (slave_best == result.best) continue;
        const auto relinked = tabu::path_relink(result.best, slave_best);
        if (relinked.best_value > result.best_value) {
          result.best = relinked.best;
          result.best_value = relinked.best_value;
          ++result.relink_improvements;
          if (config.target_value && result.best_value >= *config.target_value) {
            result.reached_target = true;
          }
        }
      }
    }
    if (telemetry_on && result.best_value > best_before_relink) {
      // Relink wins land after the round's report merge, so they need their
      // own global sample — otherwise the anytime envelope under-reports the
      // best until the next round improves it again.
      result.anytime.push_back({obs::kGlobalSource,
                                time_offset + watch.elapsed_seconds(),
                                result.total_moves, result.best_value});
    }

    // Per-slave bookkeeping, deterministic order.
    for (std::size_t i = 0; i < config.num_slaves; ++i) {
      if (!records[i].active) continue;
      if (!reports[i]) {
        // Respawn the faulted slave: the thread itself survived (slave_loop
        // caught the escape), so a respawn is purely master-side — a fresh
        // random strategy and start, score reset, as if newly spawned. No
        // RoundLog entry is written for the faulted round.
        auto& record = records[i];
        record.strategy = random_strategy(master_rng, config.sgp.bounds);
        record.score = config.sgp.initial_score;
        record.initial = bounds::greedy_randomized(inst, master_rng);
        record.b_best.clear();
        record.rounds_unchanged = 0;
        if (faulted[i]) {
          ++result.slave_respawns;
          ++record.consecutive_faults;
        }
        continue;
      }
      const auto& report = *reports[i];
      auto& record = records[i];
      record.consecutive_faults = 0;
      record.b_best = report.elite;

      RoundLog log;
      log.round = round;
      log.slave = i;
      log.strategy = record.strategy;
      log.initial_value = report.initial_value;
      log.final_value = report.final_value;
      log.moves = report.moves;
      log.seconds = report.seconds;

      // SGP: score and possibly retune (CTS2 only).
      if (config.adapt_strategies) {
        obs::SpanScope sgp_span("sgp", {{"round", static_cast<double>(round)},
                                        {"slave", static_cast<double>(i)}});
        const bool improved = report.final_value > report.initial_value;
        const auto decision = sgp.update(record.strategy, record.score, improved,
                                         record.b_best, inst.num_items(), master_rng);
        if (decision.kind != RetuneKind::kKept) {
          ++result.strategy_retunes;
          if (obs::tracer().enabled()) {
            obs::tracer().instant(
                "sgp_retune",
                {{"round", static_cast<double>(round)},
                 {"slave", static_cast<double>(i)},
                 {"tenure_old", static_cast<double>(record.strategy.tabu_tenure)},
                 {"tenure_new", static_cast<double>(decision.strategy.tabu_tenure)},
                 {"nb_drop_old", static_cast<double>(record.strategy.nb_drop)},
                 {"nb_drop_new", static_cast<double>(decision.strategy.nb_drop)}},
                "kind", to_string(decision.kind));
          }
        }
        record.strategy = decision.strategy;
        record.score = decision.score;
        log.retune = decision.kind;
      }
      log.score_after = record.score;

      // ISP: the next starting solution (CTS1/CTS2); independent threads
      // simply continue from their own best.
      obs::SpanScope isp_span("isp", {{"round", static_cast<double>(round)},
                                      {"slave", static_cast<double>(i)}});
      std::optional<mkp::Solution> own_best;
      if (!record.b_best.empty()) own_best = record.b_best.front();
      mkp::Solution next_initial = mkp::Solution(inst);
      InitKind kind = InitKind::kOwnBest;
      if (config.share_solutions) {
        auto decision = isp.next_initial(own_best, result.best,
                                         record.rounds_unchanged, master_rng);
        next_initial = std::move(decision.initial);
        kind = decision.kind;
        if (kind == InitKind::kGlobalBest) ++result.global_best_injections;
        if (kind == InitKind::kRandom) ++result.random_restarts;
      } else {
        next_initial = own_best ? *own_best : *record.initial;
      }
      if (record.initial && next_initial == *record.initial) {
        ++record.rounds_unchanged;
      } else {
        record.rounds_unchanged = 0;
      }
      record.initial = std::move(next_initial);
      log.init_kind = kind;
      result.timeline.push_back(std::move(log));
    }

    // Pool degradation: a slave whose last `degrade_after_faults` rounds all
    // faulted is retired rather than respawned forever — the run continues
    // on the surviving P-k slaves (§9). Its strategy outlives it when it
    // out-scores the weakest survivor. The last slave always stays.
    if (config.degrade_after_faults > 0) {
      for (std::size_t i = 0; i < config.num_slaves; ++i) {
        auto& record = records[i];
        if (!record.active ||
            record.consecutive_faults < config.degrade_after_faults) {
          continue;
        }
        if (active_count() <= 1) break;
        record.active = false;
        ++result.slaves_retired;
        if (telemetry_on) ++result.counters[obs::Counter::kPoolDegraded];
        if (obs::tracer().enabled()) {
          obs::tracer().instant("pool_degraded",
                                {{"round", static_cast<double>(round)},
                                 {"slave", static_cast<double>(i)},
                                 {"survivors",
                                  static_cast<double>(active_count())}});
        }
        SlaveState* weakest = nullptr;
        for (auto& other : records) {
          if (!other.active) continue;
          if (weakest == nullptr || other.score < weakest->score) {
            weakest = &other;
          }
        }
        if (weakest != nullptr && record.score > weakest->score) {
          weakest->strategy = record.strategy;
          weakest->score = record.score;
        }
      }
    }

    ++result.rounds_completed;
    obs::metrics().counter("master_rounds_total").add();
    obs::metrics()
        .histogram("coop_round_seconds")
        .record(watch.elapsed_seconds() - round_start_seconds);
    if (!config.checkpoint_path.empty() &&
        (round + 1 - first_round) %
                std::max<std::size_t>(1, config.checkpoint_every_rounds) ==
            0) {
      write_checkpoint(round + 1);
    }
  }

  // A final checkpoint when the cadence missed the last executed round, so
  // --resume after an orderly exit (target hit, deadline) starts from the
  // true frontier rather than replaying finished work.
  if (!config.checkpoint_path.empty() &&
      result.rounds_completed > last_checkpoint_round && !result.cancelled) {
    // rounds_completed is carried across restarts, so it equals the index of
    // the next unexecuted round.
    write_checkpoint(result.rounds_completed);
  }

  // Export the end-of-run slave records so a warm-start store can persist
  // them; `records` has no further reader past this point.
  result.final_slaves = std::move(records);
  // Whole-run wall time: a resumed run reports the original run's elapsed
  // seconds plus its own, matching the carried aggregate counters.
  result.seconds = time_offset + watch.elapsed_seconds();
  return result;
}

}  // namespace pts::parallel
