#include "tabu/engine.hpp"

#include <algorithm>

#include "bounds/greedy.hpp"
#include "obs/trace.hpp"
#include "tabu/diversify.hpp"
#include "tabu/history.hpp"
#include "tabu/rem.hpp"
#include "tabu/reactive.hpp"
#include "tabu/tabu_list.hpp"
#include "util/check.hpp"
#include "util/timer.hpp"

namespace pts::tabu {

namespace {

/// Bundles the per-run state so the nested loops below stay readable.
class Run {
 public:
  Run(const mkp::Instance& inst, const mkp::Solution& initial, const TsParams& params,
      Rng& rng, TsTrace* trace)
      : inst_(inst),
        params_(params),
        rng_(rng),
        trace_(trace),
        kernel_(inst),
        tabu_(inst.num_items()),
        history_(inst.num_items()),
        elite_(params.b_best),
        x_(initial),
        result_{mkp::Solution(inst)} {
    PTS_CHECK_MSG(params.max_moves > 0 || params.time_limit_seconds > 0.0,
                  "the run must be bounded by moves or time");
    PTS_CHECK(params.strategy.nb_drop >= 1);
    deadline_ = params.time_limit_seconds > 0.0
                    ? Deadline::after_seconds(params.time_limit_seconds)
                    : Deadline::unbounded();
    if (params.tenure_control == TenureControl::kReverseElimination) {
      rem_.emplace(inst.num_items());
    } else if (params.tenure_control == TenureControl::kReactive) {
      reactive_.emplace(params.strategy.tabu_tenure);
    }

    // Normalize the start: feasible and maximal.
    if (!x_.is_feasible()) bounds::repair_to_feasible(x_);
    bounds::greedy_fill(x_);
    record_candidate(x_);
    if (trace_) trace_->on_start(x_.value());
  }

  TsResult finish() && {
    result_.elite = elite_.solutions();
    result_.seconds = watch_.elapsed_seconds();
    if (telemetry_on_) {
      // Fold the kernel-level tallies (kept in MoveStats for the ablation
      // reports) into the uniform counter block so downstream merging only
      // has to deal with obs::Counters.
      auto& c = result_.counters;
      c[obs::Counter::kDrops] += result_.move_stats.drops;
      c[obs::Counter::kAdds] += result_.move_stats.adds;
      c[obs::Counter::kForcedDrops] += result_.move_stats.forced_drops;
      c[obs::Counter::kTabuRejections] += result_.move_stats.tabu_blocked_adds;
      c[obs::Counter::kAspirationAccepts] += result_.move_stats.aspiration_hits;
    }
    result_.final_tenure = reactive_ ? reactive_->current_tenure()
                                     : params_.strategy.tabu_tenure;
    if (rem_) result_.rem_flips_scanned = rem_->flips_scanned_total();
    if (reactive_) {
      result_.reactive_repetitions = reactive_->repetitions();
      result_.reactive_escapes = reactive_->escapes_triggered();
    }
    return std::move(result_);
  }

  void execute() {
    std::size_t div_round = 0;
    do {
      for (std::size_t d = 0; d < params_.nb_div; ++d, ++div_round) {
        if (trace_) trace_->on_outer_round(div_round);
        for (std::size_t int_round = 0; int_round < params_.nb_int; ++int_round) {
          if (trace_) trace_->on_inner_round(div_round, int_round);
          local_search_loop();
          if (stopped()) return;
          intensification_phase();
          if (stopped()) return;
        }
        diversification_phase();
        if (stopped()) return;
      }
    } while (params_.run_to_budget);
  }

 private:
  [[nodiscard]] bool stopped() {
    if (result_.reached_target) return true;
    if (params_.max_moves > 0 && result_.moves >= params_.max_moves) return true;
    if (deadline_.expired()) return true;
    if (params_.cancel.stop_requested()) return true;
    return false;
  }

  void record_candidate(const mkp::Solution& candidate) {
    elite_.offer(candidate);
    if (candidate.is_feasible() && candidate.value() > result_.best_value) {
      result_.best_value = candidate.value();
      result_.best = candidate;
      result_.improvements.emplace_back(result_.moves, candidate.value());
      if (telemetry_on_) {
        // Source is filled in by whoever owns the run (slave id / peer id);
        // the engine itself does not know which thread of the farm it is.
        result_.anytime.push_back({obs::kGlobalSource, watch_.elapsed_seconds(),
                                   result_.moves, candidate.value()});
      }
      if (params_.target_value && candidate.value() >= *params_.target_value) {
        result_.reached_target = true;
      }
    }
  }

  std::size_t effective_tenure() const {
    return reactive_ ? reactive_->current_tenure() : params_.strategy.tabu_tenure;
  }

  /// Inner loop: Drop/Add moves until Nb_local moves pass without improving
  /// the global best (Figure 1, lines 4-10).
  void local_search_loop() {
    mkp::Solution x_local = x_;
    std::size_t since_improvement = 0;
    while (since_improvement < params_.strategy.nb_local) {
      if (stopped()) return;
      ++result_.moves;
      if (telemetry_on_) ++result_.counters[obs::Counter::kMovesTried];
      const std::uint64_t iter = result_.moves;

      const auto outcome = kernel_.apply(x_, tabu_, iter, params_.strategy,
                                         effective_tenure(), result_.best_value, rng_,
                                         result_.move_stats);

      if (rem_) {
        rem_->record_move(outcome.flipped);
        rem_->compute_forbidden();
        // Forbid the single-flip reversals during exactly the next move
        // (expiry iter + 2 > iter + 1 holds only for iteration iter + 1).
        for (std::size_t j = 0; j < inst_.num_items(); ++j) {
          if (rem_->is_forbidden(j)) {
            tabu_.forbid_add(j, iter, 2);
            tabu_.forbid_drop(j, iter, 2);
          }
        }
      }
      if (reactive_) {
        reactive_->on_solution(x_.hash(), iter);
        if (reactive_->consume_escape()) escape_kick();
      }

      history_.record(x_);

      const double previous_best = result_.best_value;
      record_candidate(x_);
      const bool improved_best = result_.best_value > previous_best;
      if (telemetry_on_ && improved_best) {
        ++result_.counters[obs::Counter::kMovesImproved];
      }
      if (trace_) trace_->on_move(iter, x_.value(), improved_best);

      if (improved_best) {
        x_local = x_;
        since_improvement = 0;
      } else {
        if (x_.value() > x_local.value()) x_local = x_;
        ++since_improvement;
      }
    }
    x_ = x_local;  // intensification works from the loop's best solution
  }

  /// Figure 1, line 11: Intensification(X_local, X*).
  void intensification_phase() {
    const double value_before = x_.value();
    switch (params_.intensification) {
      case IntensificationKind::kNone:
        break;
      case IntensificationKind::kSwap:
        swap_intensify(x_, &result_.intensify_stats);
        break;
      case IntensificationKind::kStrategicOscillation:
        oscillation_intensify(x_, params_.oscillation_depth, rng_,
                              &result_.intensify_stats);
        break;
    }
    ++result_.intensifications;
    if (telemetry_on_) {
      ++result_.counters[obs::Counter::kIntensifications];
      if (params_.intensification == IntensificationKind::kStrategicOscillation) {
        ++result_.counters[obs::Counter::kOscillations];
      }
    }
    record_candidate(x_);
    if (trace_) {
      trace_->on_intensification(params_.intensification, value_before, x_.value());
    }
  }

  /// Figure 1, line 12: Diversification(History, X).
  void diversification_phase() {
    DiversifyConfig config;
    config.high_frequency = params_.high_frequency;
    config.low_frequency = params_.low_frequency;
    config.hold = params_.diversify_hold;
    const auto outcome = diversify(x_, history_, config, tabu_, result_.moves);
    ++result_.diversifications;
    if (telemetry_on_) {
      ++result_.counters[obs::Counter::kDiversifications];
      if (obs::tracer().enabled()) {
        obs::tracer().instant("diversify",
                              {{"forced_in", static_cast<double>(outcome.forced_in)},
                               {"forced_out", static_cast<double>(outcome.forced_out)}});
      }
    }
    record_candidate(x_);
    if (trace_) trace_->on_diversification(outcome.forced_in, outcome.forced_out);
  }

  /// Reactive escape: drop a random chunk of the solution and refill —
  /// Battiti's randomized kick out of an attractor.
  void escape_kick() {
    const std::size_t card = x_.cardinality();
    if (card == 0) return;
    auto selected = x_.selected_items();
    rng_.shuffle(selected);
    const std::size_t kick = 1 + rng_.index(std::max<std::size_t>(1, card / 3));
    for (std::size_t k = 0; k < kick && k < selected.size(); ++k) {
      x_.drop(selected[k]);
      tabu_.forbid_add(selected[k], result_.moves, effective_tenure());
    }
    bounds::greedy_fill(x_);
  }

  const mkp::Instance& inst_;
  const TsParams& params_;
  Rng& rng_;
  TsTrace* trace_;
  MoveKernel kernel_;
  TabuList tabu_;
  FrequencyMemory history_;
  ElitePool elite_;
  std::optional<ReverseElimination> rem_;
  std::optional<ReactiveTenure> reactive_;
  mkp::Solution x_;
  TsResult result_;
  Deadline deadline_;
  Stopwatch watch_;
  // Telemetry: one runtime check per run, not per move. The CounterScope
  // binds the thread-local sink that kernels.cpp / moves.cpp bump through to
  // this run's counter block (members initialize in declaration order, so
  // result_ exists by the time the scope captures its address).
  const bool telemetry_on_ = obs::telemetry_enabled();
  obs::CounterScope counter_scope_{telemetry_on_ ? &result_.counters : nullptr};
};

}  // namespace

TsResult tabu_search(const mkp::Instance& inst, const mkp::Solution& initial,
                     const TsParams& params, Rng& rng, TsTrace* trace) {
  PTS_CHECK(&initial.instance() == &inst);
  Run run(inst, initial, params, rng, trace);
  run.execute();
  return std::move(run).finish();
}

TsResult tabu_search_from_scratch(const mkp::Instance& inst, const TsParams& params,
                                  Rng& rng, TsTrace* trace) {
  const auto initial = bounds::greedy_randomized(inst, rng);
  return tabu_search(inst, initial, params, rng, trace);
}

}  // namespace pts::tabu
