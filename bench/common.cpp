#include "common.hpp"

#include <cstdio>

#include "bounds/simplex.hpp"
#include "exact/branch_and_bound.hpp"
#include "util/stats.hpp"

namespace pts::bench {

BenchOptions BenchOptions::from_cli(int argc, const char* const* argv) {
  const auto args = CliArgs::parse(argc, argv);
  BenchOptions options;
  options.quick = args.get_bool("quick", false);
  options.csv = args.get_bool("csv", false);
  options.seed = static_cast<std::uint64_t>(args.get_int("seed", 20260707));
  options.telemetry =
      std::make_shared<obs::TelemetrySession>(obs::TelemetryOptions::from_cli(args));
  return options;
}

parallel::ParallelConfig default_cts2(std::uint64_t seed, std::size_t slaves,
                                      std::size_t rounds,
                                      std::uint64_t work_per_round) {
  parallel::ParallelConfig config;
  config.mode = parallel::CooperationMode::kCooperativeAdaptive;
  config.num_slaves = slaves;
  config.search_iterations = rounds;
  config.work_per_slave_round = work_per_round;
  config.base_params.strategy.nb_local = 25;
  config.mix_intensification = true;
  config.seed = seed;
  return config;
}

void emit(const BenchOptions& options, const std::string& experiment_id,
          const std::string& title, const TextTable& table,
          const std::string& footnote) {
  std::printf("== %s — %s%s ==\n", experiment_id.c_str(), title.c_str(),
              options.quick ? " (quick)" : "");
  std::fputs(options.csv ? table.render_csv().c_str() : table.render().c_str(), stdout);
  if (!footnote.empty()) std::printf("note: %s\n", footnote.c_str());
  std::printf("\n");
}

double reference_gap_percent(const mkp::Instance& inst, double achieved,
                             std::uint64_t exact_node_cap,
                             std::string* reference_kind) {
  if (inst.num_items() <= 60 && exact_node_cap > 0) {
    exact::BnbOptions options;
    options.time_limit_seconds = 0.0;
    options.node_limit = exact_node_cap;
    const auto result = exact::branch_and_bound(inst, options);
    if (result.proven_optimal) {
      if (reference_kind) *reference_kind = "opt";
      return deviation_percent(achieved, result.objective);
    }
  }
  const auto lp = bounds::solve_lp_relaxation(inst);
  if (reference_kind) *reference_kind = "LP";
  return deviation_percent(achieved, lp.objective);
}

}  // namespace pts::bench
