// Ablation A8 — tightness hardness profile on the Chu–Beasley-style grid
// (the field's standard suite after 1998, same GK construction crossed with
// tightness in {0.25, 0.5, 0.75}). The classic finding this bench
// regenerates: tighter instances (smaller capacity fraction) carry larger
// LP gaps and are harder for heuristics, and the gap narrows as tightness
// grows. Forward-compares the reproduction against the later literature's
// workload.
#include "common.hpp"

#include "mkp/suites.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace pts;
  const auto options = bench::BenchOptions::from_cli(argc, argv);

  mkp::ChuBeasleyConfig suite_config;
  suite_config.constraint_counts = {5, 10};
  suite_config.item_counts = {100, 250};
  suite_config.instances_per_class = 1;
  suite_config.size_scale = options.quick ? 0.25 : 1.0;
  const auto classes = mkp::generate_chu_beasley(options.seed, suite_config);

  TextTable table({"class", "tightness", "CTS2 best", "LP gap (%)", "time (s)"});
  for (const auto& cls : classes) {
    RunningStats gaps;
    RunningStats values;
    double seconds = 0.0;
    for (const auto& inst : cls.instances) {
      Stopwatch watch;
      auto config = bench::default_cts2(options.seed, 4, 4, options.work(4000));
      const auto result = parallel::run_parallel_tabu_search(inst, config);
      seconds += watch.elapsed_seconds();
      values.add(result.best_value);
      std::string kind;
      gaps.add(bench::reference_gap_percent(inst, result.best_value, 0, &kind));
    }
    table.add_row({cls.label, TextTable::fmt(cls.tightness, 2),
                   TextTable::fmt(values.mean(), 1), TextTable::fmt(gaps.mean(), 2),
                   TextTable::fmt(seconds, 2)});
  }

  bench::emit(options, "Ablation A8",
              "tightness hardness profile on the Chu–Beasley-style grid", table,
              "shape: within each (m, n) block the LP gap shrinks as tightness "
              "grows (looser capacities admit more items, diluting the "
              "integrality gap); m raises the gap across the board.");
  return 0;
}
