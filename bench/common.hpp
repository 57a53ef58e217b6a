#pragma once
// Shared scaffolding for the benchmark drivers. Every driver reproduces one
// table/figure/ablation from DESIGN.md's experiment index and prints a
// paper-style table; a `--quick` flag shrinks workloads for smoke runs and
// `--csv` switches the output format for downstream plotting.

#include <cstdint>
#include <memory>
#include <string>

#include "mkp/instance.hpp"
#include "obs/telemetry.hpp"
#include "parallel/runner.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace pts::bench {

/// Workload scale shared by the drivers.
struct BenchOptions {
  bool quick = false;  ///< shrink instance sizes / budgets for smoke runs
  bool csv = false;
  std::uint64_t seed = 20260707;

  /// Telemetry session behind the shared --log-level / --trace-out /
  /// --metrics flags. from_cli always creates it (shared_ptr because
  /// BenchOptions is passed by value); the trace file is written when the
  /// last copy goes out of scope at the end of main.
  std::shared_ptr<obs::TelemetrySession> telemetry;

  static BenchOptions from_cli(int argc, const char* const* argv);

  [[nodiscard]] bool metrics() const { return telemetry && telemetry->metrics(); }

  /// Scales a work budget: quick mode divides by 8.
  [[nodiscard]] std::uint64_t work(std::uint64_t full) const {
    return quick ? std::max<std::uint64_t>(100, full / 8) : full;
  }
};

/// A CTS2 configuration with the repo-wide benchmark defaults.
parallel::ParallelConfig default_cts2(std::uint64_t seed, std::size_t slaves = 4,
                                      std::size_t rounds = 3,
                                      std::uint64_t work_per_round = 3000);

/// Prints a titled table in the selected format, preceded by a header line
/// identifying the experiment (id from DESIGN.md's index).
void emit(const BenchOptions& options, const std::string& experiment_id,
          const std::string& title, const TextTable& table,
          const std::string& footnote = "");

/// % deviation of `achieved` below the tightest available reference bound:
/// the exact optimum when the instance is small enough for branch & bound to
/// prove it within `exact_node_cap` nodes (no time limit, so the reference
/// does not depend on the machine), else the LP-relaxation bound. Returns
/// the label of the reference used through `reference_kind`.
double reference_gap_percent(const mkp::Instance& inst, double achieved,
                             std::uint64_t exact_node_cap, std::string* reference_kind);

}  // namespace pts::bench
