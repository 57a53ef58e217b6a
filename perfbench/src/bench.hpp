#pragma once
// The benchmark's workloads and what one run of a workload reports.

#include <cstdint>
#include <string>
#include <vector>

#include "spans.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  /// Sizes the fixed amount of work a run does (about this many seconds of
  /// measured time on a 4-core x86-64 host); it never stops the work early.
  int seconds = 10;
  /// Traced run: per-layer metrics and the span file instead of the
  /// end-to-end metrics.
  bool trace = false;
  /// Scratch directory for journals and replica files.
  std::string work_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< sample count or provenance, printed beside the value
};

struct Report {
  std::uint64_t attempted = 0;  ///< results checked (solves or jobs)
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< the first few failure reasons
  std::vector<Metric> metrics;      ///< end-to-end, or per-layer when traced
  std::vector<std::string> log;     ///< fixed-work counts and notes

  void fail(const std::string& why);
  void add(std::string name, double value, std::string unit, std::string note = {});
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Runs one workload to completion. Every solution it gets back is checked;
/// failures land in the report, never in an exception.
[[nodiscard]] Report run_workload(const RunOptions& options, SpanLog& spans);

/// Peak resident set of this process plus its largest reaped child, in MiB.
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench
