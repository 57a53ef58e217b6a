// perfbench: runs one workload of the repository benchmark and prints its
// metrics. run.py builds it and passes the driver's arguments through:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: every end-to-end metric, or with
// --trace 1 every per-layer metric. The exit status is 0 only when every
// result the program returned passed its checks.

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.hpp"
#include "obs/counters.hpp"
#include "util/simd.hpp"

namespace {

#ifdef __OPTIMIZE__
constexpr bool kOptimised = true;
#else
constexpr bool kOptimised = false;
#endif

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// Shortest text that reads back as exactly `v`.
std::string number(double v) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc{} ? std::string(buf, end) : "0";
}

int usage(const std::string& why) {
  std::string names;
  for (const auto& name : perfbench::workload_names()) {
    names += names.empty() ? name : "|" + name;
  }
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload <%s> --seed <n> --seconds <s> "
               "--trace <0|1> [--work-dir <dir>]\n",
               why.c_str(), names.c_str());
  return 2;
}

bool parse_u64(const std::string& text, std::uint64_t& out) {
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), out);
  return ec == std::errc{} && end == text.data() + text.size();
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  options.work_dir = ".bench_build/perfbench/work";
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  if (argc % 2 == 0) return usage("every flag takes a value");
  for (int a = 1; a + 1 < argc; a += 2) {
    const std::string flag = argv[a];
    const std::string value = argv[a + 1];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed" && parse_u64(value, n)) {
      options.seed = n;
      have_seed = true;
    } else if (flag == "--seconds" && parse_u64(value, n) && n >= 1 && n <= 600) {
      options.seconds = static_cast<int>(n);
      have_seconds = true;
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      options.trace = value == "1";
      have_trace = true;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return usage("bad flag or value: " + flag + " " + value);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }
  const auto& names = perfbench::workload_names();
  if (std::find(names.begin(), names.end(), options.workload) == names.end()) {
    return usage("unknown workload " + options.workload);
  }
  if (!kOptimised) {
    std::fprintf(stderr, "perfbench: refusing to time a build without optimisation (%s)\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s: %s\n", options.work_dir.c_str(),
                 ec.message().c_str());
    return 2;
  }

  std::printf(
      "stamp {\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%d,\"trace\":%d,"
      "\"nproc\":%u,\"compiler\":\"%s\",\"build_type\":\"%s\",\"git_sha\":\"%s\","
      "\"simd\":\"%s\",\"telemetry\":\"%s\"}\n",
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      options.seconds, options.trace ? 1 : 0, std::thread::hardware_concurrency(),
      compiler().c_str(), PERFBENCH_BUILD_TYPE, PERFBENCH_GIT_SHA,
      pts::simd::to_string(pts::simd::active()),
      pts::obs::kTelemetryCompiled && pts::obs::telemetry_enabled() ? "on" : "off");
  std::fflush(stdout);

  perfbench::SpanLog spans(options.trace);
  auto report = perfbench::run_workload(options, spans);
  if (report.attempted == 0) report.fail("the workload checked no result");
  if (options.trace) {
    report.add("trace.spans", static_cast<double>(spans.size()), "count");
    const std::string path = options.work_dir + "/spans-" + options.workload + "-seed" +
                             std::to_string(options.seed) + ".json";
    if (spans.write(path)) {
      std::printf("spans written to %s\n", path.c_str());
    } else {
      report.fail("cannot write " + path);
    }
  } else {
    const auto ok = static_cast<double>(report.attempted - std::min(report.failed, report.attempted));
    report.add("ok_pct", 100.0 * ok / static_cast<double>(report.attempted), "%",
               std::to_string(report.failed) + " of " + std::to_string(report.attempted) +
                   " failed");
    report.add("peak_rss_mb", perfbench::peak_rss_mb(), "MB", "self + largest child");
  }

  for (const auto& line : report.log) std::printf("log %s\n", line.c_str());
  for (const auto& error : report.errors) {
    std::printf("FAIL %s\n", error.c_str());
    std::fprintf(stderr, "perfbench: FAIL %s\n", error.c_str());
  }
  std::string metrics;
  for (const auto& m : report.metrics) {
    std::printf("metric %-28s %16s %-6s %s\n", m.name.c_str(), number(m.value).c_str(),
                m.unit.c_str(), m.note.c_str());
    metrics += metrics.empty() ? "" : ", ";
    metrics += "\"" + m.name + "\": {\"value\": " + number(m.value) + ", \"unit\": \"" +
               m.unit + "\"}";
  }
  const bool correct = report.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed), metrics.c_str());
  return correct ? 0 : 1;
}
