// Schema validation of an emitted trace: run a real CTS2 search with tracing
// on, write the Chrome trace + JSONL through TelemetrySession, then re-parse
// the files and assert the contract a viewer (Perfetto) and ad-hoc scripts
// rely on — required keys, per-thread monotone timestamps, and the expected
// cooperation events (gather / sgp / isp spans, at least one retune).
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "mkp/generator.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "parallel/runner.hpp"

namespace pts::obs {
namespace {

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(static_cast<bool>(in)) << "cannot open " << path;
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// Extracts the integer value of `"key":<int>` from one event line.
std::int64_t int_field(const std::string& line, const std::string& key) {
  const auto tag = "\"" + key + "\":";
  const auto at = line.find(tag);
  EXPECT_NE(at, std::string::npos) << "missing " << tag << " in: " << line;
  if (at == std::string::npos) return 0;
  return std::stoll(line.substr(at + tag.size()));
}

bool has_field(const std::string& line, const std::string& key) {
  return line.find("\"" + key + "\":") != std::string::npos;
}

std::size_t count_events(const std::vector<std::string>& lines,
                         const std::string& name) {
  std::size_t n = 0;
  for (const auto& line : lines) {
    if (line.find("\"name\":\"" + name + "\"") != std::string::npos) ++n;
  }
  return n;
}

TEST(TraceSchema, Cts2TraceSatisfiesTheContract) {
  const std::string path = ::testing::TempDir() + "pts_schema_trace.json";

  const auto inst = mkp::generate_gk({.num_items = 40, .num_constraints = 4}, 77);
  {
    TelemetryOptions options;
    options.trace_path = path;
    TelemetrySession session(options);

    parallel::ParallelConfig config;
    config.mode = parallel::CooperationMode::kCooperativeAdaptive;  // CTS2
    config.num_slaves = 2;
    config.search_iterations = 4;
    config.work_per_slave_round = 300;
    config.base_params.strategy.nb_local = 10;
    config.seed = 77;
    // Any non-improving round must retune so the trace carries the event.
    config.sgp.initial_score = 1;
    const auto result = parallel::run_parallel_tabu_search(inst, config);
    EXPECT_GT(result.master.strategy_retunes, 0U)
        << "run produced no retune; the trace cannot contain sgp_retune";
    ASSERT_TRUE(session.finalize());
  }

  // --- Chrome trace file ------------------------------------------------
  const auto lines = read_lines(path);
  ASSERT_GE(lines.size(), 3U);
  EXPECT_EQ(lines.front(), "{\"traceEvents\":[");
  EXPECT_EQ(lines.back(), "]}");

  std::vector<std::string> events(lines.begin() + 1, lines.end() - 1);
  ASSERT_FALSE(events.empty());
  std::map<std::int64_t, std::int64_t> last_ts_per_tid;
  for (auto event : events) {
    if (event.back() == ',') event.pop_back();
    ASSERT_FALSE(event.empty());
    EXPECT_EQ(event.front(), '{');
    EXPECT_EQ(event.back(), '}');
    // Required keys.
    EXPECT_TRUE(has_field(event, "name")) << event;
    EXPECT_TRUE(has_field(event, "ph")) << event;
    EXPECT_TRUE(has_field(event, "ts")) << event;
    EXPECT_TRUE(has_field(event, "pid")) << event;
    EXPECT_TRUE(has_field(event, "tid")) << event;
    EXPECT_EQ(int_field(event, "pid"), 1);
    // Per-thread timestamps are monotone in file order.
    const auto tid = int_field(event, "tid");
    const auto ts = int_field(event, "ts");
    EXPECT_GE(ts, 0);
    auto it = last_ts_per_tid.find(tid);
    if (it != last_ts_per_tid.end()) {
      EXPECT_GE(ts, it->second) << "timestamps regressed for tid " << tid;
    }
    last_ts_per_tid[tid] = ts;
  }

  // The cooperation story must be visible: the master's phases, at least one
  // per-slave search span, and at least one strategy retune instant.
  EXPECT_GE(count_events(events, "scatter"), 1U);
  EXPECT_GE(count_events(events, "gather"), 1U);
  EXPECT_GE(count_events(events, "sgp"), 1U);
  EXPECT_GE(count_events(events, "isp"), 1U);
  EXPECT_GE(count_events(events, "slave_ts_round"), 1U);
  EXPECT_GE(count_events(events, "sgp_retune"), 1U);
  // Master is tid 0 and slaves occupy tids >= 1.
  EXPECT_TRUE(last_ts_per_tid.count(0));
  EXPECT_GE(last_ts_per_tid.size(), 2U);

  // --- JSONL sidecar ----------------------------------------------------
  const auto jsonl = read_lines(path + ".jsonl");
  EXPECT_EQ(jsonl.size(), events.size());
  for (const auto& line : jsonl) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_TRUE(has_field(line, "name")) << line;
    EXPECT_TRUE(has_field(line, "ph")) << line;
    EXPECT_TRUE(has_field(line, "ts")) << line;
    EXPECT_TRUE(has_field(line, "tid")) << line;
  }

  // A retune instant names its kind and both strategy knobs, old and new.
  bool saw_retune_args = false;
  for (const auto& line : jsonl) {
    if (line.find("\"name\":\"sgp_retune\"") == std::string::npos) continue;
    EXPECT_TRUE(has_field(line, "tenure_old")) << line;
    EXPECT_TRUE(has_field(line, "tenure_new")) << line;
    EXPECT_TRUE(has_field(line, "nb_drop_old")) << line;
    EXPECT_TRUE(has_field(line, "nb_drop_new")) << line;
    EXPECT_TRUE(has_field(line, "kind")) << line;
    saw_retune_args = true;
  }
  EXPECT_TRUE(saw_retune_args);
}

TEST(TraceSchema, SessionWithoutTracePathWritesNothing) {
  TelemetryOptions options;  // no trace_path
  options.metrics = true;
  TelemetrySession session(options);
  EXPECT_FALSE(session.tracing());
  EXPECT_TRUE(session.metrics());
  EXPECT_FALSE(tracer().enabled());
  EXPECT_TRUE(session.finalize());
}

}  // namespace
}  // namespace pts::obs
