#include "obs/telemetry.hpp"

#include <chrono>
#include <cstdio>
#include <fstream>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"

namespace pts::obs {

namespace {

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

bool write_metrics_snapshot_file(const std::string& path) {
  // tmp + rename so a concurrent scraper (or a kill mid-write) never sees a
  // torn snapshot. Metrics are best-effort observability, not durable state,
  // so no fsync — the journal/snapshot discipline stays where it matters.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp);
    if (!out) return false;
    if (ends_with(path, ".jsonl")) {
      metrics().write_jsonl(out);
    } else {
      metrics().write_prometheus(out);
    }
    if (!out) return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

TelemetryOptions TelemetryOptions::from_cli(const CliArgs& args) {
  TelemetryOptions options;
  options.trace_path = args.get_string("trace-out", "");
  options.metrics = args.get_bool("metrics", false);
  options.metrics_out_path = args.get_string("metrics-out", "");
  options.metrics_every_seconds = args.get_double("metrics-every", 0.0);
  if (args.has("log-level")) {
    const auto name = args.get_string("log-level", "");
    if (const auto level = parse_log_level(name)) {
      set_log_level(*level);
    } else {
      std::fprintf(stderr,
                   "unknown --log-level '%s' (want debug|info|warn|error|off); "
                   "keeping the current threshold\n",
                   name.c_str());
    }
  }
  return options;
}

TelemetrySession::TelemetrySession(TelemetryOptions options)
    : options_(std::move(options)) {
  if (tracing()) {
    tracer().clear();
    tracer().set_enabled(true);
  }
  if (!options_.metrics_out_path.empty() && options_.metrics_every_seconds > 0) {
    writer_ = std::thread([this] {
      const auto period = std::chrono::duration<double>(
          options_.metrics_every_seconds);
      std::unique_lock lock(writer_mutex_);
      while (!writer_cv_.wait_for(lock, period, [this] { return writer_stop_; })) {
        lock.unlock();
        write_metrics_snapshot();
        lock.lock();
      }
    });
  }
}

TelemetrySession::~TelemetrySession() { finalize(); }

bool TelemetrySession::write_metrics_snapshot() {
  if (options_.metrics_out_path.empty()) return true;
  if (!write_metrics_snapshot_file(options_.metrics_out_path)) {
    std::fprintf(stderr, "cannot write metrics snapshot to %s\n",
                 options_.metrics_out_path.c_str());
    return false;
  }
  return true;
}

void TelemetrySession::stop_periodic_writer() {
  if (!writer_.joinable()) return;
  {
    std::scoped_lock lock(writer_mutex_);
    writer_stop_ = true;
  }
  writer_cv_.notify_all();
  writer_.join();
}

bool TelemetrySession::finalize() {
  if (finalized_) return true;
  finalized_ = true;
  stop_periodic_writer();
  bool metrics_ok = true;
  if (!options_.metrics_out_path.empty()) {
    metrics_ok = write_metrics_snapshot();
    if (metrics_ok) {
      std::fprintf(stderr, "metrics snapshot written: %s\n",
                   options_.metrics_out_path.c_str());
    }
  }
  if (!tracing()) return metrics_ok;
  tracer().set_enabled(false);
  bool ok = true;
  {
    std::ofstream out(options_.trace_path);
    if (out) {
      tracer().write_chrome_trace(out);
    } else {
      std::fprintf(stderr, "cannot write trace to %s\n", options_.trace_path.c_str());
      ok = false;
    }
  }
  const std::string jsonl_path = options_.trace_path + ".jsonl";
  {
    std::ofstream out(jsonl_path);
    if (out) {
      tracer().write_jsonl(out);
    } else {
      std::fprintf(stderr, "cannot write event stream to %s\n", jsonl_path.c_str());
      ok = false;
    }
  }
  if (ok) {
    std::fprintf(stderr,
                 "trace written: %s (%zu events; open in ui.perfetto.dev), "
                 "events: %s\n",
                 options_.trace_path.c_str(), tracer().size(), jsonl_path.c_str());
  }
  return ok && metrics_ok;
}

void print_counter_report(std::FILE* out, const CounterStats& stats) {
  std::fprintf(out, "%-20s %14s", "counter", "total");
  if (stats.snapshots() > 1) {
    std::fprintf(out, " %12s %12s %12s  (over %zu snapshots)", "mean", "min", "max",
                 stats.snapshots());
  }
  std::fputc('\n', out);
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    const auto c = static_cast<Counter>(i);
    std::fprintf(out, "%-20s %14llu", counter_name(c),
                 static_cast<unsigned long long>(stats.totals()[c]));
    if (stats.snapshots() > 1) {
      const auto& s = stats.stats(c);
      std::fprintf(out, " %12.1f %12.0f %12.0f", s.mean(), s.min(), s.max());
    }
    std::fputc('\n', out);
  }
}

void print_counter_report(std::FILE* out, const Counters& counters) {
  CounterStats stats;
  stats.observe(counters);
  print_counter_report(out, stats);
}

}  // namespace pts::obs
