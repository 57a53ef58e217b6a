#pragma once
// Named metrics registry + exporter (DESIGN.md §6): the run-wide,
// pull-anytime complement to the per-(slave, round) counter taxonomy in
// counters.hpp. Counters there are a fixed enum riding inside Reports; the
// registry here is open-ended — any subsystem registers a named counter,
// gauge or latency histogram at first use and holds the returned reference
// (handles are stable for the registry's lifetime, including across
// reset_values()).
//
//   obs::metrics().counter("service_submitted_total").add();
//   obs::metrics().gauge("service_queue_depth").set(queue.size());
//   obs::metrics().histogram("job_run_seconds").record(seconds);
//
// Recording respects the same global kill switch as the counter sinks
// (obs::set_telemetry_enabled): one relaxed atomic load when disabled, so
// instrumentation stays in place permanently and bench_observability keeps
// the ≤2% overhead claim honest.
//
// Exporters: Prometheus text exposition (write_prometheus; histograms as
// quantile summaries) and JSONL (write_jsonl, one metric per line) — the
// TelemetrySession's --metrics-out writer drives both. For the proc backend,
// workers drain their registry into TelemetryChunk counter deltas
// (drain_counter_deltas) and the supervisor folds them into the master's
// registry (apply_counter_delta), so one snapshot covers the whole process
// tree.

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/counters.hpp"  // telemetry_enabled() kill switch
#include "util/histogram.hpp"

namespace pts::obs {

/// Monotonic event count. Cross-thread safe (relaxed atomic — totals are
/// exact, ordering against other metrics is not promised).
class MetricCounter {
 public:
  void add(std::uint64_t n = 1) {
    if (telemetry_enabled()) value_.fetch_add(n, std::memory_order_relaxed);
  }
  /// Unconditional add, bypassing the kill switch — for folding deltas that
  /// were already recorded elsewhere (worker chunks), never for new events.
  void add_raw(std::uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value (queue depth, breaker state, ...).
class MetricGauge {
 public:
  void set(double v) {
    if (telemetry_enabled()) value_.store(v, std::memory_order_relaxed);
  }
  [[nodiscard]] double value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Mutex-guarded LogHistogram: recorded on latency-shaped paths (per round /
/// per job / per frame, never per move), so contention is negligible.
class MetricHistogram {
 public:
  void record(double value) {
    if (!telemetry_enabled()) return;
    std::scoped_lock lock(mutex_);
    hist_.record(value);
  }
  [[nodiscard]] LogHistogram snapshot() const {
    std::scoped_lock lock(mutex_);
    return hist_;
  }
  void reset() {
    std::scoped_lock lock(mutex_);
    hist_.reset();
  }

 private:
  mutable std::mutex mutex_;
  LogHistogram hist_;
};

class MetricsRegistry {
 public:
  /// Get-or-create by name. The returned reference is stable for the
  /// registry's lifetime; call sites cache it (function-local static or
  /// member) so steady-state recording never touches the registry map.
  MetricCounter& counter(std::string_view name);
  MetricGauge& gauge(std::string_view name);
  MetricHistogram& histogram(std::string_view name);

  /// Prometheus text exposition: `pts_<name>` with # TYPE headers;
  /// histograms export as summaries (quantile="0.5|0.9|0.99" + _sum/_count).
  void write_prometheus(std::ostream& out) const;
  /// One JSON object per metric per line; histograms carry
  /// count/sum/min/max/p50/p90/p99.
  void write_jsonl(std::ostream& out) const;
  /// Histogram table as CSV (report_io latency file):
  /// name,count,sum,min,max,p50,p90,p99.
  void write_histogram_csv(std::ostream& out) const;

  struct CounterDelta {
    std::string name;
    std::uint64_t delta;
  };
  /// Per-counter increase since the previous drain (worker → chunk path).
  /// Counters with no growth are omitted.
  [[nodiscard]] std::vector<CounterDelta> drain_counter_deltas();
  /// Fold a drained delta into this registry (supervisor ← chunk path).
  void apply_counter_delta(std::string_view name, std::uint64_t delta);

  /// Zero every value but keep all entries, so cached handles stay valid
  /// (tests and bench isolate runs this way).
  void reset_values();

  /// True when at least one histogram has recorded a sample — the report_io
  /// writer skips the latency CSV otherwise.
  [[nodiscard]] bool has_histogram_samples() const;

 private:
  mutable std::mutex mutex_;
  // Node-based maps: values never move, so handed-out references survive
  // later insertions. std::less<> enables string_view lookup.
  std::map<std::string, std::unique_ptr<MetricCounter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<MetricGauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<MetricHistogram>, std::less<>> histograms_;
  std::map<std::string, std::uint64_t, std::less<>> drained_totals_;
};

/// The process-wide registry every instrumentation site records into.
MetricsRegistry& metrics();

}  // namespace pts::obs
