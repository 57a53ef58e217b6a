#pragma once
// Event tracer (DESIGN.md "Observability"): timestamped spans, instants and
// counter samples from the master, the slaves and the async peers, exported
// as Chrome trace-event JSON (open chrome://tracing or https://ui.perfetto.dev
// and drop the file in) and as a flat JSONL stream for ad-hoc scripting.
//
// Tracing is OFF by default. Every recording call starts with one relaxed
// atomic load; when disabled nothing else happens, so instrumentation can
// stay in place permanently (bench_observability keeps that claim honest).
// When enabled, events go into one mutex-protected buffer — trace events are
// per-phase, not per-move, so contention is negligible next to the search.
//
// Event names must be string literals (the tracer stores the pointer).
// Thread identity is a small logical id (master = 0, slave/peer i = i + 1)
// bound via TidScope, not the OS thread id — deterministic across runs and
// readable in Perfetto.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

#include "obs/counters.hpp"

namespace pts::obs {

/// One numeric argument attached to an event. Keys must be string literals.
struct TraceArg {
  const char* key;
  double value;
};

struct TraceEvent {
  const char* name = "";
  char phase = 'i';          ///< 'X' span, 'i' instant, 'C' counter, 'M' metadata
  std::uint32_t tid = 0;
  std::int64_t ts_us = 0;    ///< microseconds since the tracer epoch
  std::int64_t dur_us = 0;   ///< spans only
  std::vector<TraceArg> args;
  const char* detail_key = nullptr;  ///< optional string arg (e.g. "kind")
  std::string detail;
  /// Logical process (master = 1, merged proc worker i = 2+i). Trails the
  /// aggregate so pre-merge brace-init call sites stay valid.
  std::uint32_t pid = 1;
};

/// Interns a dynamic string into process-lifetime storage and returns a
/// stable pointer, so strings that arrive over the wire (worker trace-event
/// names in TelemetryChunks) can flow through TraceEvent's literal-pointer
/// fields. The set only grows — names are drawn from a small fixed
/// vocabulary of instrumentation sites, not from payload data.
[[nodiscard]] const char* intern_name(std::string_view name);

/// Logical trace id of the calling thread (0 unless a TidScope is active).
[[nodiscard]] std::uint32_t thread_tid();

/// Binds a logical tid to the calling thread for the scope's lifetime.
class TidScope {
 public:
  explicit TidScope(std::uint32_t tid);
  ~TidScope();
  TidScope(const TidScope&) = delete;
  TidScope& operator=(const TidScope&) = delete;

 private:
  std::uint32_t previous_;
};

class Tracer {
 public:
  /// Enabling also (re)starts the epoch when the buffer is empty.
  void set_enabled(bool enabled);
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Microseconds since the tracer epoch (monotonic clock).
  [[nodiscard]] std::int64_t now_us() const;

  void instant(const char* name, std::initializer_list<TraceArg> args = {},
               const char* detail_key = nullptr, std::string detail = {});

  /// Counter-track sample ('C'), e.g. mailbox queue depth over time.
  void sample(const char* name, double value);

  /// Names the logical thread in the viewer ('M' metadata event).
  void name_thread(std::uint32_t tid, std::string name);

  /// Names a logical process in the viewer ('M' process_name event) — the
  /// supervisor labels each merged worker's pid this way.
  void name_process(std::uint32_t pid, std::string name);

  void clear();
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;

  /// Moves the buffered events out WITHOUT resetting the epoch (unlike
  /// clear()), so timestamps across successive drains share one timeline.
  /// The proc-backend worker drains before every report send and ships the
  /// batch to the supervisor as a TelemetryChunk.
  [[nodiscard]] std::vector<TraceEvent> drain();

  /// {"traceEvents":[...]} — one event per line, sorted by timestamp so
  /// per-thread timestamps are monotone in file order.
  void write_chrome_trace(std::ostream& out) const;
  /// The same events as bare JSON objects, one per line.
  void write_jsonl(std::ostream& out) const;

  /// Appends a fully-formed event; callers must check enabled() themselves.
  void record_event(TraceEvent event);

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;
  std::chrono::steady_clock::time_point epoch_ = std::chrono::steady_clock::now();
};

/// The process-wide tracer every instrumentation site records into.
Tracer& tracer();

/// RAII span against the global tracer: stamps the start on construction,
/// records on destruction. Inert when tracing is disabled at construction.
class SpanScope {
 public:
  explicit SpanScope(const char* name, std::initializer_list<TraceArg> args = {});
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  const char* name_;
  std::int64_t start_us_ = 0;
  std::vector<TraceArg> args_;
  bool armed_ = false;
};

}  // namespace pts::obs
