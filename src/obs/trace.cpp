#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <set>
#include <utility>

namespace pts::obs {

namespace {

thread_local std::uint32_t tl_tid = 0;

/// JSON string escaping for the few dynamic strings we emit (thread names,
/// retune kinds): quotes, backslashes and control characters.
void append_escaped(std::string& out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void append_double(std::string& out, double v) {
  char buf[32];
  // %.17g round-trips but bloats the file; counters and strategy knobs are
  // small integers or seconds, where %.6g is exact enough and readable.
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out += buf;
}

std::string event_json(const TraceEvent& event) {
  std::string line = "{\"name\":\"";
  append_escaped(line, event.name);
  line += "\",\"ph\":\"";
  line += event.phase;
  line += "\",\"ts\":" + std::to_string(event.ts_us);
  if (event.phase == 'X') line += ",\"dur\":" + std::to_string(event.dur_us);
  line += ",\"pid\":" + std::to_string(event.pid) +
          ",\"tid\":" + std::to_string(event.tid);
  if (!event.args.empty() || event.detail_key != nullptr) {
    line += ",\"args\":{";
    bool first = true;
    for (const auto& arg : event.args) {
      if (!first) line += ',';
      first = false;
      line += '"';
      append_escaped(line, arg.key);
      line += "\":";
      append_double(line, arg.value);
    }
    if (event.detail_key != nullptr) {
      if (!first) line += ',';
      line += '"';
      append_escaped(line, event.detail_key);
      line += "\":\"";
      append_escaped(line, event.detail);
      line += '"';
    }
    line += '}';
  }
  line += '}';
  return line;
}

}  // namespace

const char* intern_name(std::string_view name) {
  // Node-based set: element addresses are stable across insertions, so the
  // returned c_str() lives for the process. Guarded by its own mutex — the
  // interner is only hit on the chunk-merge path (per round, not per event
  // name lookup in steady state misses rarely).
  static std::mutex mutex;
  static std::set<std::string, std::less<>> names;
  std::scoped_lock lock(mutex);
  auto it = names.find(name);
  if (it == names.end()) it = names.emplace(name).first;
  return it->c_str();
}

std::uint32_t thread_tid() { return tl_tid; }

TidScope::TidScope(std::uint32_t tid) : previous_(tl_tid) { tl_tid = tid; }
TidScope::~TidScope() { tl_tid = previous_; }

void Tracer::set_enabled(bool enabled) {
  if (enabled) {
    std::scoped_lock lock(mutex_);
    if (events_.empty()) epoch_ = std::chrono::steady_clock::now();
  }
  enabled_.store(enabled, std::memory_order_relaxed);
}

std::int64_t Tracer::now_us() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void Tracer::record_event(TraceEvent event) {
  std::scoped_lock lock(mutex_);
  events_.push_back(std::move(event));
}

void Tracer::instant(const char* name, std::initializer_list<TraceArg> args,
                     const char* detail_key, std::string detail) {
  if (!enabled()) return;
  TraceEvent event;
  event.name = name;
  event.phase = 'i';
  event.tid = tl_tid;
  event.ts_us = now_us();
  event.args = args;
  event.detail_key = detail_key;
  event.detail = std::move(detail);
  record_event(std::move(event));
}

void Tracer::sample(const char* name, double value) {
  if (!enabled()) return;
  TraceEvent event;
  event.name = name;
  event.phase = 'C';
  event.tid = tl_tid;
  event.ts_us = now_us();
  event.args = {TraceArg{"value", value}};
  record_event(std::move(event));
}

void Tracer::name_thread(std::uint32_t tid, std::string name) {
  if (!enabled()) return;
  TraceEvent event;
  event.name = "thread_name";
  event.phase = 'M';
  event.tid = tid;
  event.ts_us = 0;
  event.detail_key = "name";
  event.detail = std::move(name);
  record_event(std::move(event));
}

void Tracer::name_process(std::uint32_t pid, std::string name) {
  if (!enabled()) return;
  TraceEvent event;
  event.name = "process_name";
  event.phase = 'M';
  event.pid = pid;
  event.tid = 0;
  event.ts_us = 0;
  event.detail_key = "name";
  event.detail = std::move(name);
  record_event(std::move(event));
}

void Tracer::clear() {
  std::scoped_lock lock(mutex_);
  events_.clear();
  epoch_ = std::chrono::steady_clock::now();
}

std::vector<TraceEvent> Tracer::drain() {
  std::scoped_lock lock(mutex_);
  return std::exchange(events_, {});
}

std::size_t Tracer::size() const {
  std::scoped_lock lock(mutex_);
  return events_.size();
}

std::vector<TraceEvent> Tracer::snapshot() const {
  std::scoped_lock lock(mutex_);
  return events_;
}

void Tracer::write_chrome_trace(std::ostream& out) const {
  auto events = snapshot();
  // Stable sort by timestamp: spans are recorded at completion but stamped
  // with their start, so raw append order is not time order. After sorting,
  // timestamps are monotone per thread in file order (the schema test's
  // invariant).
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_us < b.ts_us;
                   });
  out << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < events.size(); ++i) {
    out << event_json(events[i]) << (i + 1 < events.size() ? ",\n" : "\n");
  }
  out << "]}\n";
}

void Tracer::write_jsonl(std::ostream& out) const {
  auto events = snapshot();
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_us < b.ts_us;
                   });
  for (const auto& event : events) out << event_json(event) << '\n';
}

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

SpanScope::SpanScope(const char* name, std::initializer_list<TraceArg> args)
    : name_(name) {
  if (!tracer().enabled()) return;
  armed_ = true;
  args_ = args;
  start_us_ = tracer().now_us();
}

SpanScope::~SpanScope() {
  // Armed at construction means the span records even if tracing was turned
  // off mid-scope — a half-captured phase is more useful than a hole, and
  // TelemetrySession::clear() discards stragglers before the next session.
  if (!armed_) return;
  TraceEvent event;
  event.name = name_;
  event.phase = 'X';
  event.tid = thread_tid();
  event.ts_us = start_us_;
  event.dur_us = std::max<std::int64_t>(0, tracer().now_us() - start_us_);
  event.args = std::move(args_);
  tracer().record_event(std::move(event));
}

}  // namespace pts::obs
