#pragma once
// Per-thread search counters (DESIGN.md "Observability").
//
// Every search thread owns one `Counters` block (it lives inside TsResult,
// so the engine's Run object is the single writer — no sharing, no atomics,
// nothing for TSan to complain about). Free functions that sit below the
// engine (the move kernels) publish through a thread-local sink pointer
// installed by `CounterScope` for the duration of a run; when no scope is
// active — or telemetry is compiled out via PTS_TELEMETRY=0 — a bump is a
// no-op costing one thread-local load and a predictable branch.
//
// The master merges the snapshots it gathers from slave Reports into a
// `CounterStats` (one RunningStats per counter over per-(slave, round)
// observations) plus exact uint64 totals.

#include <array>
#include <cstddef>
#include <cstdint>

#include "util/stats.hpp"

#ifndef PTS_TELEMETRY
#define PTS_TELEMETRY 1
#endif

namespace pts::obs {

inline constexpr bool kTelemetryCompiled = PTS_TELEMETRY != 0;

/// The counter taxonomy. One enumerator per fact the cooperation analysis
/// needs; keep names in sync with counter_name().
enum class Counter : std::size_t {
  kMovesTried,       ///< Drop/Add composite moves executed
  kMovesImproved,    ///< moves that improved the run's incumbent
  kDrops,            ///< individual Drop steps
  kAdds,             ///< individual Add steps
  kForcedDrops,      ///< drop fell back to a tabu item (all selected tabu)
  kTabuRejections,   ///< add candidates rejected by tabu status (no aspiration)
  kAspirationAccepts,///< tabu adds accepted through the aspiration criterion
  kFitScoreCalls,    ///< full fit_and_score column sweeps
  kPruneEarlyOuts,   ///< candidates rejected by the O(1) min-slack prune
  kIntensifications, ///< intensification phases entered
  kOscillations,     ///< of those, strategic-oscillation phases
  kDiversifications, ///< diversification phases entered
  kDroppedMessages,  ///< sends explicitly discarded on a closed/dead endpoint
  kCheckpointsWritten, ///< master snapshots durably written to disk
  kPoolDegraded,     ///< slaves retired by the pool-degradation policy
  kCount
};

inline constexpr std::size_t kCounterCount = static_cast<std::size_t>(Counter::kCount);

/// Short stable identifier ("moves_tried", ...) used in CSV/JSON exports.
[[nodiscard]] const char* counter_name(Counter c);

/// One thread's counter block. Plain (non-atomic) slots: each block has a
/// single writer; cross-thread movement happens by value through Reports.
struct Counters {
  std::array<std::uint64_t, kCounterCount> slots{};

  std::uint64_t& operator[](Counter c) { return slots[static_cast<std::size_t>(c)]; }
  std::uint64_t operator[](Counter c) const { return slots[static_cast<std::size_t>(c)]; }

  void add(const Counters& other) {
    for (std::size_t i = 0; i < kCounterCount; ++i) slots[i] += other.slots[i];
  }

  [[nodiscard]] bool any() const {
    for (const auto v : slots) {
      if (v != 0) return true;
    }
    return false;
  }
};

namespace detail {
#if PTS_TELEMETRY
// constinit: the sink is constant-initialized, so other translation units
// reach it directly instead of through a TLS init wrapper.
extern constinit thread_local Counters* tl_sink;
#endif
}  // namespace detail

/// Global kill switch for the always-on counter paths (the engine checks it
/// once per run, never per move). Defaults to enabled; bench_observability
/// flips it off to time the uninstrumented baseline in the same binary.
void set_telemetry_enabled(bool enabled);
[[nodiscard]] bool telemetry_enabled();

/// Publish into the current thread's bound sink, if any.
inline void bump(Counter c, std::uint64_t n = 1) {
#if PTS_TELEMETRY
  if (detail::tl_sink != nullptr) (*detail::tl_sink)[c] += n;
#else
  (void)c;
  (void)n;
#endif
}

/// Binds `sink` as the calling thread's counter sink for the scope's
/// lifetime; restores the previous binding on exit (scopes nest).
/// Binding nullptr suppresses publication inside the scope.
class CounterScope {
 public:
#if PTS_TELEMETRY
  explicit CounterScope(Counters* sink) : previous_(detail::tl_sink) {
    detail::tl_sink = sink;
  }
  ~CounterScope() { detail::tl_sink = previous_; }
#else
  explicit CounterScope(Counters*) {}
#endif
  CounterScope(const CounterScope&) = delete;
  CounterScope& operator=(const CounterScope&) = delete;

 private:
#if PTS_TELEMETRY
  Counters* previous_;
#endif
};

/// Master-side aggregation: per-counter distribution over the per-(slave,
/// round) snapshots it gathers, plus exact totals.
class CounterStats {
 public:
  void observe(const Counters& snapshot) {
    totals_.add(snapshot);
    for (std::size_t i = 0; i < kCounterCount; ++i) {
      per_counter_[i].add(static_cast<double>(snapshot.slots[i]));
    }
    ++snapshots_;
  }

  void merge(const CounterStats& other) {
    totals_.add(other.totals_);
    for (std::size_t i = 0; i < kCounterCount; ++i) {
      per_counter_[i].merge(other.per_counter_[i]);
    }
    snapshots_ += other.snapshots_;
  }

  [[nodiscard]] const Counters& totals() const { return totals_; }
  [[nodiscard]] const RunningStats& stats(Counter c) const {
    return per_counter_[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] std::size_t snapshots() const { return snapshots_; }

 private:
  Counters totals_;
  std::array<RunningStats, kCounterCount> per_counter_{};
  std::size_t snapshots_ = 0;
};

}  // namespace pts::obs
