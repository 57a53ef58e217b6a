#pragma once
// Anytime-performance recording (DESIGN.md "Observability"): (wall-clock,
// work-units, best objective) points captured every time an incumbent
// improves, per search thread and globally. The paper's CTS2-vs-ITS claim is
// an *anytime* claim — same work budget, better best-so-far curve — so the
// curve is a first-class output of a run, serialized next to the timeline
// by report_io.
//
// The engine appends to the curve inside its own TsResult (single writer);
// the master stitches per-slave curves into one run-level sequence, offset
// to its own clock. AnytimeRecorder is the small thread-safe collector used
// when several threads must append to one curve directly (async swarm,
// ad-hoc instrumentation).

#include <cstdint>
#include <mutex>
#include <vector>

namespace pts::obs {

/// Sources >= 0 identify a slave/peer; kGlobalSource marks the run-level
/// best-so-far curve.
inline constexpr std::int32_t kGlobalSource = -1;

struct AnytimeSample {
  std::int32_t source = kGlobalSource;
  double seconds = 0.0;        ///< wall clock, relative to the curve's epoch
  std::uint64_t work_units = 0;///< moves (engine) or cumulative moves (master)
  double value = 0.0;          ///< best objective at that point
};

/// Thread-safe appender for concurrently produced samples.
class AnytimeRecorder {
 public:
  void record(std::int32_t source, double seconds, std::uint64_t work_units,
              double value) {
    std::scoped_lock lock(mutex_);
    samples_.push_back({source, seconds, work_units, value});
  }

  [[nodiscard]] std::vector<AnytimeSample> snapshot() const {
    std::scoped_lock lock(mutex_);
    return samples_;
  }

  [[nodiscard]] std::size_t size() const {
    std::scoped_lock lock(mutex_);
    return samples_.size();
  }

  void clear() {
    std::scoped_lock lock(mutex_);
    samples_.clear();
  }

 private:
  mutable std::mutex mutex_;
  std::vector<AnytimeSample> samples_;
};

}  // namespace pts::obs
