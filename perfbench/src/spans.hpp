#pragma once
// In-memory span log for the traced benchmark run. Spans cover the
// benchmark's own calls into the program (job -> submit/result on the stream
// workloads, run -> spawn/round -> scatter/gather/update on the master runs);
// they are built from timestamps taken around those calls, kept in memory and
// written out once when the run ends.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;
using Time = Clock::time_point;

struct Span {
  const char* name = "";    ///< static string: a layer boundary's name
  std::uint64_t id = 0;
  std::uint64_t parent = 0; ///< 0 = root
  std::uint64_t trace = 0;  ///< shared by every span of one job or run
  Time start{};
  Time end{};
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Records one finished span and returns its id (0 when disabled).
  std::uint64_t add(const char* name, std::uint64_t trace, std::uint64_t parent,
                    Time start, Time end);

  [[nodiscard]] std::size_t size() const { return spans_.size(); }

  /// Writes every span as one JSON array, times in microseconds since the
  /// log was created. Returns false when the file cannot be written.
  [[nodiscard]] bool write(const std::string& path) const;

 private:
  const bool enabled_;
  const Time origin_ = Clock::now();
  std::vector<Span> spans_;  ///< span k has id k + 1
};

}  // namespace perfbench
