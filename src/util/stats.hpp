#pragma once
// Streaming and batch statistics used by benchmark drivers and the master's
// strategy analysis.

#include <cstddef>
#include <span>
#include <vector>

namespace pts {

/// Welford's online mean/variance. Numerically stable; O(1) per observation.
class RunningStats {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] double mean() const { return count_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const;  ///< sample variance (n-1 denominator)
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }

  void merge(const RunningStats& other);

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Relative gap of `achieved` below `reference`, in percent (paper's "Dev. in %").
/// reference must be > 0 for a meaningful result.
double deviation_percent(double achieved, double reference);

}  // namespace pts
