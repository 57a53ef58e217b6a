#pragma once
// The B-best pool (paper's BestSol array): each slave keeps its B best
// distinct solutions and reports them to the master, whose SGP measures the
// pool's Hamming spread to decide between intensifying and diversifying the
// slave's next strategy.

#include <cstddef>
#include <vector>

#include "mkp/solution.hpp"

namespace pts::tabu {

class ElitePool {
 public:
  explicit ElitePool(std::size_t capacity) : capacity_(capacity) {}

  /// Insert if the solution is feasible, distinct from everything pooled,
  /// and better than the current worst (or the pool has room).
  /// Returns true when inserted.
  bool offer(const mkp::Solution& solution);

  [[nodiscard]] const std::vector<mkp::Solution>& solutions() const { return pool_; }
  [[nodiscard]] std::size_t size() const { return pool_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] bool empty() const { return pool_.empty(); }

  /// Best pooled solution; pool must be non-empty.
  [[nodiscard]] const mkp::Solution& best() const;

  void clear() { pool_.clear(); }

 private:
  std::size_t capacity_;
  std::vector<mkp::Solution> pool_;  ///< kept sorted by value, best first
};

}  // namespace pts::tabu
