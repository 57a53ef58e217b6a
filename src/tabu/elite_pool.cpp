#include "tabu/elite_pool.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace pts::tabu {

bool ElitePool::offer(const mkp::Solution& solution) {
  if (capacity_ == 0) return false;
  if (!solution.is_feasible()) return false;
  for (const auto& pooled : pool_) {
    if (pooled == solution) return false;
  }
  if (pool_.size() == capacity_ && solution.value() <= pool_.back().value()) return false;

  const auto pos = std::upper_bound(
      pool_.begin(), pool_.end(), solution.value(),
      [](double value, const mkp::Solution& s) { return value > s.value(); });
  pool_.insert(pos, solution);
  if (pool_.size() > capacity_) pool_.pop_back();
  return true;
}

const mkp::Solution& ElitePool::best() const {
  PTS_CHECK(!pool_.empty());
  return pool_.front();
}

}  // namespace pts::tabu
