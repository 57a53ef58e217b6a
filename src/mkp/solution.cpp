#include "mkp/solution.hpp"

#include <algorithm>
#include <cmath>

namespace pts::mkp {

Solution::Solution(const Instance& inst)
    : inst_(&inst),
      bits_(inst.num_items()),
      loads_(inst.num_constraints_padded(), 0.0),
      inv_slack_(inst.num_constraints_padded(), 0.0) {
  recompute_slack_summaries();
}

void Solution::recompute_slack_summaries() {
  const auto caps = inst_->capacities();
  const std::size_t m = inst_->num_constraints();
  double min_slack = caps[0] - loads_[0];
  for (std::size_t i = 0; i < m; ++i) {
    const double slack = caps[i] - loads_[i];
    min_slack = std::min(min_slack, slack);
    inv_slack_[i] = 1.0 / std::max(slack, kSlackFloor);
  }
  min_slack_ = min_slack;
}

void Solution::add(std::size_t j) {
  PTS_DCHECK(!bits_.test(j));
  bits_.set(j);
  value_ += inst_->profit(j);
  ++cardinality_;
  const auto col = inst_->weights_col(j);
  const std::size_t m = inst_->num_constraints();
  for (std::size_t i = 0; i < m; ++i) loads_[i] += col[i];
  recompute_slack_summaries();
}

void Solution::drop(std::size_t j) {
  PTS_DCHECK(bits_.test(j));
  bits_.reset(j);
  value_ -= inst_->profit(j);
  --cardinality_;
  const auto col = inst_->weights_col(j);
  const std::size_t m = inst_->num_constraints();
  for (std::size_t i = 0; i < m; ++i) loads_[i] -= col[i];
  recompute_slack_summaries();
}

void Solution::flip(std::size_t j) { contains(j) ? drop(j) : add(j); }

void Solution::clear() {
  bits_.clear_all();
  for (auto& load : loads_) load = 0.0;
  value_ = 0.0;
  cardinality_ = 0;
  recompute_slack_summaries();
}

bool Solution::is_feasible() const { return min_slack_ >= 0.0; }

bool Solution::fits(std::size_t j) const {
  PTS_DCHECK(!bits_.test(j));
  // Column-summary fast paths: an item whose largest weight is within the
  // smallest slack always fits; one whose smallest weight exceeds it never
  // does. Both avoid touching the column entirely.
  if (inst_->max_col_weight(j) <= min_slack_) return true;
  if (inst_->min_col_weight(j) > min_slack_) return false;
  const auto col = inst_->weights_col(j);
  const auto caps = inst_->capacities();
  const std::size_t m = inst_->num_constraints();
  for (std::size_t i = 0; i < m; ++i) {
    if (loads_[i] + col[i] > caps[i]) return false;
  }
  return true;
}

std::size_t Solution::most_saturated_constraint(bool relative) const {
  const auto caps = inst_->capacities();
  const std::size_t m = inst_->num_constraints();
  std::size_t best = 0;
  if (relative) {
    // Normalization hoisted out of the loop: scale by the precomputed 1/b_i
    // (1.0 when b_i <= 0), so the scan is a branch-free multiply-compare.
    const auto scale = inst_->relative_slack_scales();
    double best_key = (caps[0] - loads_[0]) * scale[0];
    for (std::size_t i = 1; i < m; ++i) {
      const double key = (caps[i] - loads_[i]) * scale[i];
      if (key < best_key) {
        best = i;
        best_key = key;
      }
    }
  } else {
    double best_key = caps[0] - loads_[0];
    for (std::size_t i = 1; i < m; ++i) {
      const double key = caps[i] - loads_[i];
      if (key < best_key) {
        best = i;
        best_key = key;
      }
    }
  }
  return best;
}

std::vector<std::size_t> Solution::selected_items() const {
  std::vector<std::size_t> items;
  items.reserve(cardinality_);
  const std::size_t n = bits_.size();
  for (std::size_t j = bits_.next_one(0); j < n; j = bits_.next_one(j + 1)) {
    items.push_back(j);
  }
  return items;
}

bool Solution::check_consistency(double tolerance) const {
  double value = 0.0;
  std::vector<double> loads(inst_->num_constraints(), 0.0);
  std::size_t cardinality = 0;
  const std::size_t n = bits_.size();
  const std::size_t m = inst_->num_constraints();
  for (std::size_t j = 0; j < n; ++j) {
    if (!bits_.test(j)) continue;
    ++cardinality;
    value += inst_->profit(j);
    const auto col = inst_->weights_col(j);
    for (std::size_t i = 0; i < m; ++i) loads[i] += col[i];
  }
  if (cardinality != cardinality_) return false;
  if (std::fabs(value - value_) > tolerance) return false;
  for (std::size_t i = 0; i < m; ++i) {
    if (std::fabs(loads[i] - loads_[i]) > tolerance) return false;
  }
  double min_slack = inst_->capacity(0) - loads_[0];
  for (std::size_t i = 0; i < m; ++i) {
    const double slack = inst_->capacity(i) - loads_[i];
    min_slack = std::min(min_slack, slack);
    // Exact compare: inv_slack_ is recomputed from scratch on every move,
    // never updated in place, so the same expression must reproduce it.
    if (inv_slack_[i] != 1.0 / std::max(slack, kSlackFloor)) return false;
  }
  return min_slack == min_slack_;
}

}  // namespace pts::mkp
