#include "mkp/instance.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/simd.hpp"

namespace pts::mkp {

Instance::Instance(std::string name, std::vector<double> profits,
                   std::vector<double> weights_row_major, std::vector<double> capacities)
    : name_(std::move(name)),
      n_(profits.size()),
      m_(capacities.size()),
      profits_(std::move(profits)),
      weights_(std::move(weights_row_major)),
      capacities_(std::move(capacities)) {
  PTS_CHECK_MSG(n_ > 0, "instance needs at least one item");
  PTS_CHECK_MSG(m_ > 0, "instance needs at least one constraint");
  PTS_CHECK_MSG(weights_.size() == n_ * m_, "weight matrix must be m*n");

  m_pad_ = (m_ + simd::kLaneWidth - 1) / simd::kLaneWidth * simd::kLaneWidth;
  column_sums_.assign(n_, 0.0);
  weights_col_.assign(n_ * m_pad_, 0.0);  // pad lanes stay exactly +0.0
  col_min_weight_.assign(n_, std::numeric_limits<double>::infinity());
  col_max_weight_.assign(n_, 0.0);
  for (std::size_t i = 0; i < m_; ++i) {
    const double* row = weights_.data() + i * n_;
    for (std::size_t j = 0; j < n_; ++j) {
      const double w = row[j];
      column_sums_[j] += w;
      weights_col_[j * m_pad_ + i] = w;
      col_min_weight_[j] = std::min(col_min_weight_[j], w);
      col_max_weight_[j] = std::max(col_max_weight_[j], w);
    }
  }

  capacities_padded_.assign(m_pad_, std::numeric_limits<double>::infinity());
  std::copy(capacities_.begin(), capacities_.end(), capacities_padded_.begin());

  relative_scale_.resize(m_);
  for (std::size_t i = 0; i < m_; ++i) {
    relative_scale_[i] = capacities_[i] > 0.0 ? 1.0 / capacities_[i] : 1.0;
  }

  density_.resize(n_);
  for (std::size_t j = 0; j < n_; ++j) {
    density_[j] = column_sums_[j] > 0.0 ? profits_[j] / column_sums_[j]
                                        : std::numeric_limits<double>::infinity();
    total_profit_ += profits_[j];
  }
}

std::vector<std::string> Instance::validate() const {
  std::vector<std::string> issues;
  for (std::size_t j = 0; j < n_; ++j) {
    if (!(std::isfinite(profits_[j]) && profits_[j] > 0.0)) {
      issues.push_back("profit of item " + std::to_string(j) +
                       " is not positive and finite");
    }
  }
  for (std::size_t i = 0; i < m_; ++i) {
    if (!(std::isfinite(capacities_[i]) && capacities_[i] >= 0.0)) {
      issues.push_back("capacity of constraint " + std::to_string(i) +
                       " is negative or not finite");
    }
    const auto row = weights_row(i);
    for (std::size_t j = 0; j < n_; ++j) {
      if (!(std::isfinite(row[j]) && row[j] >= 0.0)) {
        issues.push_back("weight a[" + std::to_string(i) + "][" + std::to_string(j) +
                         "] is negative or not finite");
      }
    }
  }
  return issues;
}

bool Instance::every_item_fits() const {
  for (std::size_t i = 0; i < m_; ++i) {
    const auto row = weights_row(i);
    for (std::size_t j = 0; j < n_; ++j) {
      if (row[j] > capacities_[i]) return false;
    }
  }
  return true;
}

}  // namespace pts::mkp
