#pragma once
// The 0-1 multidimensional knapsack problem instance:
//
//   max  sum_j c_j x_j
//   s.t. sum_j a_ij x_j <= b_i   for i = 0..m-1
//        x_j in {0,1}
//
// with c_j > 0, a_ij >= 0, b_i >= 0 (the paper assumes positive reals).
// Weights are stored in BOTH layouts (see DESIGN.md "Data layout & move
// kernels"): row-major (one contiguous row per constraint) for the Drop
// step's bottleneck-row scan, and a column-major mirror (one contiguous
// column per item) for the Add step's per-candidate feasibility/score
// kernels, which would otherwise read column j at stride n. The mirror is
// built once at construction together with per-item min/max weight
// summaries that let the move kernels reject non-fitting candidates in
// O(1) without touching the column at all.
//
// The mirror's per-column stride is padded to a multiple of simd::kLaneWidth
// (pad weights are 0.0) and a padded capacity vector (+infinity pads) is kept
// alongside, so the vector kernels can issue full-width loads and feasibility
// compares over the tail group without masking: a pad lane adds 0 load
// against an infinite capacity and can never report a violation, and a pad
// weight contributes exactly +0.0 to any score accumulator. All public
// m-sized spans keep logical size m; the *_padded accessors expose the wide
// views.

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "util/check.hpp"

namespace pts::mkp {

class Instance {
 public:
  /// weights_row_major has m*n entries; row i holds a_i0 .. a_i,n-1.
  Instance(std::string name, std::vector<double> profits,
           std::vector<double> weights_row_major, std::vector<double> capacities);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::size_t num_items() const { return n_; }
  [[nodiscard]] std::size_t num_constraints() const { return m_; }

  /// m rounded up to a multiple of simd::kLaneWidth — the stride of the
  /// column-major mirror and the length of the padded load/slack vectors.
  [[nodiscard]] std::size_t num_constraints_padded() const { return m_pad_; }

  [[nodiscard]] double profit(std::size_t j) const {
    PTS_DCHECK(j < n_);
    return profits_[j];
  }

  [[nodiscard]] double weight(std::size_t i, std::size_t j) const {
    PTS_DCHECK(i < m_ && j < n_);
    return weights_[i * n_ + j];
  }

  [[nodiscard]] double capacity(std::size_t i) const {
    PTS_DCHECK(i < m_);
    return capacities_[i];
  }

  [[nodiscard]] std::span<const double> profits() const { return profits_; }
  [[nodiscard]] std::span<const double> capacities() const { return capacities_; }
  [[nodiscard]] std::span<const double> weights_row(std::size_t i) const {
    PTS_DCHECK(i < m_);
    return {weights_.data() + i * n_, n_};
  }

  /// Column-major mirror: item j's m weights a_0j .. a_{m-1},j, contiguous.
  [[nodiscard]] std::span<const double> weights_col(std::size_t j) const {
    PTS_DCHECK(j < n_);
    return {weights_col_.data() + j * m_pad_, m_};
  }

  /// The same column including its zero pad lanes (length m_pad_), safe for
  /// full-width vector loads over the final partial group.
  [[nodiscard]] std::span<const double> weights_col_padded(std::size_t j) const {
    PTS_DCHECK(j < n_);
    return {weights_col_.data() + j * m_pad_, m_pad_};
  }

  /// Capacities extended with +infinity pad lanes (length m_pad_): a pad
  /// lane's feasibility compare `0 + 0 > +inf` is false by construction.
  [[nodiscard]] std::span<const double> capacities_padded() const {
    return capacities_padded_;
  }

  /// min_i a_ij. If this exceeds the solution's minimum slack, item j cannot
  /// fit (its weight at the tightest constraint is at least this large) — the
  /// O(1) candidate prune used by the Add kernels.
  [[nodiscard]] double min_col_weight(std::size_t j) const {
    PTS_DCHECK(j < n_);
    return col_min_weight_[j];
  }

  /// max_i a_ij. If this is at most the solution's minimum slack, item j is
  /// guaranteed to fit — no column scan needed to prove feasibility.
  [[nodiscard]] double max_col_weight(std::size_t j) const {
    PTS_DCHECK(j < n_);
    return col_max_weight_[j];
  }

  /// Precomputed 1/b_i for relative slack normalization (1.0 when b_i <= 0,
  /// matching the historical "fall back to raw slack" semantics). Lets
  /// Solution::most_saturated_constraint run branch-free inside the loop.
  [[nodiscard]] double relative_slack_scale(std::size_t i) const {
    PTS_DCHECK(i < m_);
    return relative_scale_[i];
  }
  [[nodiscard]] std::span<const double> relative_slack_scales() const {
    return relative_scale_;
  }

  /// sum_i a_ij — the aggregate resource consumption of item j.
  [[nodiscard]] double column_weight_sum(std::size_t j) const {
    PTS_DCHECK(j < n_);
    return column_sums_[j];
  }

  /// Profit per unit of aggregate weight; items with zero weight rank first.
  /// Used by greedy construction and by strategic oscillation's projection
  /// step ("exclude the objects with large sum_i a_ij / c_j ratio").
  [[nodiscard]] double profit_density(std::size_t j) const {
    PTS_DCHECK(j < n_);
    return density_[j];
  }

  [[nodiscard]] double total_profit() const { return total_profit_; }

  /// Optimum recorded in the source file (OR-Library convention: 0 = unknown).
  [[nodiscard]] const std::optional<double>& known_optimum() const { return known_optimum_; }
  void set_known_optimum(double value) { known_optimum_ = value; }

  /// Human-readable structural problems (empty means well-formed): every
  /// profit must be finite and positive, every weight and capacity finite
  /// and non-negative. The parser, the wire decoder and
  /// SolverService::submit refuse an instance with any.
  [[nodiscard]] std::vector<std::string> validate() const;

  /// True when every item alone fits every constraint (no forced zeros).
  [[nodiscard]] bool every_item_fits() const;

 private:
  std::string name_;
  std::size_t n_ = 0;
  std::size_t m_ = 0;
  std::size_t m_pad_ = 0;            // m_ rounded up to simd::kLaneWidth
  std::vector<double> profits_;
  std::vector<double> weights_;      // row-major, m_ rows of n_
  std::vector<double> weights_col_;  // column-major mirror, n_ columns of m_pad_
  std::vector<double> capacities_;
  std::vector<double> capacities_padded_;  // capacities_ + inf pad lanes
  std::vector<double> col_min_weight_;
  std::vector<double> col_max_weight_;
  std::vector<double> relative_scale_;  // 1/b_i (1.0 when b_i <= 0)
  std::vector<double> column_sums_;
  std::vector<double> density_;
  double total_profit_ = 0.0;
  std::optional<double> known_optimum_;
};

}  // namespace pts::mkp
