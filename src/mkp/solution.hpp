#pragma once
// A 0-1 assignment with incrementally maintained objective value and
// per-constraint loads. add()/drop() are O(m); the tabu engine's move
// evaluation never re-scans the weight matrix column-by-column from scratch.
//
// Solutions may be infeasible on purpose: strategic oscillation (paper §3.2)
// deliberately crosses the feasibility boundary, so feasibility is a query,
// not an invariant.

#include <cstddef>
#include <span>
#include <vector>

#include "mkp/instance.hpp"
#include "util/bitvec.hpp"

namespace pts::mkp {

class Solution {
 public:
  /// Empty knapsack over `inst`. The instance must outlive the solution.
  explicit Solution(const Instance& inst);

  [[nodiscard]] const Instance& instance() const { return *inst_; }
  [[nodiscard]] std::size_t num_items() const { return inst_->num_items(); }

  [[nodiscard]] bool contains(std::size_t j) const { return bits_.test(j); }
  [[nodiscard]] std::size_t cardinality() const { return cardinality_; }

  /// Objective value sum_j c_j x_j (maintained incrementally).
  [[nodiscard]] double value() const { return value_; }

  /// Current load of constraint i: sum_j a_ij x_j.
  [[nodiscard]] double load(std::size_t i) const {
    PTS_DCHECK(i < inst_->num_constraints());
    return loads_[i];
  }
  [[nodiscard]] std::span<const double> loads() const {
    return {loads_.data(), inst_->num_constraints()};
  }

  /// loads() extended with zero pad lanes to num_constraints_padded(), for
  /// full-width vector loads in the SIMD kernels. Pads are exactly +0.0 and
  /// never written by add()/drop().
  [[nodiscard]] std::span<const double> loads_padded() const { return loads_; }

  /// Remaining capacity b_i - load_i (negative when violated).
  [[nodiscard]] double slack(std::size_t i) const {
    return inst_->capacity(i) - loads_[i];
  }

  /// min_i slack(i), maintained incrementally by add()/drop(). Combined with
  /// Instance::min_col_weight this gives the O(1) candidate prune: an item
  /// whose smallest weight exceeds the smallest slack cannot fit anywhere.
  [[nodiscard]] double min_slack() const { return min_slack_; }

  /// Floor applied to per-constraint slack before taking its reciprocal, so
  /// scoring against a (nearly) saturated constraint stays finite.
  static constexpr double kSlackFloor = 1e-9;

  /// Per-constraint 1 / max(slack(i), kSlackFloor), maintained incrementally
  /// by add()/drop(). Move scoring divides weights by slack for every
  /// candidate; slacks only change once per move, so precomputing the
  /// reciprocals here turns m divisions per candidate into m multiplies.
  [[nodiscard]] std::span<const double> inv_slack() const {
    return {inv_slack_.data(), inst_->num_constraints()};
  }

  /// inv_slack() extended with zero pad lanes (pad weight × pad reciprocal
  /// contributes exactly +0.0 to a score accumulator).
  [[nodiscard]] std::span<const double> inv_slack_padded() const { return inv_slack_; }

  void add(std::size_t j);   ///< item must be absent
  void drop(std::size_t j);  ///< item must be present
  void flip(std::size_t j);

  /// Reset to the empty knapsack.
  void clear();

  /// True iff no constraint is violated.
  [[nodiscard]] bool is_feasible() const;

  /// True iff adding item j keeps every constraint satisfied.
  [[nodiscard]] bool fits(std::size_t j) const;

  /// Index of the constraint with minimum slack — the paper's "most
  /// saturated constraint", the one the Drop step targets. When `relative`
  /// is true, slack is normalized by b_i (constraints with tiny capacity
  /// are not drowned out by large ones). Ties break to the lowest index.
  [[nodiscard]] std::size_t most_saturated_constraint(bool relative = false) const;

  [[nodiscard]] const BitVec& bits() const { return bits_; }
  [[nodiscard]] std::uint64_t hash() const { return bits_.hash(); }

  [[nodiscard]] std::size_t hamming_distance(const Solution& other) const {
    return bits_.hamming_distance(other.bits_);
  }

  /// Items currently at 1, ascending.
  [[nodiscard]] std::vector<std::size_t> selected_items() const;

  /// Recompute value/loads from scratch; returns true if they agree with the
  /// incrementally maintained state (tolerance for float accumulation).
  /// Test/debug aid for the incremental-evaluation invariant.
  [[nodiscard]] bool check_consistency(double tolerance = 1e-6) const;

  bool operator==(const Solution& other) const { return bits_ == other.bits_; }

 private:
  void recompute_slack_summaries();

  const Instance* inst_;
  BitVec bits_;
  std::vector<double> loads_;
  std::vector<double> inv_slack_;
  double value_ = 0.0;
  double min_slack_ = 0.0;
  std::size_t cardinality_ = 0;
};

}  // namespace pts::mkp
