#pragma once
// Reverse Elimination Method (Dammeyer & Voss), the running-list tabu
// management the paper cites — and criticizes for its per-iteration overhead
// proportional to the number of executed moves. Implemented as an ablation
// comparator (bench_ablate_dynamic) so that criticism is measurable.
//
// Idea: a single-item flip is forbidden exactly when it would recreate a
// previously visited solution. Walking the move history backwards while
// maintaining the residual symmetric difference ("residual cancellation
// sequence"), every point where the residual shrinks to one item marks that
// item as forbidden for the next move.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace pts::tabu {

class ReverseElimination {
 public:
  explicit ReverseElimination(std::size_t num_items);

  /// Append one executed move (the items it flipped, in any order).
  void record_move(std::span<const std::size_t> flipped);

  /// Recompute the forbidden set by the backward RCS walk.
  /// Cost: O(total flips recorded so far) — intentionally so (see above).
  void compute_forbidden();

  [[nodiscard]] bool is_forbidden(std::size_t j) const { return forbidden_[j]; }

  [[nodiscard]] std::size_t running_list_moves() const { return moves_.size(); }
  [[nodiscard]] std::uint64_t flips_scanned_total() const { return flips_scanned_; }
  [[nodiscard]] std::size_t forbidden_count() const;


 private:
  std::size_t num_items_;
  std::vector<std::vector<std::size_t>> moves_;
  std::vector<bool> forbidden_;
  std::vector<bool> residual_;      // scratch for the backward walk
  std::uint64_t flips_scanned_ = 0;
};

}  // namespace pts::tabu
