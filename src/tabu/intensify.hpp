#pragma once
// The two intensification procedures of §3.2.
//
// Swap intensification: starting from the best solution of the last local-
// search loop, exchange a selected item i for an unselected item j with
// c_j > c_i whenever the exchange stays feasible; every accepted exchange
// strictly improves the objective. Applied to fixpoint.
//
// Strategic oscillation: deliberately add items beyond the feasibility
// boundary (at most `depth` of them — the paper's cost-control device: "we
// have limited the number of explored infeasible solutions by limiting the
// depth of the search path in the infeasible domain"), then project back by
// dropping the items with the worst aggregate-weight/profit ratio, and
// finally refill greedily.

#include <cstddef>
#include <cstdint>

#include "mkp/solution.hpp"
#include "util/rng.hpp"

namespace pts::tabu {

struct IntensifyStats {
  std::uint64_t swaps = 0;
  std::uint64_t oscillation_adds = 0;
  std::uint64_t oscillation_drops = 0;
};

/// Largest n for which swap_intensify builds its table of higher-profit
/// masks (n * ceil(n/64) words, 2 MB at the cap); past it the scan computes
/// the mask words from the profits.
inline constexpr std::size_t kMaxSwapMaskItems = 4096;

/// Applies improving feasible (i -> j) exchanges to fixpoint; returns the
/// number of exchanges applied. Feasible input stays feasible; the objective
/// never decreases. First improvement: selected items `i` in index order,
/// for each the lowest-index feasible `j`, back to the first `i` after
/// every exchange.
std::size_t swap_intensify(mkp::Solution& x, IntensifyStats* stats = nullptr);

/// One oscillation excursion of at most `depth` infeasible adds, then
/// projection + greedy refill. The result is always feasible. The objective
/// may decrease (that is the point — the projection can land elsewhere),
/// so callers keep their own incumbent.
void oscillation_intensify(mkp::Solution& x, std::size_t depth, Rng& rng,
                           IntensifyStats* stats = nullptr);

}  // namespace pts::tabu
