#include "tabu/moves.hpp"

#include <bit>
#include <cmath>
#include <limits>

#include "obs/counters.hpp"
#include "tabu/kernels.hpp"
#include "util/check.hpp"

namespace pts::tabu {

double MoveKernel::add_score(const mkp::Solution& x, std::size_t j) const {
  const auto col = inst_->weights_col(j);
  const auto inv = x.inv_slack();
  const std::size_t m = col.size();
  double scaled_weight = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    const double w = col[i];
    if (w == 0.0) continue;
    if (x.slack(i) <= 0.0) return 0.0;  // cannot fit anyway
    // Multiply by the precomputed reciprocal as kernels::fit_and_score does;
    // the fused kernel's unrolled accumulation may differ from this single
    // chain by ulps (see kernels.hpp), never more.
    scaled_weight += w * inv[i];
  }
  if (scaled_weight == 0.0) return std::numeric_limits<double>::infinity();
  return inst_->profit(j) / scaled_weight;
}

std::optional<std::size_t> MoveKernel::select_drop(const mkp::Solution& x,
                                                   const TabuList& tabu,
                                                   std::uint64_t iter,
                                                   bool* forced) const {
  if (forced) *forced = false;
  if (x.cardinality() == 0) return std::nullopt;

  const std::size_t bottleneck = x.most_saturated_constraint();
  const auto row = inst_->weights_row(bottleneck);
  const std::size_t n = inst_->num_items();

  auto pick = [&](bool honor_tabu) -> std::optional<std::size_t> {
    std::size_t best = n;
    double best_key = -1.0;
    // Word-level scan of the selection mask: only selected items are visited.
    const BitVec& bits = x.bits();
    for (std::size_t j = bits.next_one(0); j < n; j = bits.next_one(j + 1)) {
      if (honor_tabu && tabu.is_drop_tabu(j, iter)) continue;
      const double profit = inst_->profit(j);
      const double key = profit > 0.0 ? row[j] / profit
                                      : std::numeric_limits<double>::infinity();
      if (key > best_key) {
        best_key = key;
        best = j;
      }
    }
    return best < n ? std::optional<std::size_t>(best) : std::nullopt;
  };

  if (auto choice = pick(/*honor_tabu=*/true)) return choice;
  // Every selected item is drop-tabu: the search must still move, so fall
  // back to the untabooed rule (recorded as a forced drop).
  if (forced) *forced = true;
  return pick(/*honor_tabu=*/false);
}

std::optional<std::size_t> MoveKernel::select_add(const mkp::Solution& x,
                                                  const TabuList& tabu,
                                                  std::uint64_t iter, double best_value,
                                                  MoveStats* stats, Rng* rng,
                                                  std::size_t max_candidates) const {
  std::vector<std::uint64_t> no_fit(x.bits().words().size(), 0);
  return sweep_add(x, tabu, iter, best_value, stats, rng, max_candidates, no_fit);
}

std::optional<std::size_t> MoveKernel::sweep_add(const mkp::Solution& x,
                                                 const TabuList& tabu,
                                                 std::uint64_t iter, double best_value,
                                                 MoveStats* stats, Rng* rng,
                                                 std::size_t max_candidates,
                                                 std::span<std::uint64_t> no_fit) const {
  const std::size_t n = inst_->num_items();
  PTS_DCHECK(max_candidates == 0 || rng != nullptr);
  const std::size_t start = max_candidates > 0 ? rng->index(n) : 0;
  std::size_t evaluated = 0;
  std::size_t best = n;
  double best_key = -1.0;
  // Candidate budget semantics: `evaluated` counts FULLY SCORED candidates
  // only — items skipped because they are selected, pruned in O(1), fail the
  // fused feasibility check, or are tabu without aspiration consume no
  // budget. max_candidates therefore bounds the number of score comparisons
  // per move (the paper's "neighbor solutions evaluated"), independent of
  // how dense the selection mask or the tabu list happens to be. The same
  // rule makes skipping `no_fit` items exact: they never consumed budget.
  // Hoist the dispatch resolve and the solution-invariant pointer bundle out
  // of the per-candidate loop; scan(j) == fit_and_score(x, j) bitwise.
  const kernels::AddScan scan(x);
  auto consider = [&](std::size_t j) -> bool {  // false stops the scan
    const auto fs = scan(j);
    if (!fs.fit) {
      no_fit[j >> 6] |= 1ULL << (j & 63);
      return true;
    }
    if (tabu.is_add_tabu(j, iter)) {
      // Aspiration (§3.1): the tabu barrier falls when accepting the item
      // would immediately beat the best objective value found so far.
      const bool aspires = x.value() + inst_->profit(j) > best_value;
      if (!aspires) {
        if (stats) ++stats->tabu_blocked_adds;
        return true;
      }
      if (stats) ++stats->aspiration_hits;
    }
    if (fs.score > best_key) {
      best_key = fs.score;
      best = j;
    }
    return !(max_candidates > 0 && ++evaluated >= max_candidates);
  };
  // Visits the open items (neither selected nor marked) of [from, to) in
  // ascending order, one mask word at a time; false when the scan stopped.
  const auto& selected = x.bits().words();
  auto walk = [&](std::size_t from, std::size_t to) -> bool {
    for (std::size_t w = from >> 6; (w << 6) < to; ++w) {
      const std::size_t base = w << 6;
      std::uint64_t open = ~(selected[w] | no_fit[w]);
      if (base < from) open &= ~0ULL << (from - base);
      if (to - base < 64) open &= (1ULL << (to - base)) - 1;
      for (; open != 0; open &= open - 1) {
        if (!consider(base + static_cast<std::size_t>(std::countr_zero(open)))) {
          return false;
        }
      }
    }
    return true;
  };
  // Circular sweep from `start`.
  if (walk(start, n)) (void)walk(0, start);
  return best < n ? std::optional<std::size_t>(best) : std::nullopt;
}

void MoveKernel::add_phase(mkp::Solution& x, TabuList& tabu, std::uint64_t iter,
                           const Strategy& strategy, std::size_t tenure,
                           double best_value, Rng& rng, MoveStats& stats,
                           MoveOutcome& outcome) const {
  // Items no later sweep of this phase can add. Exact because loads only
  // grow until the next move's drops: `load + w > cap` (and the prune's
  // min_col_weight > min_slack) stay true as loads grow under
  // round-to-nearest, since every weight is non-negative.
  std::vector<std::uint64_t> no_fit(x.bits().words().size(), 0);
  while (auto candidate = sweep_add(x, tabu, iter, best_value, &stats, &rng,
                                    strategy.nb_candidates, no_fit)) {
    x.add(*candidate);
    tabu.forbid_drop(*candidate, iter, tenure / 2 + 1);
    outcome.flipped.push_back(*candidate);
    ++outcome.num_adds;
    ++stats.adds;
  }
}

MoveOutcome MoveKernel::apply(mkp::Solution& x, TabuList& tabu, std::uint64_t iter,
                              const Strategy& strategy, std::size_t tenure,
                              double best_value, Rng& rng, MoveStats& stats) const {
  MoveOutcome outcome;
  PTS_DCHECK(strategy.nb_drop >= 1);

  // Randomize the drop count in [1, nb_drop]: the paper treats Nb_drop as
  // the *maximum* number of consecutive drops; varying it per move keeps
  // step lengths diverse within one strategy.
  const std::size_t drops_this_move =
      strategy.nb_drop == 1
          ? 1
          : 1 + static_cast<std::size_t>(rng.index(strategy.nb_drop));

  for (std::size_t d = 0; d < drops_this_move; ++d) {
    bool forced = false;
    const auto victim = select_drop(x, tabu, iter, &forced);
    if (!victim) break;
    x.drop(*victim);
    tabu.forbid_add(*victim, iter, tenure);
    outcome.flipped.push_back(*victim);
    ++outcome.num_drops;
    ++stats.drops;
    if (forced) ++stats.forced_drops;
  }

  // Add until no object fits (§3.1: "Adding object to the knapsack is
  // realized until no object can be added").
  add_phase(x, tabu, iter, strategy, tenure, best_value, rng, stats, outcome);
  return outcome;
}

}  // namespace pts::tabu
