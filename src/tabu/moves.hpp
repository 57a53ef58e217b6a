#pragma once
// The paper's composite move (§3.1, following Dammeyer–Voss):
//
//   Drop: pick the most saturated constraint i*, then among selected items
//         the one maximizing a_{i*,j} / c_j (most load per unit profit on the
//         bottleneck), skipping drop-tabu items. Repeat up to Nb_drop times.
//   Add : greedily re-add fitting items — highest slack-scaled profit
//         density first — skipping add-tabu items unless the aspiration
//         criterion fires (the add would push the objective above the best
//         value found so far).
//
// The kernel is stateless w.r.t. the search; all memory lives in TabuList /
// FrequencyMemory, which makes each rule unit-testable in isolation.

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "mkp/instance.hpp"
#include "mkp/solution.hpp"
#include "tabu/strategy.hpp"
#include "tabu/tabu_list.hpp"
#include "util/rng.hpp"

namespace pts::tabu {

struct MoveStats {
  std::uint64_t drops = 0;
  std::uint64_t adds = 0;
  std::uint64_t aspiration_hits = 0;
  std::uint64_t tabu_blocked_adds = 0;
  std::uint64_t forced_drops = 0;  ///< drop fell back to a tabu item (all tabu)

  bool operator==(const MoveStats&) const = default;
};

struct MoveOutcome {
  std::size_t num_drops = 0;
  std::size_t num_adds = 0;
  std::vector<std::size_t> flipped;  ///< drop/add order; consumed by REM
};

class MoveKernel {
 public:
  explicit MoveKernel(const mkp::Instance& inst) : inst_(&inst) {}

  /// One full Drop/Add move. `tenure` is the effective tabu tenure for this
  /// iteration (the engine may override the strategy's static value under
  /// reactive control). Newly dropped items become add-tabu; newly added
  /// items become drop-tabu (short tenure, tenure/2 + 1).
  MoveOutcome apply(mkp::Solution& x, TabuList& tabu, std::uint64_t iter,
                    const Strategy& strategy, std::size_t tenure, double best_value,
                    Rng& rng, MoveStats& stats) const;

  /// The Drop rule alone: the item to drop, or nullopt for an empty solution.
  /// If every selected item is drop-tabu, falls back to the rule ignoring
  /// tabu (sets `forced` when provided).
  [[nodiscard]] std::optional<std::size_t> select_drop(const mkp::Solution& x,
                                                       const TabuList& tabu,
                                                       std::uint64_t iter,
                                                       bool* forced = nullptr) const;

  /// The Add phase alone (§3.1: "until no object can be added"): adds
  /// select_add's pick, makes it drop-tabu (tenure/2 + 1), and repeats
  /// until nothing fits. apply() runs it after the drops.
  ///
  /// Loads only grow during the phase, so an item that failed the O(1)
  /// prune or the feasibility check in one sweep cannot fit in any later
  /// one. The phase keeps those items in a word mask and later sweeps skip
  /// them; the picks, MoveStats and rng draws are exactly those of a loop
  /// of fresh select_add calls (DESIGN.md "Data layout & move kernels").
  void add_phase(mkp::Solution& x, TabuList& tabu, std::uint64_t iter,
                 const Strategy& strategy, std::size_t tenure, double best_value,
                 Rng& rng, MoveStats& stats, MoveOutcome& outcome) const;

  /// The Add rule alone: the best fitting candidate honoring tabu status and
  /// aspiration, or nullopt when nothing can be added. Candidates stream the
  /// column-major weight mirror through the fused kernels::fit_and_score
  /// sweep; unselected items are enumerated word by word from the selection
  /// mask and non-fitting ones are pre-rejected in O(1) when
  /// min_col_weight(j) > min_slack. This is one add_phase sweep with an
  /// empty no-fit mask.
  ///
  /// When `max_candidates > 0` (the strategy's nb_candidates) only that many
  /// candidates are evaluated, scanned circularly from a random offset drawn
  /// from `rng` — the paper's "number of neighbor solutions evaluated at
  /// each move" knob. "Evaluated" counts fully scored candidates only:
  /// items rejected by the selection mask, the O(1) prune, the feasibility
  /// check, or the tabu filter (without aspiration) do not consume budget.
  /// rng may be null only when max_candidates == 0.
  [[nodiscard]] std::optional<std::size_t> select_add(
      const mkp::Solution& x, const TabuList& tabu, std::uint64_t iter,
      double best_value, MoveStats* stats = nullptr, Rng* rng = nullptr,
      std::size_t max_candidates = 0) const;

  /// Slack-scaled profit density of item j for the current solution:
  /// c_j / sum_i (a_ij / slack_i). Larger is better; constraints at zero
  /// slack make unfit items score zero. Exposed for the oscillation phase.
  [[nodiscard]] double add_score(const mkp::Solution& x, std::size_t j) const;

 private:
  /// One Add sweep over the items in neither x's selection nor `no_fit`;
  /// marks in `no_fit` every item the sweep finds cannot fit.
  [[nodiscard]] std::optional<std::size_t> sweep_add(
      const mkp::Solution& x, const TabuList& tabu, std::uint64_t iter,
      double best_value, MoveStats* stats, Rng* rng, std::size_t max_candidates,
      std::span<std::uint64_t> no_fit) const;

  const mkp::Instance* inst_;
};

}  // namespace pts::tabu
