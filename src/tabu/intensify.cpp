#include "tabu/intensify.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "bounds/greedy.hpp"
#include "util/check.hpp"

namespace pts::tabu {

namespace {

/// For each item j, ceil(n/64) words marking the items k with
/// !(c_k <= c_j): a strictly higher profit, or a NaN on either side, which
/// is exactly what the plain scan's comparison admits. Sort by profit, then
/// hand each group of equal profit the set of items above it:
/// O(n log n + n^2/64), into this thread's scratch, so no instance carries
/// n^2 bits. Empty past kMaxSwapMaskItems.
std::span<const std::uint64_t> higher_profit_masks(const mkp::Instance& inst) {
  thread_local std::vector<std::uint64_t> table;
  thread_local std::vector<std::uint64_t> above;
  thread_local std::vector<std::size_t> order;
  const std::size_t n = inst.num_items();
  if (n > kMaxSwapMaskItems) return {};
  const std::size_t words = (n + 63) / 64;
  const auto profits = inst.profits();
  table.assign(n * words, 0);
  above.assign(words, 0);
  order.clear();
  for (std::size_t j = 0; j < n; ++j) {
    if (std::isnan(profits[j])) {
      above[j >> 6] |= 1ULL << (j & 63);  // above every item
    } else {
      order.push_back(j);
    }
  }
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return profits[a] > profits[b]; });
  const auto mask = [&](std::size_t j) {
    return table.begin() + static_cast<std::ptrdiff_t>(j * words);
  };
  for (std::size_t begin = 0, end = 0; begin < order.size(); begin = end) {
    while (end < order.size() && profits[order[end]] == profits[order[begin]]) ++end;
    for (std::size_t k = begin; k < end; ++k) std::copy(above.begin(), above.end(), mask(order[k]));
    for (std::size_t k = begin; k < end; ++k) above[order[k] >> 6] |= 1ULL << (order[k] & 63);
  }
  for (std::size_t j = 0; j < n; ++j) {
    if (std::isnan(profits[j])) std::copy(above.begin(), above.end(), mask(j));
  }
  return table;
}

/// Word `w` of item `out`'s higher-profit mask, from the profits themselves:
/// the path for instances past kMaxSwapMaskItems.
std::uint64_t higher_profit_word(const mkp::Instance& inst, std::size_t out,
                                 std::size_t w) {
  std::uint64_t word = 0;
  const std::size_t end = std::min(inst.num_items(), (w + 1) << 6);
  for (std::size_t k = w << 6; k < end; ++k) {
    if (!(inst.profit(k) <= inst.profit(out))) word |= 1ULL << (k & 63);
  }
  return word;
}

/// The lowest-index unselected item `in` with a higher profit than `out`
/// whose exchange for `out` keeps every constraint satisfied, or n if none.
/// Each row test is `(load_i - a_i,out) + a_i,in > b_i`, the expression the
/// exchange itself computes, so no rounding can change a verdict. The row
/// with the least slack once `out` is gone rejects most candidates, so it is
/// tested first, from its contiguous row; survivors get the full column test.
std::size_t first_swap_partner(const mkp::Solution& x, std::size_t out,
                               std::span<const std::uint64_t> masks) {
  const auto& inst = x.instance();
  const std::size_t m = inst.num_constraints();
  const auto loads = x.loads();
  const auto caps = inst.capacities();
  const auto out_col = inst.weights_col(out);
  const auto& selected = x.bits().words();
  const auto higher =
      masks.empty() ? masks : masks.subspan(out * selected.size(), selected.size());

  std::size_t tight = m;  // found at the first candidate
  double tight_base = 0.0;
  const double* tight_row = nullptr;
  for (std::size_t w = 0; w < selected.size(); ++w) {
    std::uint64_t open =
        ~selected[w] & (higher.empty() ? higher_profit_word(inst, out, w) : higher[w]);
    for (; open != 0; open &= open - 1) {
      const std::size_t in = (w << 6) + static_cast<std::size_t>(std::countr_zero(open));
      if (tight == m) {
        tight = 0;
        double least = std::numeric_limits<double>::infinity();
        for (std::size_t i = 0; i < m; ++i) {
          const double slack = caps[i] - (loads[i] - out_col[i]);
          if (slack < least) {
            least = slack;
            tight = i;
          }
        }
        tight_base = loads[tight] - out_col[tight];
        tight_row = inst.weights_row(tight).data();
      }
      if (tight_base + tight_row[in] > caps[tight]) continue;
      const auto in_col = inst.weights_col(in);
      std::size_t i = 0;
      while (i < m && !((loads[i] - out_col[i]) + in_col[i] > caps[i])) ++i;
      if (i == m) return in;
    }
  }
  return x.num_items();
}

}  // namespace

std::size_t swap_intensify(mkp::Solution& x, IntensifyStats* stats) {
  const std::size_t n = x.num_items();
  const auto masks = higher_profit_masks(x.instance());
  std::size_t applied = 0;
  // First improvement: selected items in index order, back to the first
  // after every exchange.
  for (std::size_t out = x.bits().next_one(0); out < n;) {
    const std::size_t in = first_swap_partner(x, out, masks);
    if (in == n) {
      out = x.bits().next_one(out + 1);
      continue;
    }
    x.drop(out);
    x.add(in);
    ++applied;
    out = x.bits().next_one(0);
  }
  if (stats) stats->swaps += applied;
  return applied;
}

void oscillation_intensify(mkp::Solution& x, std::size_t depth, Rng& rng,
                           IntensifyStats* stats) {
  const auto& inst = x.instance();
  const std::size_t n = inst.num_items();
  const std::size_t before = x.cardinality();

  // Excursion: up to `depth` adds by profit density, feasibility ignored.
  // A pinch of randomness in the pick keeps repeated excursions from
  // retracing the same path.
  for (std::size_t step = 0; step < depth; ++step) {
    std::size_t best = n;
    double best_key = -std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < n; ++j) {
      if (x.contains(j)) continue;
      const double key = inst.profit_density(j) * (0.9 + 0.2 * rng.uniform01());
      if (key > best_key) {
        best_key = key;
        best = j;
      }
    }
    if (best == n) break;
    x.add(best);
  }
  if (stats) stats->oscillation_adds += x.cardinality() - before;

  // Projection back onto the feasible region, then refill.
  const std::size_t peak = x.cardinality();
  bounds::repair_to_feasible(x);
  if (stats) stats->oscillation_drops += peak - x.cardinality();
  bounds::greedy_fill(x);
  PTS_DCHECK(x.is_feasible());
}

}  // namespace pts::tabu
