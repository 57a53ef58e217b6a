#include "tabu/intensify.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <limits>
#include <vector>

#include "bounds/greedy.hpp"
#include "mkp/generator.hpp"
#include "tabu/swap_intensify_reference.hpp"

namespace pts::tabu {
namespace {

TEST(SwapIntensify, AppliesProfitableExchange) {
  // Item 0 selected (profit 5), item 1 unselected (profit 8), same weight:
  // the exchange is feasible and must happen.
  mkp::Instance inst("sw", {5, 8}, {3, 3}, {3});
  mkp::Solution s(inst);
  s.add(0);
  IntensifyStats stats;
  const auto applied = swap_intensify(s, &stats);
  EXPECT_EQ(applied, 1U);
  EXPECT_EQ(stats.swaps, 1U);
  EXPECT_FALSE(s.contains(0));
  EXPECT_TRUE(s.contains(1));
  EXPECT_DOUBLE_EQ(s.value(), 8.0);
}

TEST(SwapIntensify, SkipsInfeasibleExchange) {
  // Item 1 is better but heavier than the slack allows.
  mkp::Instance inst("inf", {5, 8}, {3, 4}, {3});
  mkp::Solution s(inst);
  s.add(0);
  EXPECT_EQ(swap_intensify(s), 0U);
  EXPECT_TRUE(s.contains(0));
}

TEST(SwapIntensify, NeverDecreasesValue) {
  const auto inst = mkp::generate_gk({.num_items = 50, .num_constraints = 5}, 7);
  auto s = bounds::greedy_construct(inst, bounds::GreedyOrder::kProfit);
  const double before = s.value();
  swap_intensify(s);
  EXPECT_GE(s.value(), before);
  EXPECT_TRUE(s.is_feasible());
}

TEST(SwapIntensify, ReachesFixpoint) {
  const auto inst = mkp::generate_gk({.num_items = 40, .num_constraints = 5}, 8);
  auto s = bounds::greedy_construct(inst);
  swap_intensify(s);
  EXPECT_EQ(swap_intensify(s), 0U);  // a second pass finds nothing
}

TEST(SwapIntensify, ChainsMultipleExchanges) {
  // 1 constraint; capacity 3. Selected {0}; 1 and 2 both better, weight 3 and 3:
  // exchanging 0->2 then no more (only one slot). Build a two-step chain:
  // c = {1, 2, 3}, w = {1, 1, 1}, b = 2, start {0, 1}: swap 0->2 gives {2,1}.
  mkp::Instance inst("ch", {1, 2, 3}, {1, 1, 1}, {2});
  mkp::Solution s(inst);
  s.add(0);
  s.add(1);
  const auto applied = swap_intensify(s);
  EXPECT_GE(applied, 1U);
  EXPECT_TRUE(s.contains(2));
  EXPECT_TRUE(s.contains(1));
  EXPECT_DOUBLE_EQ(s.value(), 5.0);
}

// --- The masked scan against the plain one it replaced ----------------------

/// Runs both scans from copies of `start` and holds the masked one to the
/// reference: the same count, the same final bits, and a value and loads
/// equal to the last bit, which a different exchange order would round
/// differently. Returns the number of exchanges made.
std::size_t expect_same_swaps(const mkp::Solution& start) {
  mkp::Solution fast = start;
  mkp::Solution reference = start;
  IntensifyStats fast_stats;
  IntensifyStats reference_stats;
  fast_stats.swaps = reference_stats.swaps = 5;  // the stats accumulate
  const std::size_t applied = swap_intensify(fast, &fast_stats);
  EXPECT_EQ(applied, swap_intensify_reference(reference, &reference_stats));
  EXPECT_EQ(fast_stats.swaps, reference_stats.swaps);
  EXPECT_EQ(fast_stats.swaps, 5 + applied);
  EXPECT_EQ(fast.bits(), reference.bits());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(fast.value()),
            std::bit_cast<std::uint64_t>(reference.value()));
  for (std::size_t i = 0; i < fast.instance().num_constraints(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(fast.load(i)),
              std::bit_cast<std::uint64_t>(reference.load(i)))
        << "constraint " << i;
  }
  return applied;
}

/// A mid-search state: a randomized greedy solution with up to eight items
/// dropped and, when `overfull`, up to four more added past feasibility.
mkp::Solution mid_search_state(const mkp::Instance& inst, Rng& rng, bool overfull) {
  auto x = bounds::greedy_randomized(inst, rng, 4);
  const std::size_t drops = rng.index(9);
  for (std::size_t k = 0; k < drops && x.cardinality() > 0; ++k) {
    const auto items = x.selected_items();
    x.drop(items[rng.index(items.size())]);
  }
  const std::size_t adds = overfull ? 1 + rng.index(4) : 0;
  for (std::size_t k = 0; k < adds && x.cardinality() < inst.num_items(); ++k) {
    std::size_t j = rng.index(inst.num_items());
    while (x.contains(j)) j = (j + 1) % inst.num_items();
    x.add(j);
  }
  return x;
}

/// `states` feasible and `states` overfull starts on `inst`; returns the
/// number of exchanges made, so callers can check the states were not all
/// already fixpoints.
std::size_t check_states(const mkp::Instance& inst, std::uint64_t seed, int states) {
  Rng rng(seed);
  std::size_t swaps = 0;
  for (int k = 0; k < 2 * states; ++k) {
    const auto start = mid_search_state(inst, rng, k % 2 == 1);
    SCOPED_TRACE(::testing::Message() << inst.name() << " state " << k);
    swaps += expect_same_swaps(start);
  }
  return swaps;
}

/// The weight matrix of `inst`, row-major, as the Instance constructor takes it.
std::vector<double> weights_of(const mkp::Instance& inst) {
  std::vector<double> weights;
  for (std::size_t i = 0; i < inst.num_constraints(); ++i) {
    const auto row = inst.weights_row(i);
    weights.insert(weights.end(), row.begin(), row.end());
  }
  return weights;
}

/// `inst` with every profit replaced by a draw from {1, ..., 5}: ties are
/// the rule, so the strict "higher profit" test matters on every pair.
mkp::Instance with_tied_profits(const mkp::Instance& inst, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> profits(inst.num_items());
  for (auto& c : profits) c = static_cast<double>(rng.uniform_int(1, 5));
  const auto caps = inst.capacities();
  return {inst.name() + "-tied", std::move(profits), weights_of(inst),
          std::vector<double>(caps.begin(), caps.end())};
}

/// `inst` with every weight and capacity scaled by 0.1: most of them are no
/// longer integers, so a test that reorders the row arithmetic (slack
/// summaries, min/max shortcuts) can round a verdict the other way.
mkp::Instance with_tenth_weights(const mkp::Instance& inst) {
  std::vector<double> weights;
  for (std::size_t i = 0; i < inst.num_constraints(); ++i) {
    for (const double a : inst.weights_row(i)) weights.push_back(a * 0.1);
  }
  std::vector<double> caps;
  for (const double b : inst.capacities()) caps.push_back(b * 0.1);
  const auto profits = inst.profits();
  return {inst.name() + "-tenth", std::vector<double>(profits.begin(), profits.end()),
          std::move(weights), std::move(caps)};
}

TEST(SwapIntensifyEquivalence, MatchesReferenceOnGkMidSearchStates) {
  const auto small = mkp::generate_gk({.num_items = 100, .num_constraints = 5}, 51);
  const auto mid = mkp::generate_gk({.num_items = 250, .num_constraints = 10}, 52);
  const auto large = mkp::generate_gk({.num_items = 500, .num_constraints = 30}, 53);
  EXPECT_GT(check_states(small, 1, 60), 0U);
  EXPECT_GT(check_states(mid, 2, 50), 0U);
  EXPECT_GT(check_states(large, 3, 30), 0U);
}

TEST(SwapIntensifyEquivalence, MatchesReferenceWithTiedProfits) {
  const auto base = mkp::generate_gk({.num_items = 250, .num_constraints = 10}, 54);
  EXPECT_GT(check_states(with_tied_profits(base, 7), 4, 40), 0U);
}

TEST(SwapIntensifyEquivalence, MatchesReferenceWithNonIntegralWeights) {
  const auto base = mkp::generate_gk({.num_items = 250, .num_constraints = 10}, 55);
  EXPECT_GT(check_states(with_tenth_weights(base), 5, 40), 0U);
  EXPECT_GT(check_states(with_tenth_weights(with_tied_profits(base, 8)), 6, 20), 0U);
}

TEST(SwapIntensifyEquivalence, MatchesReferenceFromEmptyAndFullStarts) {
  const auto inst = mkp::generate_gk({.num_items = 100, .num_constraints = 5}, 56);
  mkp::Solution empty(inst);
  expect_same_swaps(empty);
  mkp::Solution full(inst);
  for (std::size_t j = 0; j < inst.num_items(); ++j) full.add(j);
  expect_same_swaps(full);
}

TEST(SwapIntensifyEquivalence, MatchesReferencePastTheMaskTable) {
  // One item more than the scan builds its mask table for: it computes the
  // higher-profit words from the profits instead.
  const auto inst = mkp::generate_gk(
      {.num_items = kMaxSwapMaskItems + 1, .num_constraints = 2}, 57);
  Rng rng(9);
  for (int k = 0; k < 2; ++k) {
    auto start = bounds::greedy_randomized(inst, rng, 4);
    const auto items = start.selected_items();
    for (int d = 0; d < 3; ++d) start.drop(items[rng.index(items.size())]);
    expect_same_swaps(start);
  }
}

TEST(SwapIntensifyEquivalence, MatchesReferenceWithNanAndSignedZeroProfits) {
  // The plain scan admits `in` when !(c_in <= c_out), so a NaN profit on
  // either side admits the pair, and -0.0 ties with +0.0. The NaN items
  // outweigh every capacity: once exchanged out they never fit again, so
  // neither scan can cycle through them. 70 items: the masks span two words.
  const auto base = mkp::generate_gk({.num_items = 70, .num_constraints = 5}, 58);
  const std::size_t nan_items[] = {3, 65};
  std::vector<double> profits(base.num_items());
  for (std::size_t j = 0; j < profits.size(); ++j) profits[j] = static_cast<double>(j % 7);
  profits[66] = -0.0;
  auto weights = weights_of(base);
  for (std::size_t i = 0; i < base.num_constraints(); ++i) {
    for (const std::size_t j : nan_items) weights[i * 70 + j] = 2 * base.capacity(i) + 1;
  }
  for (const std::size_t j : nan_items) profits[j] = std::numeric_limits<double>::quiet_NaN();
  const auto caps = base.capacities();
  const mkp::Instance inst("nan", profits, std::move(weights),
                           std::vector<double>(caps.begin(), caps.end()));
  Rng rng(10);
  std::size_t swaps = 0;
  for (int k = 0; k < 60; ++k) {
    // random_feasible, not greedy: a greedy order sorts by profit density.
    auto start = bounds::random_feasible(inst, rng);
    if (k % 2 == 1) {
      for (const std::size_t j : nan_items) start.add(j);
    }
    SCOPED_TRACE(::testing::Message() << "state " << k);
    swaps += expect_same_swaps(start);
  }
  EXPECT_GT(swaps, 0U);
}

TEST(Oscillation, AlwaysReturnsFeasible) {
  const auto inst = mkp::generate_gk({.num_items = 50, .num_constraints = 5}, 9);
  auto s = bounds::greedy_construct(inst);
  Rng rng(1);
  for (int round = 0; round < 5; ++round) {
    oscillation_intensify(s, 6, rng);
    EXPECT_TRUE(s.is_feasible());
    EXPECT_TRUE(s.check_consistency());
  }
}

TEST(Oscillation, DepthLimitBoundsExcursion) {
  const auto inst = mkp::generate_gk({.num_items = 50, .num_constraints = 5}, 10);
  auto s = bounds::greedy_construct(inst);
  Rng rng(2);
  IntensifyStats stats;
  oscillation_intensify(s, 4, rng, &stats);
  EXPECT_LE(stats.oscillation_adds, 4U);
}

TEST(Oscillation, ZeroDepthIsRepairPlusFill) {
  const auto inst = mkp::generate_gk({.num_items = 30, .num_constraints = 4}, 11);
  auto s = bounds::greedy_construct(inst);
  const double before = s.value();
  Rng rng(3);
  oscillation_intensify(s, 0, rng);
  // Feasible maximal input with no excursion: value unchanged.
  EXPECT_DOUBLE_EQ(s.value(), before);
}

TEST(Oscillation, StatsAccumulateDrops) {
  const auto inst = mkp::generate_gk({.num_items = 50, .num_constraints = 5}, 12);
  auto s = bounds::greedy_construct(inst);
  Rng rng(4);
  IntensifyStats stats;
  oscillation_intensify(s, 8, rng, &stats);
  // Whatever was added beyond feasibility must have been dropped again
  // (possibly along with original items).
  EXPECT_GE(stats.oscillation_drops, 0U);
  EXPECT_TRUE(s.is_feasible());
}

class OscillationSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(OscillationSweep, FeasibleAtEveryDepth) {
  const auto inst = mkp::generate_fp({.num_items = 40, .num_constraints = 6}, 13);
  auto s = bounds::greedy_construct(inst);
  Rng rng(GetParam());
  oscillation_intensify(s, GetParam(), rng);
  EXPECT_TRUE(s.is_feasible());
}

INSTANTIATE_TEST_SUITE_P(Depths, OscillationSweep,
                         ::testing::Values(0, 1, 2, 3, 5, 8, 13, 21));

}  // namespace
}  // namespace pts::tabu
