#include "tabu/rem.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace pts::tabu {
namespace {

std::vector<std::size_t> move(std::initializer_list<std::size_t> items) {
  return std::vector<std::size_t>(items);
}

TEST(Rem, EmptyHistoryForbidsNothing) {
  ReverseElimination rem(5);
  rem.compute_forbidden();
  for (std::size_t j = 0; j < 5; ++j) EXPECT_FALSE(rem.is_forbidden(j));
}

TEST(Rem, SingleFlipForbidsItsReversal) {
  ReverseElimination rem(5);
  const auto m = move({2});
  rem.record_move(m);
  rem.compute_forbidden();
  // Flipping 2 again would recreate the pre-move solution.
  EXPECT_TRUE(rem.is_forbidden(2));
  EXPECT_FALSE(rem.is_forbidden(0));
  EXPECT_EQ(rem.forbidden_count(), 1U);
}

TEST(Rem, TwoFlipMoveDoesNotForbidSingles) {
  ReverseElimination rem(5);
  const auto m = move({1, 3});
  rem.record_move(m);
  rem.compute_forbidden();
  // Undoing the move needs both flips; neither single flip returns.
  EXPECT_FALSE(rem.is_forbidden(1));
  EXPECT_FALSE(rem.is_forbidden(3));
}

TEST(Rem, CancellationAcrossMoves) {
  // Move A flips {1,3}; move B flips {3}. Residual after walking B then A:
  // after B: {3} -> forbid 3 (returns to the state between A and B);
  // after A: {1} -> forbid 1 (returns to the initial state).
  ReverseElimination rem(5);
  rem.record_move(move({1, 3}));
  rem.record_move(move({3}));
  rem.compute_forbidden();
  EXPECT_TRUE(rem.is_forbidden(3));
  EXPECT_TRUE(rem.is_forbidden(1));
  EXPECT_EQ(rem.forbidden_count(), 2U);
}

TEST(Rem, NoFalseForbidWhenResidualStaysLarge) {
  ReverseElimination rem(6);
  rem.record_move(move({0, 1}));
  rem.record_move(move({2, 3}));
  rem.record_move(move({4, 5}));
  rem.compute_forbidden();
  EXPECT_EQ(rem.forbidden_count(), 0U);
}

TEST(Rem, RecomputeReflectsLatestHistory) {
  ReverseElimination rem(4);
  rem.record_move(move({0}));
  rem.compute_forbidden();
  EXPECT_TRUE(rem.is_forbidden(0));
  rem.record_move(move({1}));
  rem.compute_forbidden();
  // Now: last move {1} -> forbid 1; walking further, residual {1,0} size 2.
  EXPECT_TRUE(rem.is_forbidden(1));
  EXPECT_FALSE(rem.is_forbidden(0));
}

TEST(Rem, FlipsScannedGrowsQuadratically) {
  // The paper's criticism: each compute walks the whole running list.
  ReverseElimination rem(10);
  for (std::size_t k = 0; k < 10; ++k) {
    rem.record_move(move({k % 10}));
    rem.compute_forbidden();
  }
  // 1 + 2 + ... + 10 = 55 single flips scanned.
  EXPECT_EQ(rem.flips_scanned_total(), 55U);
  EXPECT_EQ(rem.running_list_moves(), 10U);
}

}  // namespace
}  // namespace pts::tabu
