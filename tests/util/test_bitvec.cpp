#include "util/bitvec.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"
#include "util/simd.hpp"

namespace pts {
namespace {

TEST(BitVec, StartsAllZero) {
  BitVec v(100);
  EXPECT_EQ(v.size(), 100U);
  EXPECT_EQ(v.popcount(), 0U);
  for (std::size_t i = 0; i < 100; ++i) EXPECT_FALSE(v.test(i));
}

TEST(BitVec, SetResetFlip) {
  BitVec v(70);
  v.set(0);
  v.set(63);
  v.set(64);
  v.set(69);
  EXPECT_TRUE(v.test(0));
  EXPECT_TRUE(v.test(63));
  EXPECT_TRUE(v.test(64));
  EXPECT_TRUE(v.test(69));
  EXPECT_EQ(v.popcount(), 4U);
  v.reset(63);
  EXPECT_FALSE(v.test(63));
  v.flip(63);
  EXPECT_TRUE(v.test(63));
  v.flip(63);
  EXPECT_FALSE(v.test(63));
  EXPECT_EQ(v.popcount(), 3U);
}

TEST(BitVec, AssignChoosesDirection) {
  BitVec v(8);
  v.assign(3, true);
  EXPECT_TRUE(v.test(3));
  v.assign(3, false);
  EXPECT_FALSE(v.test(3));
}

TEST(BitVec, ClearAll) {
  BitVec v(130);
  for (std::size_t i = 0; i < 130; i += 3) v.set(i);
  v.clear_all();
  EXPECT_EQ(v.popcount(), 0U);
}

TEST(BitVec, HammingDistanceBasics) {
  BitVec a(65), b(65);
  EXPECT_EQ(a.hamming_distance(b), 0U);
  a.set(0);
  a.set(64);
  EXPECT_EQ(a.hamming_distance(b), 2U);
  b.set(0);
  EXPECT_EQ(a.hamming_distance(b), 1U);
  b.set(10);
  EXPECT_EQ(a.hamming_distance(b), 2U);
}

TEST(BitVec, HammingIsSymmetric) {
  Rng rng(3);
  BitVec a(200), b(200);
  for (std::size_t i = 0; i < 200; ++i) {
    if (rng.bernoulli(0.5)) a.set(i);
    if (rng.bernoulli(0.5)) b.set(i);
  }
  EXPECT_EQ(a.hamming_distance(b), b.hamming_distance(a));
}

TEST(BitVec, HammingEqualsPopcountAgainstZero) {
  Rng rng(4);
  BitVec a(150), zero(150);
  for (std::size_t i = 0; i < 150; ++i) {
    if (rng.bernoulli(0.3)) a.set(i);
  }
  EXPECT_EQ(a.hamming_distance(zero), a.popcount());
}

TEST(BitVec, EqualVectorsHashEqual) {
  BitVec a(90), b(90);
  a.set(5);
  a.set(77);
  b.set(5);
  b.set(77);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
}

TEST(BitVec, DifferentContentUsuallyHashesDifferent) {
  BitVec a(64), b(64);
  a.set(1);
  b.set(2);
  EXPECT_NE(a.hash(), b.hash());
}

TEST(BitVec, HashDependsOnLength) {
  BitVec a(10), b(20);
  EXPECT_NE(a.hash(), b.hash());
}

TEST(BitVec, EqualityComparesContent) {
  BitVec a(33), b(33);
  EXPECT_EQ(a, b);
  a.set(32);
  EXPECT_NE(a, b);
}

TEST(BitVec, EmptyVector) {
  BitVec v;
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.size(), 0U);
  EXPECT_EQ(v.popcount(), 0U);
}

TEST(BitVec, NextOneScansAcrossWords) {
  BitVec v(200);
  v.set(3);
  v.set(64);
  v.set(199);
  EXPECT_EQ(v.next_one(0), 3U);
  EXPECT_EQ(v.next_one(3), 3U);   // inclusive start
  EXPECT_EQ(v.next_one(4), 64U);  // skips the empty rest of word 0
  EXPECT_EQ(v.next_one(65), 199U);
  EXPECT_EQ(v.next_one(200), 200U);  // past the end
}

TEST(BitVec, NextScansAgreeWithPerBitLoop) {
  Rng rng(11);
  BitVec v(301);
  for (std::size_t i = 0; i < 301; ++i) {
    if (rng.bernoulli(0.7)) v.set(i);
  }
  std::size_t ones = 0;
  for (std::size_t j = v.next_one(0); j < v.size(); j = v.next_one(j + 1)) {
    EXPECT_TRUE(v.test(j));
    ++ones;
  }
  EXPECT_EQ(ones, v.popcount());
}

// The vector word-skip paths (util/bitvec.cpp) only fast-forward over word
// groups proven entirely zero, so next_one must return the
// EXACT scalar answer under every dispatch kind — across word-boundary
// starts, dense/sparse/empty/full patterns, and sizes that leave 0..3
// trailing words after the 4-word groups.
TEST(BitVecSimd, ScansMatchScalarUnderVectorDispatch) {
  const simd::Kind kind = simd::best_supported();
  if (kind == simd::Kind::kScalar) {
    GTEST_SKIP() << "no vector scan on this CPU/build";
  }
  const simd::Kind saved = simd::active();
  Rng rng(0xB17);
  for (const std::size_t nbits : {1UL, 63UL, 64UL, 65UL, 128UL, 200UL, 257UL,
                                  500UL, 1000UL, 4096UL, 4100UL}) {
    for (int density = 0; density <= 4; ++density) {
      BitVec v(nbits);
      if (density == 4) {
        for (std::size_t i = 0; i < nbits; ++i) v.set(i);  // all-ones
      } else if (density > 0) {
        // density 1: ~1/64 set (long zero runs); 2: half; 3: ~63/64 set
        const std::size_t mod = density == 1 ? 64 : density == 2 ? 2 : 64;
        for (std::size_t i = 0; i < nbits; ++i) {
          const bool bit = density == 3 ? rng.index(mod) != 0 : rng.index(mod) == 0;
          if (bit) v.set(i);
        }
      }
      for (int probe = 0; probe < 64; ++probe) {
        const std::size_t from = rng.index(nbits + 8);
        ASSERT_TRUE(simd::set_active(simd::Kind::kScalar));
        const std::size_t one_scalar = v.next_one(from);
        ASSERT_TRUE(simd::set_active(kind));
        ASSERT_EQ(v.next_one(from), one_scalar)
            << "nbits=" << nbits << " density=" << density << " from=" << from;
      }
    }
  }
  simd::set_active(saved);
}

}  // namespace
}  // namespace pts
