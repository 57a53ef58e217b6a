#include "util/bitvec.hpp"

#include <bit>

#include "util/simd.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define PTS_HAVE_AVX2_BITSCAN 1
#include <immintrin.h>
#else
#define PTS_HAVE_AVX2_BITSCAN 0
#endif
#if defined(__aarch64__)
#define PTS_HAVE_NEON_BITSCAN 1
#include <arm_neon.h>
#else
#define PTS_HAVE_NEON_BITSCAN 0
#endif

namespace pts {

namespace {

// Word-skip helper for next_one: given that word `k` was already examined
// (and was zero), return the first index in (k, nwords) whose word is
// nonzero, or nwords. The vector variants skip 4 (AVX2) or 2 (NEON) words
// per compare and land on the same index as the scalar loop: they only ever
// FAST-FORWARD over groups proven entirely zero, then let a scalar loop
// pinpoint the word inside the final group.

std::size_t skip_zero_words_scalar(const std::uint64_t* words, std::size_t k,
                                   std::size_t nwords) {
  while (++k < nwords) {
    if (words[k] != 0) break;
  }
  return k;
}

#if PTS_HAVE_AVX2_BITSCAN

__attribute__((target("avx2"))) std::size_t skip_zero_words_avx2(
    const std::uint64_t* words, std::size_t k, std::size_t nwords) {
  ++k;
  for (; k + 4 <= nwords; k += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(words + k));
    if (!_mm256_testz_si256(v, v)) break;  // some word in the group is nonzero
  }
  for (; k < nwords; ++k) {
    if (words[k] != 0) break;
  }
  return k;
}

#endif  // PTS_HAVE_AVX2_BITSCAN

#if PTS_HAVE_NEON_BITSCAN

std::size_t skip_zero_words_neon(const std::uint64_t* words, std::size_t k,
                                 std::size_t nwords) {
  ++k;
  for (; k + 2 <= nwords; k += 2) {
    const uint64x2_t v = vld1q_u64(words + k);
    if (vmaxvq_u32(vreinterpretq_u32_u64(v)) != 0) break;
  }
  for (; k < nwords; ++k) {
    if (words[k] != 0) break;
  }
  return k;
}

#endif  // PTS_HAVE_NEON_BITSCAN

std::size_t skip_zero_words(const std::uint64_t* words, std::size_t k,
                            std::size_t nwords) {
  switch (simd::active()) {
#if PTS_HAVE_AVX2_BITSCAN
    case simd::Kind::kAvx2:
      return skip_zero_words_avx2(words, k, nwords);
#endif
#if PTS_HAVE_NEON_BITSCAN
    case simd::Kind::kNeon:
      return skip_zero_words_neon(words, k, nwords);
#endif
    default:
      return skip_zero_words_scalar(words, k, nwords);
  }
}

}  // namespace

std::size_t BitVec::popcount() const {
  std::size_t total = 0;
  for (std::uint64_t w : words_) total += static_cast<std::size_t>(std::popcount(w));
  return total;
}

std::size_t BitVec::next_one(std::size_t from) const {
  if (from >= nbits_) return nbits_;
  std::size_t k = from >> 6;
  // Mask off bits below `from` in the first word; whole-word skipping past
  // it is vectorized (4 words per compare under AVX2) but lands on exactly
  // the word the scalar scan would.
  std::uint64_t w = words_[k] & (~0ULL << (from & 63));
  while (true) {
    if (w != 0) {
      const std::size_t bit = (k << 6) + static_cast<std::size_t>(std::countr_zero(w));
      return bit < nbits_ ? bit : nbits_;
    }
    k = skip_zero_words(words_.data(), k, words_.size());
    if (k == words_.size()) return nbits_;
    w = words_[k];
  }
}

std::size_t BitVec::hamming_distance(const BitVec& other) const {
  PTS_CHECK(nbits_ == other.nbits_);
  std::size_t total = 0;
  for (std::size_t k = 0; k < words_.size(); ++k) {
    total += static_cast<std::size_t>(std::popcount(words_[k] ^ other.words_[k]));
  }
  return total;
}

std::uint64_t BitVec::hash() const {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint64_t w : words_) {
    h ^= w;
    h *= 0x100000001b3ULL;
  }
  h ^= nbits_;
  h *= 0x100000001b3ULL;
  return h;
}

}  // namespace pts
