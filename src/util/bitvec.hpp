#pragma once
// Compact bit vector used for 0-1 solution storage, Hamming distances and
// solution hashing. Word-parallel operations keep the master's pool-spread
// analysis (pairwise Hamming distances over B-best pools) cheap.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/check.hpp"

namespace pts {

class BitVec {
 public:
  BitVec() = default;
  explicit BitVec(std::size_t nbits)
      : nbits_(nbits), words_((nbits + 63) / 64, 0) {}

  [[nodiscard]] std::size_t size() const { return nbits_; }
  [[nodiscard]] bool empty() const { return nbits_ == 0; }

  [[nodiscard]] bool test(std::size_t i) const {
    PTS_DCHECK(i < nbits_);
    return (words_[i >> 6] >> (i & 63)) & 1ULL;
  }

  void set(std::size_t i) {
    PTS_DCHECK(i < nbits_);
    words_[i >> 6] |= (1ULL << (i & 63));
  }

  void reset(std::size_t i) {
    PTS_DCHECK(i < nbits_);
    words_[i >> 6] &= ~(1ULL << (i & 63));
  }

  void assign(std::size_t i, bool value) { value ? set(i) : reset(i); }

  void flip(std::size_t i) {
    PTS_DCHECK(i < nbits_);
    words_[i >> 6] ^= (1ULL << (i & 63));
  }

  void clear_all() {
    for (auto& w : words_) w = 0;
  }

  [[nodiscard]] std::size_t popcount() const;

  /// Index of the first set bit at position >= from, or size() if none.
  /// Word-level scan: skipping a fully-clear 64-bit word costs one compare.
  [[nodiscard]] std::size_t next_one(std::size_t from) const;

  /// Number of positions where the two vectors differ. Sizes must match.
  [[nodiscard]] std::size_t hamming_distance(const BitVec& other) const;

  /// 64-bit content hash (FNV-1a over words); equal vectors hash equal.
  [[nodiscard]] std::uint64_t hash() const;

  bool operator==(const BitVec& other) const = default;

  [[nodiscard]] const std::vector<std::uint64_t>& words() const { return words_; }

 private:
  std::size_t nbits_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace pts
