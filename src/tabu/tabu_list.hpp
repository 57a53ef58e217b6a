#pragma once
// Recency-based tabu memory over move attributes. Following the standard MKP
// practice (and the paper's Drop/Add move), the tabu attribute is per item
// and per direction: a recently dropped item may not be re-added, a recently
// added item may not be dropped, for `tenure` iterations. The "list" is
// realised as per-item expiry iterations — O(1) queries, no scanning —
// which is semantically a FIFO list of length == tenure.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/check.hpp"

namespace pts::tabu {

class TabuList {
 public:
  explicit TabuList(std::size_t num_items)
      : add_expiry_(num_items, 0), drop_expiry_(num_items, 0) {}

  /// Item j was just dropped: forbid re-adding it until iter + tenure.
  void forbid_add(std::size_t j, std::uint64_t iter, std::size_t tenure) {
    PTS_DCHECK(j < add_expiry_.size());
    add_expiry_[j] = iter + tenure;
  }

  /// Item j was just added: forbid dropping it until iter + tenure.
  void forbid_drop(std::size_t j, std::uint64_t iter, std::size_t tenure) {
    PTS_DCHECK(j < drop_expiry_.size());
    drop_expiry_[j] = iter + tenure;
  }

  [[nodiscard]] bool is_add_tabu(std::size_t j, std::uint64_t iter) const {
    PTS_DCHECK(j < add_expiry_.size());
    return add_expiry_[j] > iter;
  }

  [[nodiscard]] bool is_drop_tabu(std::size_t j, std::uint64_t iter) const {
    PTS_DCHECK(j < drop_expiry_.size());
    return drop_expiry_[j] > iter;
  }

  void clear() {
    for (auto& e : add_expiry_) e = 0;
    for (auto& e : drop_expiry_) e = 0;
  }

  [[nodiscard]] std::size_t num_items() const { return add_expiry_.size(); }

 private:
  std::vector<std::uint64_t> add_expiry_;
  std::vector<std::uint64_t> drop_expiry_;
};

}  // namespace pts::tabu
