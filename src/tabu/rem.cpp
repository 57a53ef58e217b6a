#include "tabu/rem.hpp"

#include "util/check.hpp"

namespace pts::tabu {

ReverseElimination::ReverseElimination(std::size_t num_items)
    : num_items_(num_items),
      forbidden_(num_items, false),
      residual_(num_items, false) {}

void ReverseElimination::record_move(std::span<const std::size_t> flipped) {
  moves_.emplace_back(flipped.begin(), flipped.end());
}

void ReverseElimination::compute_forbidden() {
  for (std::size_t j = 0; j < num_items_; ++j) forbidden_[j] = false;
  if (moves_.empty()) return;

  // residual_ holds the symmetric difference between the current solution
  // and the solution before move k, for decreasing k. Track its size and the
  // xor of member indices: when the size is 1, the xor IS the lone member.
  for (std::size_t j = 0; j < num_items_; ++j) residual_[j] = false;
  std::size_t residual_size = 0;
  std::size_t residual_xor = 0;

  for (std::size_t k = moves_.size(); k-- > 0;) {
    for (std::size_t j : moves_[k]) {
      PTS_DCHECK(j < num_items_);
      ++flips_scanned_;
      if (residual_[j]) {
        residual_[j] = false;
        --residual_size;
      } else {
        residual_[j] = true;
        ++residual_size;
      }
      residual_xor ^= j;
    }
    if (residual_size == 1) forbidden_[residual_xor] = true;
  }
}

std::size_t ReverseElimination::forbidden_count() const {
  std::size_t count = 0;
  for (bool f : forbidden_) count += f ? 1 : 0;
  return count;
}

}  // namespace pts::tabu
