// UBSan smoke over the native kernel surface. This binary recompiles the
// four TUs behind the runtime SIMD dispatch — tabu/kernels.cpp,
// tabu/kernels_simd.cpp, util/bitvec.cpp, util/simd.cpp — with
// -fsanitize=undefined -fno-sanitize-recover, then drives full candidate
// sweeps through every dispatch kind the CPU supports (the default dispatch
// is the best of them). Any misaligned vector load, padded-lane over-read turned into
// UB, or out-of-range shift in the word scans aborts the run; any
// scalar/vector divergence fails it with a diagnostic. Registered in the
// default ctest sweep (no sanitizer build required) so the vector paths get
// UBSan coverage on every run, mirroring what a -DPTS_ENABLE_NATIVE=ON
// sanitizer job would see.
#include <bit>
#include <cstdio>
#include <cstring>

#include "bounds/greedy.hpp"
#include "mkp/generator.hpp"
#include "tabu/kernels.hpp"
#include "util/bitvec.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace {

using namespace pts;

/// Mid-search state with mixed fit/non-fit candidates, same shape the tabu
/// engine scans (see bench_kernels.cpp).
mkp::Solution sweep_state(const mkp::Instance& inst, std::uint64_t seed) {
  auto x = bounds::greedy_construct(inst);
  Rng rng(seed);
  const auto selected = x.selected_items();
  for (std::size_t k = 0; k < selected.size() / 4; ++k) {
    const std::size_t j = selected[rng.index(selected.size())];
    if (x.contains(j)) x.drop(j);
  }
  return x;
}

bool bitwise_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

int check_sweep(const mkp::Instance& inst, std::uint64_t seed) {
  const auto x = sweep_state(inst, seed);
  int failures = 0;
  const auto vector_kind = simd::best_supported();
  // The hoisted sweep evaluator runs the same bodies through cached raw
  // pointers plus the certain-fit score-only path — UBSan over it too.
  const tabu::kernels::AddScan scan(x, vector_kind);
  for (std::size_t j = 0; j < inst.num_items(); ++j) {
    if (x.contains(j)) continue;
    const auto scalar = tabu::kernels::fit_and_score_scalar(x, j);
    const auto vec = tabu::kernels::fit_and_score_vector(x, j, vector_kind);
    const auto hoisted = scan(j);
    if (scalar.fit != vec.fit ||
        (scalar.fit && !bitwise_equal(scalar.score, vec.score))) {
      std::fprintf(stderr,
                   "DIVERGENCE %s item %zu: scalar (%d, %.17g) vs %s (%d, %.17g)\n",
                   inst.name().c_str(), j, scalar.fit, scalar.score,
                   simd::to_string(vector_kind), vec.fit, vec.score);
      ++failures;
    }
    if (scalar.fit != hoisted.fit ||
        (scalar.fit && !bitwise_equal(scalar.score, hoisted.score))) {
      std::fprintf(stderr,
                   "ADDSCAN DIVERGENCE %s item %zu: scalar (%d, %.17g) vs "
                   "hoisted (%d, %.17g)\n",
                   inst.name().c_str(), j, scalar.fit, scalar.score, hoisted.fit,
                   hoisted.score);
      ++failures;
    }
    if (scalar.fit && tabu::kernels::prune_add_candidate(x, j)) {
      std::fprintf(stderr, "PRUNE LIED %s item %zu: pruned but fits\n",
                   inst.name().c_str(), j);
      ++failures;
    }
  }
  // Word scans over the selection mask, both polarities: next_one's
  // vectorized word skip for the ones, and for the zeros the open-item
  // words (~word, tail bits past n trimmed) that MoveKernel::sweep_add walks
  // — the shift/mask arithmetic in both is exactly where UBSan finds
  // off-by-ones.
  const BitVec& bits = x.bits();
  const std::size_t n = inst.num_items();
  std::size_t ones = 0;
  for (std::size_t j = bits.next_one(0); j < n; j = bits.next_one(j + 1)) {
    ++ones;
  }
  std::size_t zeros = 0;
  for (std::size_t w = 0; (w << 6) < n; ++w) {
    const std::size_t base = w << 6;
    std::uint64_t open = ~bits.words()[w];
    if (n - base < 64) open &= (1ULL << (n - base)) - 1;
    zeros += static_cast<std::size_t>(std::popcount(open));
  }
  if (ones != bits.popcount() || ones + zeros != n) {
    std::fprintf(stderr, "SCAN MISCOUNT %s: %zu ones + %zu zeros != %zu items\n",
                 inst.name().c_str(), ones, zeros, n);
    ++failures;
  }
  return failures;
}

}  // namespace

int main() {
  std::printf("ubsan native smoke: dispatch default %s, best %s\n",
              simd::to_string(simd::active()),
              simd::to_string(simd::best_supported()));
  int failures = 0;
  // Shapes straddle the lane width: n and m both prime-ish and lane-aligned,
  // including the paper's widest (30 rows) where the padded tail is longest.
  const struct {
    std::size_t n, m;
  } shapes[] = {{7, 3}, {64, 4}, {100, 5}, {250, 10}, {500, 25}, {500, 30}};
  for (const auto& shape : shapes) {
    for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
      const auto gk = mkp::generate_gk(
          {.num_items = shape.n, .num_constraints = shape.m}, seed);
      failures += check_sweep(gk, seed);
      const auto uncor =
          mkp::generate_uncorrelated(shape.n, shape.m, seed, 1000.0, 0.5);
      failures += check_sweep(uncor, seed);
    }
  }
  if (failures != 0) {
    std::fprintf(stderr, "FAIL: %d divergences\n", failures);
    return 1;
  }
  std::printf("ok\n");
  return 0;
}
