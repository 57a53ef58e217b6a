#pragma once
// Instance generators replacing the OR-Library data files (not shipped
// offline — see DESIGN.md, data substitution note).
//
// * generate_gk: the standard Glover–Kochenberger-style construction used
//   throughout the MKP literature — a_ij ~ U{1..1000},
//   b_i = tightness * sum_j a_ij, and profits correlated with aggregate
//   weight: c_j = sum_i a_ij / m + 500 * u_j, u_j ~ U(0,1), rounded up.
//   Correlated profits are what makes these instances hard for greedy
//   methods (density is nearly uniform).
// * generate_fp: Fréville–Plateau-style "hard small" problems: the published
//   set spans n in [6,105], m in [2,30] with tight capacities; we reproduce
//   that regime with uncorrelated weights and a 0.5 tightness.
// * generate_uncorrelated / weakly correlated: classic knapsack families for
//   tests and ablations.
//
// All values are integer-valued doubles so arithmetic is exact.

#include <cstdint>
#include <vector>

#include "mkp/instance.hpp"
#include "util/rng.hpp"

namespace pts::mkp {

struct GkConfig {
  std::size_t num_items = 100;
  std::size_t num_constraints = 5;
  double tightness = 0.25;       ///< b_i as a fraction of sum_j a_ij
  double weight_max = 1000.0;    ///< a_ij ~ U{1..weight_max}
  double profit_noise = 500.0;   ///< c_j = colsum/m + profit_noise * u_j
};

Instance generate_gk(const GkConfig& config, std::uint64_t seed,
                     const std::string& name = "");

struct FpConfig {
  std::size_t num_items = 50;
  std::size_t num_constraints = 5;
  double tightness = 0.5;
  double weight_max = 100.0;
};

Instance generate_fp(const FpConfig& config, std::uint64_t seed,
                     const std::string& name = "");

/// The 57-problem Fréville–Plateau-style suite on the published size grid
/// (n from 6 to 105, m from 2 to 30), deterministically seeded.
std::vector<Instance> generate_fp57(std::uint64_t seed);

/// c_j, a_ij independent uniform in {1..max_value}; tight capacities.
Instance generate_uncorrelated(std::size_t num_items, std::size_t num_constraints,
                               std::uint64_t seed, double max_value = 1000.0,
                               double tightness = 0.5);

/// c_j = a_1j + noise in [-spread, spread] (single-row correlation source).
Instance generate_weakly_correlated(std::size_t num_items, std::size_t num_constraints,
                                    std::uint64_t seed, double max_value = 1000.0,
                                    double spread = 100.0, double tightness = 0.5);

/// The paper's Table-1 grid of Glover–Kochenberger classes:
/// m in {3,5,10,15,25} crossed with a size ladder ending at 25x500.
struct GkClass {
  std::string label;            ///< e.g. "10x250"
  std::vector<Instance> instances;
};
std::vector<GkClass> generate_gk_table1_classes(std::uint64_t seed,
                                                std::size_t instances_per_class = 2,
                                                double size_scale = 1.0);

}  // namespace pts::mkp
