#pragma once
// Dantzig's continuous bound for a single knapsack constraint, and the
// aggregate min-over-constraints bound it induces for the MKP. These are the
// cheap per-node bounds of the branch-and-bound exact solver.

#include <cstddef>
#include <span>
#include <vector>

#include "mkp/instance.hpp"

namespace pts::bounds {

/// Continuous single-knapsack bound: max sum c_j x_j s.t. sum w_j x_j <= cap,
/// 0 <= x_j <= 1. `order` must list item indices by descending c_j / w_j
/// (zero-weight items first). Runs in O(n) along the order.
double dantzig_bound(std::span<const double> profits, std::span<const double> weights,
                     std::span<const std::size_t> order, double capacity);

/// Density order for an explicit weight vector (zero weights first).
std::vector<std::size_t> density_order(std::span<const double> profits,
                                       std::span<const double> weights);

/// Upper bound for the full MKP: min over constraints i of the continuous
/// single-constraint bound. Valid because each relaxation keeps one
/// constraint and drops the rest.
double min_constraint_bound(const mkp::Instance& inst);

}  // namespace pts::bounds
