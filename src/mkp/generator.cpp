#include "mkp/generator.hpp"

#include <cmath>
#include <string>

namespace pts::mkp {

namespace {

std::string default_name(const std::string& prefix, std::size_t m, std::size_t n,
                         std::uint64_t seed) {
  return prefix + "-" + std::to_string(m) + "x" + std::to_string(n) + "-s" +
         std::to_string(seed);
}

/// b_i = max(tightness * rowsum, max row entry) so no single item is
/// trivially excluded and the empty solution is never the only feasible one.
std::vector<double> capacities_from_tightness(const std::vector<double>& weights,
                                              std::size_t m, std::size_t n,
                                              double tightness) {
  std::vector<double> capacities(m);
  for (std::size_t i = 0; i < m; ++i) {
    double row_sum = 0.0;
    double row_max = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      const double w = weights[i * n + j];
      row_sum += w;
      row_max = std::max(row_max, w);
    }
    capacities[i] = std::floor(std::max(tightness * row_sum, row_max));
  }
  return capacities;
}

}  // namespace

Instance generate_gk(const GkConfig& config, std::uint64_t seed, const std::string& name) {
  PTS_CHECK(config.num_items > 0 && config.num_constraints > 0);
  PTS_CHECK(config.tightness > 0.0 && config.tightness <= 1.0);
  Rng rng(seed);
  const std::size_t n = config.num_items;
  const std::size_t m = config.num_constraints;

  std::vector<double> weights(m * n);
  for (auto& w : weights) {
    w = static_cast<double>(rng.uniform_int(1, static_cast<std::int64_t>(config.weight_max)));
  }

  std::vector<double> profits(n);
  for (std::size_t j = 0; j < n; ++j) {
    double column_sum = 0.0;
    for (std::size_t i = 0; i < m; ++i) column_sum += weights[i * n + j];
    profits[j] = std::ceil(column_sum / static_cast<double>(m) +
                           config.profit_noise * rng.uniform01());
  }

  auto capacities = capacities_from_tightness(weights, m, n, config.tightness);
  Instance instance(name.empty() ? default_name("gk", m, n, seed) : name,
                    std::move(profits), std::move(weights), std::move(capacities));
  return instance;
}

Instance generate_fp(const FpConfig& config, std::uint64_t seed, const std::string& name) {
  PTS_CHECK(config.num_items > 0 && config.num_constraints > 0);
  Rng rng(seed);
  const std::size_t n = config.num_items;
  const std::size_t m = config.num_constraints;

  std::vector<double> weights(m * n);
  for (auto& w : weights) {
    w = static_cast<double>(rng.uniform_int(1, static_cast<std::int64_t>(config.weight_max)));
  }

  // FP problems are "hard for size-reduction methods": profits weakly tied to
  // weights so no variable can be fixed by dominance alone.
  std::vector<double> profits(n);
  for (std::size_t j = 0; j < n; ++j) {
    double column_sum = 0.0;
    for (std::size_t i = 0; i < m; ++i) column_sum += weights[i * n + j];
    const double base = column_sum / static_cast<double>(m);
    profits[j] = std::max(1.0, std::floor(base + rng.uniform_real(-0.3, 0.3) * base + 0.5));
  }

  auto capacities = capacities_from_tightness(weights, m, n, config.tightness);
  return Instance(name.empty() ? default_name("fp", m, n, seed) : name, std::move(profits),
                  std::move(weights), std::move(capacities));
}

std::vector<Instance> generate_fp57(std::uint64_t seed) {
  // 57 problems spanning the published ranges n in [6,105], m in [2,30].
  // Grid: sizes ramp up with index; every problem is deterministically
  // derived from (seed, index).
  std::vector<Instance> instances;
  instances.reserve(57);
  static constexpr std::size_t kItemGrid[] = {6,  8,  10, 12, 15, 18, 20, 24, 28, 30,
                                              34, 38, 40, 45, 50, 55, 60, 70, 80, 90,
                                              100, 105};
  static constexpr std::size_t kConstraintGrid[] = {2, 4, 5, 10, 30};
  std::size_t index = 0;
  for (std::size_t n : kItemGrid) {
    for (std::size_t m : kConstraintGrid) {
      if (index >= 57) break;
      if (m > n) continue;  // keep shapes sensible for the smallest problems
      FpConfig config;
      config.num_items = n;
      config.num_constraints = m;
      ++index;
      instances.push_back(generate_fp(config, seed + index * 7919ULL,
                                      "fp57-" + std::to_string(index)));
    }
    if (index >= 57) break;
  }
  PTS_CHECK(instances.size() == 57);
  return instances;
}

Instance generate_uncorrelated(std::size_t num_items, std::size_t num_constraints,
                               std::uint64_t seed, double max_value, double tightness) {
  Rng rng(seed);
  std::vector<double> weights(num_constraints * num_items);
  for (auto& w : weights) {
    w = static_cast<double>(rng.uniform_int(1, static_cast<std::int64_t>(max_value)));
  }
  std::vector<double> profits(num_items);
  for (auto& c : profits) {
    c = static_cast<double>(rng.uniform_int(1, static_cast<std::int64_t>(max_value)));
  }
  auto capacities =
      capacities_from_tightness(weights, num_constraints, num_items, tightness);
  return Instance(default_name("uncor", num_constraints, num_items, seed),
                  std::move(profits), std::move(weights), std::move(capacities));
}

Instance generate_weakly_correlated(std::size_t num_items, std::size_t num_constraints,
                                    std::uint64_t seed, double max_value, double spread,
                                    double tightness) {
  Rng rng(seed);
  std::vector<double> weights(num_constraints * num_items);
  for (auto& w : weights) {
    w = static_cast<double>(rng.uniform_int(1, static_cast<std::int64_t>(max_value)));
  }
  std::vector<double> profits(num_items);
  for (std::size_t j = 0; j < num_items; ++j) {
    const double base = weights[j];  // first constraint row drives correlation
    profits[j] = std::max(
        1.0, std::floor(base + rng.uniform_real(-spread, spread) + 0.5));
  }
  auto capacities =
      capacities_from_tightness(weights, num_constraints, num_items, tightness);
  return Instance(default_name("weak", num_constraints, num_items, seed),
                  std::move(profits), std::move(weights), std::move(capacities));
}

std::vector<GkClass> generate_gk_table1_classes(std::uint64_t seed,
                                                std::size_t instances_per_class,
                                                double size_scale) {
  // The paper's Table 1 groups: rows for 3xN, 5xN, 10xN, 15xN, 25xN ending at
  // 25x500. size_scale < 1 shrinks n for quick benchmark runs.
  struct Shape {
    std::size_t m;
    std::size_t n;
  };
  static constexpr Shape kShapes[] = {{3, 10},  {3, 100},  {5, 100},  {5, 200},
                                      {10, 100}, {10, 250}, {15, 250}, {15, 500},
                                      {25, 250}, {25, 500}};
  std::vector<GkClass> classes;
  classes.reserve(std::size(kShapes));
  std::uint64_t salt = 0;
  for (const auto& shape : kShapes) {
    GkClass cls;
    const auto n = std::max<std::size_t>(
        shape.m, static_cast<std::size_t>(std::llround(
                     static_cast<double>(shape.n) * size_scale)));
    cls.label = std::to_string(shape.m) + "x" + std::to_string(n);
    for (std::size_t k = 0; k < instances_per_class; ++k) {
      GkConfig config;
      config.num_constraints = shape.m;
      config.num_items = n;
      cls.instances.push_back(generate_gk(config, seed + 104729ULL * (++salt),
                                          cls.label + "-" + std::to_string(k + 1)));
    }
    classes.push_back(std::move(cls));
  }
  return classes;
}

}  // namespace pts::mkp
