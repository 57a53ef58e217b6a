// Micro-kernel benchmarks (google-benchmark): the inner loops whose cost
// model the paper's work balancing assumes — O(m) add/drop, O(n m) move
// application scaling with nb_drop, plus the LP solve and pool-spread
// kernels the master relies on.
//
// In addition to the google-benchmark suite, a self-timed comparison of the
// fused column-major fit_and_score sweep against the historical two-pass
// row-major scalar path always runs first and writes machine-readable
// results to BENCH_kernels.json (override with --json=PATH). The table has
// three columns per shape — two-pass scalar reference, fused kernel pinned
// to scalar dispatch, fused kernel on the best vector kind — plus the
// core-reduction work comparison on the paper's 10x500 / 30x500 GK shapes.
// Cooperation-round cost is perfbench's `coop-rounds` workload, not this
// file's. `--smoke` skips the google-benchmark suite, shrinks everything to
// well under the ctest timeout, and exits nonzero if the fused kernel fails
// to beat the scalar reference, the vector kind regresses against
// fused-scalar, or the core run misses the full-space best — the
// `bench_smoke_kernels` regression gate.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bounds/core.hpp"
#include "bounds/greedy.hpp"
#include "bounds/reduction.hpp"
#include "bounds/simplex.hpp"
#include "mkp/generator.hpp"
#include "parallel/runner.hpp"
#include "tabu/cets.hpp"
#include "tabu/kernels.hpp"
#include "tabu/moves.hpp"
#include "tabu/path_relink.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace {

using namespace pts;

mkp::Instance bench_instance(std::size_t n, std::size_t m) {
  return mkp::generate_gk({.num_items = n, .num_constraints = m}, 12345);
}

// A mid-search Add-step state: greedy-fill, then drop a few items so there
// are real candidates with mixed fit/non-fit outcomes, like the scans the
// tabu engine actually runs.
mkp::Solution sweep_state(const mkp::Instance& inst) {
  auto x = bounds::greedy_construct(inst);
  Rng rng(99);
  const auto selected = x.selected_items();
  for (std::size_t k = 0; k < selected.size() / 4; ++k) {
    const std::size_t j = selected[rng.index(selected.size())];
    if (x.contains(j)) x.drop(j);
  }
  return x;
}

// One full candidate sweep with the pre-mirror path: every unselected item
// pays the strided fits() pass and, when feasible, the strided score pass.
double sweep_scalar_reference(const mkp::Solution& x) {
  const std::size_t n = x.num_items();
  double acc = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    if (x.contains(j)) continue;
    const auto fs = tabu::kernels::fit_and_score_reference(x, j);
    if (fs.fit) acc += fs.score;
  }
  return acc;
}

// The same sweep through the fused column-major kernel with O(1) pruning,
// walking the unselected items one mask word at a time (~word, countr_zero)
// as the engine's sweep_add does.
double sweep_fused(const mkp::Solution& x) {
  const std::size_t n = x.num_items();
  const auto& words = x.bits().words();
  // One AddScan per sweep, exactly as the engine's select_add does: the
  // dispatch resolve and pointer bundle are hoisted, candidates evaluated
  // through the same prune + checked/certain-fit bodies.
  const tabu::kernels::AddScan scan(x);
  double acc = 0.0;
  for (std::size_t w = 0; (w << 6) < n; ++w) {
    const std::size_t base = w << 6;
    std::uint64_t open = ~words[w];
    if (n - base < 64) open &= (1ULL << (n - base)) - 1;
    for (; open != 0; open &= open - 1) {
      const auto fs = scan(base + static_cast<std::size_t>(std::countr_zero(open)));
      if (fs.fit) acc += fs.score;
    }
  }
  return acc;
}

struct SweepTiming {
  double scalar_ns_per_sweep = 0.0;  ///< two-pass row-major reference
  double fused_ns_per_sweep = 0.0;   ///< fused kernel, dispatch pinned to scalar
  double simd_ns_per_sweep = 0.0;    ///< fused kernel, best supported vector kind
  [[nodiscard]] double speedup() const {
    return fused_ns_per_sweep > 0.0 ? scalar_ns_per_sweep / fused_ns_per_sweep : 0.0;
  }
  [[nodiscard]] double simd_speedup() const {
    return simd_ns_per_sweep > 0.0 ? fused_ns_per_sweep / simd_ns_per_sweep : 0.0;
  }
};

template <typename Fn>
double time_ns_per_call(Fn&& fn, std::size_t reps) {
  volatile double sink = 0.0;
  // Warm-up pass so both paths start with the same cache state.
  sink = sink + fn();
  const auto begin = std::chrono::steady_clock::now();
  for (std::size_t r = 0; r < reps; ++r) sink = sink + fn();
  const auto end = std::chrono::steady_clock::now();
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin).count()) /
         static_cast<double>(reps);
}

SweepTiming time_sweeps(const mkp::Instance& inst, std::size_t reps) {
  const auto x = sweep_state(inst);
  const auto previous = simd::active();
  const auto vector_kind = simd::best_supported();
  SweepTiming timing;
  // Interleave A/B/C/A/B/C halves so no path benefits from running last.
  // The dispatch pin makes the columns honest: "fused" is the PR 1 scalar
  // kernel even on AVX2 hardware, "simd" is the vector path.
  const auto scalar_pass = [&] {
    simd::set_active(simd::Kind::kScalar);
    return time_ns_per_call([&] { return sweep_scalar_reference(x); }, reps / 2);
  };
  const auto fused_pass = [&] {
    simd::set_active(simd::Kind::kScalar);
    return time_ns_per_call([&] { return sweep_fused(x); }, reps / 2);
  };
  const auto simd_pass = [&] {
    simd::set_active(vector_kind);
    return time_ns_per_call([&] { return sweep_fused(x); }, reps / 2);
  };
  // Keep the MINIMUM over three interleaved passes, not an average: a pass
  // that loses the core to a neighbour inflates a mean (and once flipped the
  // A/B verdict on shared CI hardware) but can never deflate a minimum.
  timing.scalar_ns_per_sweep = scalar_pass();
  timing.fused_ns_per_sweep = fused_pass();
  timing.simd_ns_per_sweep = simd_pass();
  for (int pass = 0; pass < 2; ++pass) {
    timing.scalar_ns_per_sweep =
        std::min(timing.scalar_ns_per_sweep, scalar_pass());
    timing.fused_ns_per_sweep = std::min(timing.fused_ns_per_sweep, fused_pass());
    timing.simd_ns_per_sweep = std::min(timing.simd_ns_per_sweep, simd_pass());
  }
  simd::set_active(previous);
  return timing;
}

struct CoreComparison {
  bool engaged = false;
  bool reached = false;          ///< core run reached the full run's best
  double full_best = 0.0;
  double gap_eps = 0.0;          ///< approximate-core tolerance used
  std::uint64_t full_moves = 0;  ///< moves the full-space run spent
  std::uint64_t core_moves = 0;  ///< moves the core run spent to reach it
  std::size_t fixed = 0;         ///< variables the LP fixed
};

/// Full-space run for a fixed round budget, then a core-reduced run chasing
/// the full run's best as target. On the GK family strict (gap_eps = 0)
/// reduced-cost fixing cannot bite — every reduced cost is smaller than the
/// ~1% LP–incumbent gap — so this comparison runs the documented
/// approximate core: the incumbent as lower-bound hint plus a gap_eps of
/// 95% of the remaining LP gap, the classic core-problem trade (a few
/// hundred variables fixed, optimality certificate given up). Everything is
/// seeded, so the moves columns are machine-independent.
CoreComparison compare_core_reduction(std::size_t n, std::size_t m,
                                      std::size_t rounds, std::uint64_t work) {
  const auto inst = bench_instance(n, m);
  parallel::ParallelConfig config;
  config.mode = parallel::CooperationMode::kCooperativeAdaptive;
  config.num_slaves = 3;
  config.search_iterations = rounds;
  config.work_per_slave_round = work;
  config.seed = 13;

  const auto full = run_parallel_tabu_search(inst, config);
  CoreComparison out;
  if (!full.status.ok()) return out;
  out.full_best = full.best_value;
  out.full_moves = full.total_moves;

  auto core_config = config;
  core_config.core.enabled = true;
  core_config.core.min_fixed_fraction = 0.0;
  core_config.core.lower_bound_hint = full.best_value;
  // One strict probe for the LP objective, then 95% of the gap as the
  // approximate-core tolerance.
  const auto strict = bounds::build_core_problem(inst, core_config.core);
  if (strict.fixing.lp_solved) {
    out.gap_eps =
        0.95 * std::max(0.0, strict.fixing.lp_objective - full.best_value);
  }
  core_config.core.gap_eps = out.gap_eps;
  core_config.target_value = full.best_value;
  core_config.search_iterations = rounds * 4;  // headroom; target stops it early
  const auto core = run_parallel_tabu_search(inst, core_config);
  if (!core.status.ok()) return out;
  out.engaged = core.core_engaged;
  out.fixed = core.core_fixed_zero + core.core_fixed_one;
  out.reached = core.best_value >= full.best_value;
  out.core_moves = core.total_moves;
  return out;
}

/// Writes BENCH_kernels.json and returns 0 when the fused kernel is no more
/// than `tolerance` slower than the scalar reference on every shape AND the
/// vector kind never regresses against fused-scalar.
int run_kernel_comparison(const std::string& json_path, bool smoke) {
  struct Shape {
    std::size_t m;
    std::size_t n;
  };
  // 25x500 is the paper's largest GK shape — the acceptance target; 10x500
  // and 30x500 are the core-reduction shapes, timed here too so the sweep
  // columns and the core section describe the same instances.
  static constexpr Shape kShapes[] = {
      {5, 100}, {10, 250}, {10, 500}, {25, 500}, {30, 500}};
  const std::size_t reps = smoke ? 1200 : 20000;
  constexpr double kTolerance = 1.10;  // fail only if >10% slower

  const auto vector_kind = simd::best_supported();
  std::string json = "{\n  \"unit\": \"ns_per_sweep\",\n  \"reps\": " +
                     std::to_string(reps) + ",\n  \"simd_kind\": \"" +
                     simd::to_string(vector_kind) + "\",\n  \"shapes\": [\n";
  bool ok = true;
  for (std::size_t s = 0; s < std::size(kShapes); ++s) {
    const auto& shape = kShapes[s];
    const auto inst = bench_instance(shape.n, shape.m);
    // A genuine kernel regression fails EVERY measurement; a measurement that
    // lost its core to a noisy neighbour fails one. Re-measure a failing
    // shape before calling it a regression — the 10% tolerance itself never
    // loosens, only the noise has to lose three times in a row.
    const auto within_tolerance = [](const SweepTiming& t) {
      return t.fused_ns_per_sweep <= t.scalar_ns_per_sweep * kTolerance &&
             t.simd_ns_per_sweep <= t.fused_ns_per_sweep * kTolerance;
    };
    auto timing = time_sweeps(inst, reps);
    for (int retry = 0; retry < 2 && !within_tolerance(timing); ++retry) {
      timing = time_sweeps(inst, reps);
    }
    ok = ok && within_tolerance(timing);
    char row[320];
    std::snprintf(row, sizeof(row),
                  "    {\"m\": %zu, \"n\": %zu, \"scalar_ns\": %.1f, "
                  "\"fused_ns\": %.1f, \"simd_ns\": %.1f, \"speedup\": %.2f, "
                  "\"simd_speedup\": %.2f}%s\n",
                  shape.m, shape.n, timing.scalar_ns_per_sweep,
                  timing.fused_ns_per_sweep, timing.simd_ns_per_sweep,
                  timing.speedup(), timing.simd_speedup(),
                  s + 1 < std::size(kShapes) ? "," : "");
    json += row;
    std::printf(
        "fit_and_score sweep %zux%zu: scalar %.0f ns, fused %.0f ns, "
        "%s %.0f ns (%.2fx fused, %.2fx simd-over-fused)\n",
        shape.m, shape.n, timing.scalar_ns_per_sweep, timing.fused_ns_per_sweep,
        simd::to_string(vector_kind), timing.simd_ns_per_sweep,
        timing.speedup(), timing.simd_speedup());
  }
  json += "  ],\n  \"fused_within_tolerance\": ";
  json += ok ? "true" : "false";

  // Core-problem reduction on the GK shapes the acceptance names: the core
  // run chases the full run's best and reports the moves it took.
  json += ",\n  \"core_reduction\": [\n";
  static constexpr Shape kCoreShapes[] = {{10, 500}, {30, 500}};
  const std::size_t core_rounds = smoke ? 3 : 8;
  const std::uint64_t core_work = smoke ? 1'500 : 10'000;
  for (std::size_t s = 0; s < std::size(kCoreShapes); ++s) {
    const auto& shape = kCoreShapes[s];
    const auto cmp = compare_core_reduction(shape.n, shape.m, core_rounds, core_work);
    char row[384];
    std::snprintf(row, sizeof(row),
                  "    {\"m\": %zu, \"n\": %zu, \"engaged\": %s, \"fixed\": %zu, "
                  "\"gap_eps\": %.1f, \"full_best\": %.1f, \"full_moves\": %llu, "
                  "\"reached_full_best\": %s, \"core_moves\": %llu}%s\n",
                  shape.m, shape.n, cmp.engaged ? "true" : "false", cmp.fixed,
                  cmp.gap_eps, cmp.full_best,
                  static_cast<unsigned long long>(cmp.full_moves),
                  cmp.reached ? "true" : "false",
                  static_cast<unsigned long long>(cmp.core_moves),
                  s + 1 < std::size(kCoreShapes) ? "," : "");
    json += row;
    std::printf(
        "core reduction %zux%zu: fixed %zu, full best %.1f in %llu moves, "
        "core %s it in %llu moves\n",
        shape.m, shape.n, cmp.fixed, cmp.full_best,
        static_cast<unsigned long long>(cmp.full_moves),
        cmp.reached ? "reached" : "MISSED",
        static_cast<unsigned long long>(cmp.core_moves));
    ok = ok && cmp.reached && cmp.core_moves < cmp.full_moves;
  }
  json += "  ]\n}\n";

  if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  if (!ok) {
    std::fprintf(stderr,
                 "FAIL: kernel regression or core run missed the "
                 "full-space best (see table above)\n");
    return 1;
  }
  return 0;
}

void BM_FitScoreSweepScalarRef(benchmark::State& state) {
  const auto inst = bench_instance(static_cast<std::size_t>(state.range(1)),
                                   static_cast<std::size_t>(state.range(0)));
  const auto x = sweep_state(inst);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sweep_scalar_reference(x));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(1));
}
BENCHMARK(BM_FitScoreSweepScalarRef)->Args({5, 100})->Args({25, 500});

void BM_FitScoreSweepFused(benchmark::State& state) {
  const auto inst = bench_instance(static_cast<std::size_t>(state.range(1)),
                                   static_cast<std::size_t>(state.range(0)));
  const auto x = sweep_state(inst);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sweep_fused(x));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(1));
}
BENCHMARK(BM_FitScoreSweepFused)->Args({5, 100})->Args({25, 500});

void BM_SolutionAddDrop(benchmark::State& state) {
  const auto inst = bench_instance(500, static_cast<std::size_t>(state.range(0)));
  mkp::Solution s(inst);
  std::size_t j = 0;
  for (auto _ : state) {
    s.add(j);
    s.drop(j);
    j = (j + 1) % inst.num_items();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2);
}
BENCHMARK(BM_SolutionAddDrop)->Arg(5)->Arg(10)->Arg(25);

void BM_MoveApply(benchmark::State& state) {
  const auto inst = bench_instance(static_cast<std::size_t>(state.range(0)), 10);
  auto x = bounds::greedy_construct(inst);
  tabu::TabuList tabu(inst.num_items());
  tabu::MoveKernel kernel(inst);
  tabu::MoveStats stats;
  tabu::Strategy strategy;
  strategy.nb_drop = static_cast<std::size_t>(state.range(1));
  Rng rng(1);
  std::uint64_t iter = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        kernel.apply(x, tabu, ++iter, strategy, 7, 1e18, rng, stats));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MoveApply)
    ->Args({100, 1})
    ->Args({100, 4})
    ->Args({250, 1})
    ->Args({250, 4})
    ->Args({500, 1})
    ->Args({500, 4});

void BM_GreedyConstruct(benchmark::State& state) {
  const auto inst = bench_instance(static_cast<std::size_t>(state.range(0)), 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bounds::greedy_construct(inst));
  }
}
BENCHMARK(BM_GreedyConstruct)->Arg(100)->Arg(500);

void BM_LpRelaxation(benchmark::State& state) {
  const auto inst = bench_instance(static_cast<std::size_t>(state.range(0)),
                                   static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(bounds::solve_lp_relaxation(inst));
  }
}
BENCHMARK(BM_LpRelaxation)->Args({100, 5})->Args({250, 10})->Args({500, 25});

void BM_HammingDistance(benchmark::State& state) {
  const auto inst = bench_instance(static_cast<std::size_t>(state.range(0)), 5);
  Rng rng(2);
  const auto a = bounds::random_feasible(inst, rng);
  const auto b = bounds::random_feasible(inst, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.hamming_distance(b));
  }
}
BENCHMARK(BM_HammingDistance)->Arg(500)->Arg(2000);

void BM_CetsStep(benchmark::State& state) {
  // One add/drop oscillation step, amortized over a bounded run.
  const auto inst = bench_instance(static_cast<std::size_t>(state.range(0)), 10);
  Rng rng(4);
  for (auto _ : state) {
    tabu::CetsParams params;
    params.max_steps = 256;
    benchmark::DoNotOptimize(tabu::critical_event_tabu_search(inst, rng, params));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 256);
}
BENCHMARK(BM_CetsStep)->Arg(100)->Arg(250);

void BM_PathRelink(benchmark::State& state) {
  const auto inst = bench_instance(static_cast<std::size_t>(state.range(0)), 10);
  Rng rng(5);
  const auto a = bounds::greedy_randomized(inst, rng);
  const auto b = bounds::random_feasible(inst, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tabu::path_relink(a, b));
  }
}
BENCHMARK(BM_PathRelink)->Arg(100)->Arg(250);

void BM_ReducedCostFixing(benchmark::State& state) {
  const auto inst = bench_instance(static_cast<std::size_t>(state.range(0)), 10);
  const double lb = bounds::greedy_construct(inst).value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(bounds::reduced_cost_fixing(inst, lb));
  }
}
BENCHMARK(BM_ReducedCostFixing)->Arg(100)->Arg(250);

void BM_GenerateGk(benchmark::State& state) {
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mkp::generate_gk(
        {.num_items = static_cast<std::size_t>(state.range(0)),
         .num_constraints = 25},
        ++seed));
  }
}
BENCHMARK(BM_GenerateGk)->Arg(100)->Arg(500);

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path = "BENCH_kernels.json";
  // Strip our flags before handing argv to google-benchmark.
  std::vector<char*> passthrough = {argv[0]};
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[a], "--json=", 7) == 0) {
      json_path = argv[a] + 7;
    } else {
      passthrough.push_back(argv[a]);
    }
  }
  const int comparison = run_kernel_comparison(json_path, smoke);
  if (smoke) return comparison;

  argc = static_cast<int>(passthrough.size());
  argv = passthrough.data();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return comparison;
}
