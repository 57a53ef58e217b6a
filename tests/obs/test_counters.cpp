// The per-thread counter registry: sink binding, the kill switch, and the
// master-side CounterStats aggregation.
#include "obs/counters.hpp"

#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "mkp/generator.hpp"
#include "tabu/engine.hpp"

namespace pts::obs {
namespace {

TEST(Counters, StartZeroAndIndexByEnum) {
  Counters c;
  EXPECT_FALSE(c.any());
  c[Counter::kMovesTried] = 3;
  c[Counter::kDrops] += 2;
  EXPECT_TRUE(c.any());
  EXPECT_EQ(c[Counter::kMovesTried], 3U);
  EXPECT_EQ(c[Counter::kDrops], 2U);
  EXPECT_EQ(c[Counter::kAdds], 0U);
}

TEST(Counters, AddIsElementwise) {
  Counters a, b;
  a[Counter::kAdds] = 5;
  b[Counter::kAdds] = 7;
  b[Counter::kFitScoreCalls] = 11;
  a.add(b);
  EXPECT_EQ(a[Counter::kAdds], 12U);
  EXPECT_EQ(a[Counter::kFitScoreCalls], 11U);
}

TEST(Counters, NamesAreUniqueAndNonEmpty) {
  std::set<std::string> names;
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    const std::string name = counter_name(static_cast<Counter>(i));
    EXPECT_FALSE(name.empty());
    EXPECT_TRUE(names.insert(name).second) << "duplicate counter name " << name;
  }
}

TEST(Bump, NoOpWithoutScope) {
  bump(Counter::kMovesTried);  // must not crash and must go nowhere
  Counters sink;
  {
    CounterScope scope(&sink);
    bump(Counter::kMovesTried, 2);
  }
  bump(Counter::kMovesTried, 100);  // scope ended: dropped again
  EXPECT_EQ(sink[Counter::kMovesTried], 2U);
}

TEST(Bump, ScopesNestAndRestore) {
  Counters outer, inner;
  CounterScope outer_scope(&outer);
  bump(Counter::kAdds);
  {
    CounterScope inner_scope(&inner);
    bump(Counter::kAdds, 3);
    {
      CounterScope off(nullptr);  // explicit suppression
      bump(Counter::kAdds, 50);
    }
  }
  bump(Counter::kAdds);
  EXPECT_EQ(outer[Counter::kAdds], 2U);
  EXPECT_EQ(inner[Counter::kAdds], 3U);
}

TEST(Bump, SinkIsPerThread) {
  Counters main_sink;
  CounterScope scope(&main_sink);
  Counters worker_sink;
  std::thread worker([&worker_sink] {
    // No scope on this thread yet: bumps vanish instead of racing main's sink.
    bump(Counter::kDrops, 9);
    CounterScope worker_scope(&worker_sink);
    bump(Counter::kDrops, 4);
  });
  worker.join();
  EXPECT_EQ(main_sink[Counter::kDrops], 0U);
  EXPECT_EQ(worker_sink[Counter::kDrops], 4U);
}

TEST(TelemetryEnabled, DefaultsOnAndToggles) {
  EXPECT_TRUE(telemetry_enabled());
  set_telemetry_enabled(false);
  EXPECT_FALSE(telemetry_enabled());
  set_telemetry_enabled(true);
  EXPECT_TRUE(telemetry_enabled());
}

TEST(CounterStats, ObserveTracksTotalsAndDistribution) {
  CounterStats stats;
  Counters a, b;
  a[Counter::kMovesTried] = 10;
  b[Counter::kMovesTried] = 30;
  stats.observe(a);
  stats.observe(b);
  EXPECT_EQ(stats.snapshots(), 2U);
  EXPECT_EQ(stats.totals()[Counter::kMovesTried], 40U);
  EXPECT_DOUBLE_EQ(stats.stats(Counter::kMovesTried).mean(), 20.0);
  EXPECT_DOUBLE_EQ(stats.stats(Counter::kMovesTried).min(), 10.0);
  EXPECT_DOUBLE_EQ(stats.stats(Counter::kMovesTried).max(), 30.0);
}

TEST(CounterStats, MergeEqualsCombinedObservation) {
  CounterStats left, right, all;
  for (std::uint64_t v : {3U, 5U, 8U, 13U}) {
    Counters c;
    c[Counter::kAdds] = v;
    (v < 6 ? left : right).observe(c);
    all.observe(c);
  }
  left.merge(right);
  EXPECT_EQ(left.snapshots(), all.snapshots());
  EXPECT_EQ(left.totals()[Counter::kAdds], all.totals()[Counter::kAdds]);
  EXPECT_DOUBLE_EQ(left.stats(Counter::kAdds).mean(), all.stats(Counter::kAdds).mean());
  EXPECT_DOUBLE_EQ(left.stats(Counter::kAdds).min(), all.stats(Counter::kAdds).min());
  EXPECT_DOUBLE_EQ(left.stats(Counter::kAdds).max(), all.stats(Counter::kAdds).max());
}

// End-to-end: a real engine run fills the counter block consistently.
TEST(EngineCounters, RunFillsConsistentCounters) {
  const auto inst = mkp::generate_gk({.num_items = 60, .num_constraints = 5}, 7);
  Rng rng(7);
  tabu::TsParams params;
  params.max_moves = 500;
  params.strategy.nb_local = 20;
  const auto result = tabu::tabu_search_from_scratch(inst, params, rng);

  const auto& c = result.counters;
  EXPECT_EQ(c[Counter::kMovesTried], result.moves);
  EXPECT_EQ(c[Counter::kDrops], result.move_stats.drops);
  EXPECT_EQ(c[Counter::kAdds], result.move_stats.adds);
  EXPECT_EQ(c[Counter::kForcedDrops], result.move_stats.forced_drops);
  EXPECT_EQ(c[Counter::kTabuRejections], result.move_stats.tabu_blocked_adds);
  EXPECT_EQ(c[Counter::kAspirationAccepts], result.move_stats.aspiration_hits);
  EXPECT_EQ(c[Counter::kIntensifications], result.intensifications);
  EXPECT_EQ(c[Counter::kDiversifications], result.diversifications);
  // Every add decision either scored the column or was pruned in O(1).
  EXPECT_GT(c[Counter::kFitScoreCalls], 0U);
  EXPECT_GE(c[Counter::kMovesImproved], result.improvements.empty() ? 0U : 1U);
  EXPECT_LE(c[Counter::kMovesImproved], c[Counter::kMovesTried]);
  // The anytime curve mirrors the improvements list (same improvement events).
  EXPECT_EQ(result.anytime.size(), result.improvements.size());
  for (std::size_t i = 1; i < result.anytime.size(); ++i) {
    EXPECT_GT(result.anytime[i].value, result.anytime[i - 1].value);
    EXPECT_GE(result.anytime[i].seconds, result.anytime[i - 1].seconds);
  }
}

TEST(EngineCounters, KillSwitchSuppressesCollection) {
  const auto inst = mkp::generate_gk({.num_items = 40, .num_constraints = 4}, 9);
  tabu::TsParams params;
  params.max_moves = 200;

  set_telemetry_enabled(false);
  Rng rng_off(3);
  const auto off = tabu::tabu_search_from_scratch(inst, params, rng_off);
  set_telemetry_enabled(true);
  Rng rng_on(3);
  const auto on = tabu::tabu_search_from_scratch(inst, params, rng_on);

  EXPECT_FALSE(off.counters.any());
  EXPECT_TRUE(off.anytime.empty());
  EXPECT_TRUE(on.counters.any());
  // The switch must not change the search itself.
  EXPECT_DOUBLE_EQ(off.best_value, on.best_value);
  EXPECT_EQ(off.moves, on.moves);
}

}  // namespace
}  // namespace pts::obs
