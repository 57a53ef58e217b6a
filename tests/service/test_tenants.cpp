// Multi-tenant SolverService semantics (DESIGN.md §7): weighted-fair
// dispatch across tenants, per-tenant running-slot quotas, shed-by-weight
// backpressure, content-addressed in-flight dedup (one solve fanned out to
// many waiters, each with its own deadline/cancel semantics), and the
// persistent cross-job warm-start store.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <future>
#include <thread>
#include <vector>

#include "mkp/generator.hpp"
#include "service/solver_service.hpp"
#include "util/timer.hpp"

namespace pts::service {
namespace {

using namespace std::chrono_literals;

mkp::Instance small_instance(std::uint64_t seed) {
  return mkp::generate_gk({.num_items = 30, .num_constraints = 4}, seed);
}

SubmitRequest make_request(std::shared_ptr<const mkp::Instance> instance,
                           JobOptions options, TenantId tenant) {
  SubmitRequest request;
  request.instance = std::move(instance);
  request.tenant = std::move(tenant);
  request.priority = options.priority;
  request.deadline_seconds = options.deadline_seconds;
  request.options = std::move(options);
  return request;
}

JobHandle submit_ok(SolverService& server, SubmitRequest request) {
  auto handle = server.submit(std::move(request));
  EXPECT_TRUE(handle) << handle.status().to_string();
  if (!handle) return {};
  return std::move(*handle);
}

void wait_until_running(SolverService& server, std::size_t count) {
  Stopwatch watch;
  while (server.running_jobs() < count && watch.elapsed_seconds() < 10.0) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_GE(server.running_jobs(), count);
}

JobOptions quick_options(double budget, std::uint64_t seed = 1) {
  JobOptions options;
  options.preset = "quick";
  options.time_budget_seconds = budget;
  options.seed = seed;
  return options;
}

TEST(ServiceDedup, IdenticalQueuedSubmissionsShareOneSolve) {
  // Six submissions of the byte-identical instance with the same solve
  // shape, from alternating tenants, while the pool is busy: every one after
  // the first attaches to it as an extra waiter, and all six futures
  // resolve from ONE run.
  constexpr std::size_t kGroup = 6;
  SolverService server({.num_workers = 1});
  auto blocker = submit_ok(
      server, make_request(std::make_shared<const mkp::Instance>(small_instance(1)),
                           quick_options(0.4), "setup"));
  wait_until_running(server, 1);

  const auto shared = std::make_shared<const mkp::Instance>(small_instance(2));
  const auto tenant = [](std::size_t k) { return k % 2 == 0 ? "prod" : "batch"; };
  std::vector<JobHandle> group;
  for (std::size_t k = 0; k < kGroup; ++k) {
    group.push_back(
        submit_ok(server, make_request(shared, quick_options(0.2, 7), tenant(k))));
  }
  EXPECT_FALSE(group[0].deduplicated);
  for (std::size_t k = 1; k < kGroup; ++k) {
    EXPECT_TRUE(group[k].deduplicated) << "submission " << k;
    EXPECT_EQ(group[k].content_hash, group[0].content_hash);
    EXPECT_NE(group[k].id, group[k - 1].id);
  }

  const auto first = group[0].result.get();
  EXPECT_TRUE(first.status.ok()) << first.status.to_string();
  EXPECT_GT(first.start_sequence, 0U);
  EXPECT_FALSE(first.deduplicated);
  EXPECT_EQ(first.tenant, "prod");
  for (std::size_t k = 1; k < kGroup; ++k) {
    const auto result = group[k].result.get();
    EXPECT_TRUE(result.status.ok()) << result.status.to_string();
    // One solve: every waiter resolved from the same dispatch.
    EXPECT_EQ(result.start_sequence, first.start_sequence);
    EXPECT_EQ(result.best_value, first.best_value);
    EXPECT_TRUE(result.deduplicated);
    EXPECT_EQ(result.tenant, tenant(k));
  }
  (void)blocker.result.get();
  server.shutdown();
  EXPECT_EQ(server.stats().dedup_hits, kGroup - 1);
  EXPECT_EQ(server.stats().submitted, kGroup + 1);
}

TEST(ServiceDedup, OptOutAndDifferentSolveShapesDoNotCoalesce) {
  SolverService server({.num_workers = 1});
  auto blocker = submit_ok(
      server, make_request(std::make_shared<const mkp::Instance>(small_instance(3)),
                           quick_options(0.4), ""));
  wait_until_running(server, 1);

  const auto shared = std::make_shared<const mkp::Instance>(small_instance(4));
  auto a = submit_ok(server, make_request(shared, quick_options(0.1, 5), ""));

  // Same instance, different seed: a different solve — no dedup.
  auto different = submit_ok(server, make_request(shared, quick_options(0.1, 6), ""));
  EXPECT_FALSE(different.deduplicated);

  // Identical solve but the submission opts out.
  auto opted_out_request = make_request(shared, quick_options(0.1, 5), "");
  opted_out_request.allow_dedup = false;
  auto opted_out = submit_ok(server, std::move(opted_out_request));
  EXPECT_FALSE(opted_out.deduplicated);

  (void)blocker.result.get();
  (void)a.result.get();
  (void)different.result.get();
  (void)opted_out.result.get();
  server.shutdown();
  EXPECT_EQ(server.stats().dedup_hits, 0U);
}

TEST(ServiceDedup, CancelDetachesOneWaiterAndTheSolveContinues) {
  // Cancelling a follower on a running shared solve detaches just that
  // waiter; the run continues and the primary still resolves OK. Cancelling
  // the last waiter stops the run itself.
  SolverService server({.num_workers = 2});
  const auto shared = std::make_shared<const mkp::Instance>(small_instance(8));
  auto primary = submit_ok(server, make_request(shared, quick_options(30.0), "prod"));
  wait_until_running(server, 1);
  auto follower = submit_ok(server, make_request(shared, quick_options(30.0), "batch"));
  ASSERT_TRUE(follower.deduplicated);

  EXPECT_TRUE(server.cancel(follower.id));
  ASSERT_EQ(follower.result.wait_for(5s), std::future_status::ready);
  EXPECT_EQ(follower.result.get().status.code(), StatusCode::kCancelled);
  // The solve itself is still going for the primary waiter.
  EXPECT_EQ(server.running_jobs(), 1U);
  EXPECT_EQ(primary.result.wait_for(100ms), std::future_status::timeout);

  EXPECT_TRUE(server.cancel(primary.id));  // last waiter: stops the run
  ASSERT_EQ(primary.result.wait_for(10s), std::future_status::ready);
  const auto result = primary.result.get();
  EXPECT_EQ(result.status.code(), StatusCode::kCancelled);
  ASSERT_TRUE(result.best.has_value());  // ran long enough to have a best
}

TEST(ServiceDedup, EachWaiterKeepsItsOwnDeadline) {
  // A shared queued solve with one patient and one hurried waiter: the
  // hurried one's deadline fires while queued and resolves just that future;
  // the patient one still gets the full run.
  SolverService server({.num_workers = 1});
  auto blocker = submit_ok(
      server, make_request(std::make_shared<const mkp::Instance>(small_instance(9)),
                           quick_options(0.5), ""));
  wait_until_running(server, 1);

  const auto shared = std::make_shared<const mkp::Instance>(small_instance(10));
  auto patient = submit_ok(server, make_request(shared, quick_options(0.1, 3), "prod"));
  auto hurried_options = quick_options(0.1, 3);
  hurried_options.deadline_seconds = 0.05;  // passes long before the blocker ends
  auto hurried = submit_ok(server, make_request(shared, hurried_options, "batch"));
  ASSERT_TRUE(hurried.deduplicated);  // deadline does not fragment the key

  const auto hurried_result = hurried.result.get();
  EXPECT_EQ(hurried_result.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(hurried_result.start_sequence, 0U);  // resolved while queued
  const auto patient_result = patient.result.get();
  EXPECT_TRUE(patient_result.status.ok()) << patient_result.status.to_string();
  EXPECT_GT(patient_result.start_sequence, 0U);
  (void)blocker.result.get();
}

TEST(ServiceTenants, WeightedFairDispatchFavorsTheHeavierTenant) {
  // One-wide pool, prod weighted 3x over batch, four queued jobs each: the
  // weighted-fair scheduler serves prod three times as often, so three of
  // the first four dispatches after the blocker are prod's.
  ServiceConfig config;
  config.num_workers = 1;
  config.tenants = {{"prod", 3.0, 0}, {"batch", 1.0, 0}};
  SolverService server(config);
  auto blocker = submit_ok(
      server, make_request(std::make_shared<const mkp::Instance>(small_instance(20)),
                           quick_options(0.4), "setup"));
  wait_until_running(server, 1);

  std::vector<JobHandle> prod, batch;
  for (std::uint64_t k = 0; k < 4; ++k) {
    prod.push_back(submit_ok(
        server, make_request(std::make_shared<const mkp::Instance>(small_instance(30 + k)),
                             quick_options(0.05, k), "prod")));
  }
  for (std::uint64_t k = 0; k < 4; ++k) {
    batch.push_back(submit_ok(
        server, make_request(std::make_shared<const mkp::Instance>(small_instance(40 + k)),
                             quick_options(0.05, k), "batch")));
  }

  std::vector<std::uint64_t> prod_seq, batch_seq;
  for (auto& handle : prod) {
    const auto result = handle.result.get();
    ASSERT_TRUE(result.status.ok()) << result.status.to_string();
    prod_seq.push_back(result.start_sequence);
  }
  for (auto& handle : batch) {
    const auto result = handle.result.get();
    ASSERT_TRUE(result.status.ok()) << result.status.to_string();
    batch_seq.push_back(result.start_sequence);
  }
  (void)blocker.result.get();

  // Of the four earliest dispatches among the eight, exactly three are
  // prod's — the 3:1 share, enforced deterministically by virtual time.
  std::vector<std::pair<std::uint64_t, bool>> order;  // (sequence, is_prod)
  for (auto s : prod_seq) order.emplace_back(s, true);
  for (auto s : batch_seq) order.emplace_back(s, false);
  std::sort(order.begin(), order.end());
  int prod_in_first_four = 0;
  for (std::size_t k = 0; k < 4; ++k) prod_in_first_four += order[k].second;
  EXPECT_EQ(prod_in_first_four, 3);
  // And batch is not starved: its last job still ran.
  EXPECT_GT(batch_seq.back(), 0U);
}

TEST(ServiceTenants, DistinctStormKeepsEveryTenantsWaitWithinThreeTimesSerial) {
  // Two tenants weighted 3:1 storm a 2-wide pool with mixed priorities —
  // batch even gets the higher values, so fairness must come from the
  // weights. Every job has its own instance, so nothing coalesces and each
  // wait is real queueing behind distinct solves. Quick jobs ask both
  // slots, so the pool runs them one at a time: no tenant's p99 wait may
  // exceed 3x the summed run time of every solve (the bound allows for
  // shared CI hardware).
  constexpr std::uint64_t kJobsPerTenant = 8;
  ServiceConfig config;
  config.num_workers = 2;
  config.tenants = {{"prod", 3.0, 0}, {"batch", 1.0, 0}};
  SolverService server(config);
  auto blocker = submit_ok(
      server, make_request(std::make_shared<const mkp::Instance>(small_instance(100)),
                           quick_options(0.2, 99), "setup"));

  std::vector<std::pair<bool, JobHandle>> storm;  // (is_prod, handle)
  for (std::uint64_t k = 0; k < kJobsPerTenant; ++k) {
    for (const bool is_prod : {false, true}) {
      auto options = quick_options(0.08, 10 + k);
      options.priority = is_prod ? 0 : static_cast<int>(k % 3);
      const auto instance = std::make_shared<const mkp::Instance>(
          small_instance(200 + 2 * k + (is_prod ? 1 : 0)));
      storm.emplace_back(is_prod,
                         submit_ok(server, make_request(instance, std::move(options),
                                                        is_prod ? "prod" : "batch")));
    }
  }

  double serial_seconds = blocker.result.get().run_seconds;
  double prod_max_wait = 0.0;
  double batch_max_wait = 0.0;
  for (auto& [is_prod, handle] : storm) {
    const auto result = handle.result.get();
    ASSERT_TRUE(result.status.ok()) << result.status.to_string();
    EXPECT_FALSE(result.deduplicated);
    serial_seconds += result.run_seconds;
    double& max_wait = is_prod ? prod_max_wait : batch_max_wait;
    max_wait = std::max(max_wait, result.queue_seconds);
  }
  server.shutdown();
  EXPECT_EQ(server.stats().dedup_hits, 0U);
  // The p99 of eight waits is their maximum.
  EXPECT_LE(prod_max_wait, 3.0 * serial_seconds);
  EXPECT_LE(batch_max_wait, 3.0 * serial_seconds);
}

TEST(ServiceTenants, RunningSlotQuotaCapsATenantButNotThePool) {
  // Quick-preset jobs take 2 slots each on this 4-wide pool, and batch may
  // hold at most 2 slots: its second job waits for its own quota while a
  // prod job walks straight into the two free slots.
  ServiceConfig config;
  config.num_workers = 4;
  config.tenants = {{"batch", 1.0, 2}};
  SolverService server(config);

  auto first = submit_ok(
      server, make_request(std::make_shared<const mkp::Instance>(small_instance(50)),
                           quick_options(0.4), "batch"));
  wait_until_running(server, 1);
  auto quota_blocked = submit_ok(
      server, make_request(std::make_shared<const mkp::Instance>(small_instance(51)),
                           quick_options(0.1), "batch"));
  auto prod = submit_ok(
      server, make_request(std::make_shared<const mkp::Instance>(small_instance(52)),
                           quick_options(0.1), "prod"));

  const auto first_result = first.result.get();
  const auto blocked_result = quota_blocked.result.get();
  const auto prod_result = prod.result.get();
  ASSERT_TRUE(first_result.status.ok());
  ASSERT_TRUE(blocked_result.status.ok());
  ASSERT_TRUE(prod_result.status.ok());
  // prod dispatched before batch's quota-blocked second job.
  EXPECT_LT(prod_result.start_sequence, blocked_result.start_sequence);
}

TEST(ServiceTenants, BackpressureShedsByWeightBeforePriority) {
  // Queue of one, shed-lowest overflow: a queued low-weight job is evicted
  // by a heavier tenant's submission even at lower priority — weight is the
  // primary shed rank, priority only breaks ties within a weight.
  ServiceConfig config;
  config.num_workers = 1;
  config.queue_capacity = 1;
  config.overflow = OverflowPolicy::kShedLowest;
  config.tenants = {{"prod", 3.0, 0}, {"batch", 1.0, 0}};
  SolverService server(config);

  auto running = submit_ok(
      server, make_request(std::make_shared<const mkp::Instance>(small_instance(60)),
                           quick_options(0.4), "setup"));
  wait_until_running(server, 1);

  auto victim_options = quick_options(0.1);
  victim_options.priority = 5;  // high priority, but the lightest tenant
  auto victim = submit_ok(
      server, make_request(std::make_shared<const mkp::Instance>(small_instance(61)),
                           victim_options, "batch"));

  auto usurper = submit_ok(
      server, make_request(std::make_shared<const mkp::Instance>(small_instance(62)),
                           quick_options(0.1), "prod"));  // priority 0, weight 3
  EXPECT_EQ(victim.result.get().status.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(usurper.result.get().status.ok());
  (void)running.result.get();
  EXPECT_EQ(server.stats().rejected, 1U);
}

TEST(ServiceTenants, ConcurrentShedAdmissionsRunUnderDistinctJobIds) {
  // Regression: shed admission must stamp the job's id exactly like the
  // normal accept path. Two shed-admitted jobs alive at once used to
  // collide on the id-0 sentinel in the running books — the duplicate
  // job-thread key destroyed a joinable std::thread and aborted the
  // process.
  ServiceConfig config;
  config.num_workers = 4;  // room for two 2-slot quick jobs at once
  config.queue_capacity = 1;
  config.overflow = OverflowPolicy::kShedLowest;
  config.tenants = {{"prod", 3.0, 0}, {"batch", 1.0, 0}};
  SolverService server(config);

  // Two staggered pool-fillers: the first frees capacity for the first
  // shed-admitted job while the second still pins the rest of the pool.
  auto filler_a = submit_ok(
      server, make_request(std::make_shared<const mkp::Instance>(small_instance(80)),
                           quick_options(0.25), "setup"));
  wait_until_running(server, 1);  // capacity 1: drain the queue between fillers
  auto filler_b = submit_ok(
      server, make_request(std::make_shared<const mkp::Instance>(small_instance(81)),
                           quick_options(0.8), "setup"));
  wait_until_running(server, 2);

  auto victim1 = submit_ok(
      server, make_request(std::make_shared<const mkp::Instance>(small_instance(82)),
                           quick_options(0.1), "batch"));
  auto usurper1 = submit_ok(
      server, make_request(std::make_shared<const mkp::Instance>(small_instance(83)),
                           quick_options(1.5), "prod"));
  EXPECT_EQ(victim1.result.get().status.code(), StatusCode::kResourceExhausted);

  // filler_a ends first; the shed-admitted usurper1 leaves the queue.
  Stopwatch watch;
  while (server.queued_jobs() != 0 && watch.elapsed_seconds() < 10.0) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_EQ(server.queued_jobs(), 0U);

  auto victim2 = submit_ok(
      server, make_request(std::make_shared<const mkp::Instance>(small_instance(84)),
                           quick_options(0.1), "batch"));
  auto usurper2 = submit_ok(
      server, make_request(std::make_shared<const mkp::Instance>(small_instance(85)),
                           quick_options(0.5), "prod"));
  EXPECT_EQ(victim2.result.get().status.code(), StatusCode::kResourceExhausted);

  // filler_b ends while usurper1 still runs: both shed-admitted jobs are in
  // the running books together, each under its own id.
  (void)filler_a.result.get();
  (void)filler_b.result.get();
  const auto first = usurper1.result.get();
  const auto second = usurper2.result.get();
  EXPECT_TRUE(first.status.ok()) << first.status.to_string();
  EXPECT_TRUE(second.status.ok()) << second.status.to_string();
  EXPECT_NE(first.start_sequence, second.start_sequence);
}

TEST(ServiceDedup, DetachedGenerousWaiterDoesNotStrandTheStricterDeadline) {
  // Regression: when the most generous waiter of a shared RUNNING solve
  // cancels, the remaining waiter's own stricter deadline must still be
  // swept — it used to wait out the full (longer) solve deadline.
  SolverService server({.num_workers = 2});
  const auto shared = std::make_shared<const mkp::Instance>(small_instance(90));
  auto patient_options = quick_options(30.0, 5);
  patient_options.deadline_seconds = 30.0;  // the solve's committed leash
  auto patient = submit_ok(server, make_request(shared, patient_options, "prod"));
  wait_until_running(server, 1);

  auto hurried_options = quick_options(30.0, 5);
  hurried_options.deadline_seconds = 1.0;
  auto hurried = submit_ok(server, make_request(shared, hurried_options, "batch"));
  ASSERT_TRUE(hurried.deduplicated);  // covered: 1 s fits inside 30 s

  EXPECT_TRUE(server.cancel(patient.id));  // detach the generous waiter
  ASSERT_EQ(patient.result.wait_for(5s), std::future_status::ready);
  EXPECT_EQ(patient.result.get().status.code(), StatusCode::kCancelled);

  // The lone remaining waiter's deadline fires at ~1 s, not at 30 s.
  Stopwatch watch;
  ASSERT_EQ(hurried.result.wait_for(10s), std::future_status::ready);
  EXPECT_LT(watch.elapsed_seconds(), 8.0);
  EXPECT_EQ(hurried.result.get().status.code(),
            StatusCode::kDeadlineExceeded);
}

TEST(ServiceWarm, ExactEntrySeedsARepeatAcrossServiceInstances) {
  const auto dir = ::testing::TempDir() + "pts_warm_store_exact";
  std::filesystem::remove_all(dir);
  const auto shared = std::make_shared<const mkp::Instance>(small_instance(70));

  ServiceConfig config;
  config.num_workers = 2;
  config.warm_start_dir = dir;
  double cold_best = 0.0;
  {
    SolverService server(config);
    auto cold = submit_ok(server, make_request(shared, quick_options(0.3, 11), "prod"));
    const auto result = cold.result.get();
    ASSERT_TRUE(result.status.ok()) << result.status.to_string();
    EXPECT_FALSE(result.warm_started);  // the store was empty
    cold_best = result.best_value;
    // The save runs on the job thread after the future resolves; wait for
    // the entry file before tearing the service down.
    Stopwatch watch;
    auto has_entry = [&] {
      std::error_code ec;
      for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
        if (entry.path().extension() == ".ptsw") return true;
      }
      return false;
    };
    while (!has_entry() && watch.elapsed_seconds() < 10.0) {
      std::this_thread::sleep_for(5ms);
    }
    ASSERT_TRUE(has_entry());
  }

  // Every run below chases the cold best on the cold seed. A control has no
  // store, so it replays the cold trajectory up to the move that found that
  // best; the warm repeat must get there in strictly fewer moves. Two
  // controls on two fresh services also pin the one-job path: the service
  // adds machinery, not behaviour, so both stop on the same move.
  auto chase = quick_options(10.0, 11);
  chase.target_value = cold_best;
  std::vector<JobResult> controls;
  for (int run = 0; run < 2; ++run) {
    SolverService control_server({.num_workers = 2});
    auto control = submit_ok(control_server, make_request(shared, chase, "prod"));
    controls.push_back(control.result.get());
    ASSERT_TRUE(controls.back().status.ok()) << controls.back().status.to_string();
    ASSERT_TRUE(controls.back().reached_target);
  }
  EXPECT_EQ(controls[0].best_value, controls[1].best_value);
  EXPECT_EQ(controls[0].total_moves, controls[1].total_moves);

  // A NEW service over the same store directory: the repeat run is seeded
  // from the persisted entry.
  SolverService server(config);
  auto repeat_request = make_request(shared, chase, "batch");
  repeat_request.warm_start = WarmStartPolicy::kExact;
  auto warm = submit_ok(server, std::move(repeat_request));
  const auto warm_result = warm.result.get();
  ASSERT_TRUE(warm_result.status.ok()) << warm_result.status.to_string();
  EXPECT_TRUE(warm_result.warm_started);
  EXPECT_TRUE(warm_result.reached_target);
  EXPECT_LT(warm_result.total_moves, controls[0].total_moves);
  server.shutdown();
  EXPECT_EQ(server.stats().warm_started, 1U);
  std::filesystem::remove_all(dir);
}

TEST(ServiceWarm, SimilarPolicySeedsFromANeighboringInstance) {
  // Same (m, n) shape, different seed: a different content hash, but the
  // mean tightness lands within the store's tolerance — kSimilar seeds the
  // run from the neighbor's strategies while kExact would miss.
  const auto dir = ::testing::TempDir() + "pts_warm_store_similar";
  std::filesystem::remove_all(dir);
  ServiceConfig config;
  config.num_workers = 2;
  config.warm_start_dir = dir;
  SolverService server(config);

  auto seeder = submit_ok(
      server, make_request(std::make_shared<const mkp::Instance>(small_instance(80)),
                           quick_options(0.3, 21), "prod"));
  ASSERT_TRUE(seeder.result.get().status.ok());
  Stopwatch watch;
  auto has_entry = [&] {
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
      if (entry.path().extension() == ".ptsw") return true;
    }
    return false;
  };
  while (!has_entry() && watch.elapsed_seconds() < 10.0) {
    std::this_thread::sleep_for(5ms);
  }
  ASSERT_TRUE(has_entry());

  const auto neighbor = std::make_shared<const mkp::Instance>(small_instance(81));
  auto exact_request = make_request(neighbor, quick_options(0.3, 22), "prod");
  exact_request.warm_start = WarmStartPolicy::kExact;
  auto exact_miss = submit_ok(server, std::move(exact_request));
  EXPECT_FALSE(exact_miss.result.get().warm_started);  // hash differs: miss

  auto similar_request = make_request(neighbor, quick_options(0.3, 23), "batch");
  similar_request.warm_start = WarmStartPolicy::kSimilar;
  auto similar = submit_ok(server, std::move(similar_request));
  const auto similar_result = similar.result.get();
  ASSERT_TRUE(similar_result.status.ok()) << similar_result.status.to_string();
  EXPECT_TRUE(similar_result.warm_started);
  server.shutdown();
  std::filesystem::remove_all(dir);
}

TEST(Tenants, SlotAskAboveQuotaIsClampedNotStarved) {
  // Regression: a job whose preset asks for more slots than its tenant's
  // max_running_slots quota was permanently ineligible for dispatch — the
  // scheduler skipped it forever and its future never resolved. The ask is
  // clamped to the quota at submit instead, so the job runs narrower.
  ServiceConfig config;
  config.num_workers = 4;
  config.tenants = {{"capped", 1.0, 1}};  // below the quick preset's 2-slot ask
  SolverService server(config);
  auto handle = submit_ok(
      server,
      make_request(std::make_shared<const mkp::Instance>(small_instance(1)),
                   quick_options(0.3), "capped"));
  ASSERT_EQ(handle.result.wait_for(30s), std::future_status::ready)
      << "quota-capped job never dispatched";
  const auto result = handle.result.get();
  EXPECT_TRUE(result.status.ok()) << result.status.to_string();
  server.shutdown();
}

}  // namespace
}  // namespace pts::service
