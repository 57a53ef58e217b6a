// SolverService: multi-job scheduling over a fixed pool, deadlines,
// cancellation, backpressure, priorities, and the every-future-resolves
// guarantee under a 50-job stress load — all through the redesigned
// submit(SubmitRequest) -> Expected<JobHandle> surface. Admission failures
// (bad options, backpressure, shutdown) come back as a Status; an accepted
// handle's future always resolves.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <limits>
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

/// Builds a request the way most tests want one: a fresh small instance and
/// the urgency fields lifted out of the options (the request-level priority
/// and deadline are authoritative under the new API).
SubmitRequest make_request(std::uint64_t seed, JobOptions options = {},
                           TenantId tenant = {}) {
  SubmitRequest request;
  request.instance = std::make_shared<const mkp::Instance>(small_instance(seed));
  request.tenant = std::move(tenant);
  request.priority = options.priority;
  request.deadline_seconds = options.deadline_seconds;
  request.options = std::move(options);
  return request;
}

/// Submits a request that must be admitted; a refusal fails the test.
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

TEST(Service, SolvesASingleJob) {
  SolverService server({.num_workers = 2});
  JobOptions options;
  options.preset = "quick";
  options.time_budget_seconds = 0.2;
  auto handle = submit_ok(server, make_request(1, options));
  EXPECT_GT(handle.id, 0U);
  EXPECT_NE(handle.content_hash, 0U);
  EXPECT_FALSE(handle.deduplicated);
  const auto result = handle.result.get();
  EXPECT_TRUE(result.status.ok()) << result.status.to_string();
  EXPECT_EQ(result.id, handle.id);
  EXPECT_EQ(result.content_hash, handle.content_hash);
  ASSERT_TRUE(result.best.has_value());
  EXPECT_TRUE(result.best->is_feasible());
  EXPECT_GT(result.best_value, 0.0);
  EXPECT_GT(result.total_moves, 0U);
  EXPECT_EQ(result.start_sequence, 1U);
  server.shutdown();
  EXPECT_EQ(server.stats().completed, 1U);
}

TEST(Service, UnknownPresetIsRefusedAtAdmission) {
  // Under the new API a bogus preset never produces a future at all: the
  // submit itself returns the structured error.
  SolverService server({.num_workers = 1});
  JobOptions options;
  options.preset = "warp-speed";
  auto handle = server.submit(make_request(2, options));
  ASSERT_FALSE(handle);
  EXPECT_EQ(handle.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(handle.status().message().find("warp-speed"), std::string::npos);
  EXPECT_NE(handle.status().message().find("quick"), std::string::npos);
  EXPECT_EQ(server.stats().invalid, 1U);
}

TEST(Service, BadOptionsAreRefusedAtAdmission) {
  SolverService server({.num_workers = 1});
  JobOptions negative_budget;
  negative_budget.time_budget_seconds = -1.0;
  auto bad = server.submit(make_request(3, negative_budget));
  ASSERT_FALSE(bad);
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);

  SubmitRequest null_instance;  // never set request.instance
  auto null_handle = server.submit(std::move(null_instance));
  ASSERT_FALSE(null_handle);
  EXPECT_EQ(null_handle.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(server.stats().invalid, 2U);
}

TEST(Service, NonFiniteInstanceIsRefusedAtAdmission) {
  // A NaN profit would make the search order items by a comparator that is
  // not a strict weak ordering and let swap intensification cycle forever:
  // an in-process caller gets an admission error, never a held worker.
  SolverService server({.num_workers = 1});
  const auto inst = small_instance(4);
  std::vector<double> profits(inst.profits().begin(), inst.profits().end());
  profits[3] = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> weights;
  for (std::size_t i = 0; i < inst.num_constraints(); ++i) {
    const auto row = inst.weights_row(i);
    weights.insert(weights.end(), row.begin(), row.end());
  }
  SubmitRequest request;
  request.instance = std::make_shared<const mkp::Instance>(
      "nan", std::move(profits), std::move(weights),
      std::vector<double>(inst.capacities().begin(), inst.capacities().end()));
  auto handle = server.submit(std::move(request));
  ASSERT_FALSE(handle);
  EXPECT_EQ(handle.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(handle.status().message().find("profit of item 3"), std::string::npos)
      << handle.status().to_string();
  EXPECT_EQ(server.stats().invalid, 1U);
}

TEST(Service, CancelRunningJobResolvesCancelledWithBestSoFar) {
  SolverService server({.num_workers = 2});
  JobOptions options;
  options.preset = "quick";
  options.time_budget_seconds = 30.0;  // would run for ages uncancelled
  auto handle = submit_ok(server, make_request(4, options));
  wait_until_running(server, 1);
  std::this_thread::sleep_for(50ms);

  Stopwatch watch;
  EXPECT_TRUE(server.cancel(handle.id));
  ASSERT_EQ(handle.result.wait_for(10s), std::future_status::ready);
  EXPECT_LT(watch.elapsed_seconds(), 5.0);  // prompt, not budget-long
  const auto result = handle.result.get();
  EXPECT_EQ(result.status.code(), StatusCode::kCancelled);
  ASSERT_TRUE(result.best.has_value());  // carries the best found so far
  EXPECT_TRUE(result.best->is_feasible());
  EXPECT_FALSE(server.cancel(handle.id));  // already resolved
}

TEST(Service, CancelQueuedJobNeverRuns) {
  SolverService server({.num_workers = 1});
  JobOptions blocker_options;
  blocker_options.preset = "quick";
  blocker_options.time_budget_seconds = 1.0;
  auto blocker = submit_ok(server, make_request(5, blocker_options));
  wait_until_running(server, 1);

  auto queued = submit_ok(server, make_request(6, blocker_options));
  EXPECT_TRUE(server.cancel(queued.id));
  const auto result = queued.result.get();
  EXPECT_EQ(result.status.code(), StatusCode::kCancelled);
  EXPECT_EQ(result.start_sequence, 0U);  // resolved without running
  EXPECT_FALSE(result.best.has_value());
  server.cancel(blocker.id);
  (void)blocker.result.get();
  EXPECT_FALSE(server.cancel(9999));  // unknown id
}

TEST(Service, DeadlineBoundsAreHonoured) {
  // A quick-preset job with a 10 s budget but a 0.4 s deadline: it must not
  // resolve before the deadline (the budget is truncated, not ignored) and
  // must resolve promptly after it — the tentpole's 50 ms latency target,
  // with CI slack on the overshoot side.
  SolverService server({.num_workers = 2});
  JobOptions options;
  options.preset = "quick";
  options.time_budget_seconds = 10.0;
  options.deadline_seconds = 0.4;
  Stopwatch watch;
  auto handle = submit_ok(server, make_request(7, options));
  ASSERT_EQ(handle.result.wait_for(10s), std::future_status::ready);
  const double elapsed = watch.elapsed_seconds();
  const auto result = handle.result.get();
  EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded)
      << result.status.to_string();
  EXPECT_GE(elapsed, 0.35);  // no undershoot: ran until the deadline
  EXPECT_LT(elapsed, 2.0);   // no overshoot beyond scheduling slack
  ASSERT_TRUE(result.best.has_value());
  EXPECT_TRUE(result.best->is_feasible());
}

TEST(Service, QueuedJobPastDeadlineResolvesWithoutRunning) {
  SolverService server({.num_workers = 1});
  JobOptions blocker_options;
  blocker_options.preset = "quick";
  blocker_options.time_budget_seconds = 0.6;
  auto blocker = submit_ok(server, make_request(8, blocker_options));
  wait_until_running(server, 1);

  JobOptions hopeless;
  hopeless.preset = "quick";
  hopeless.time_budget_seconds = 0.2;
  hopeless.deadline_seconds = 0.05;  // passes long before the blocker ends
  auto queued = submit_ok(server, make_request(9, hopeless));
  const auto result = queued.result.get();
  EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(result.start_sequence, 0U);
  (void)blocker.result.get();
}

TEST(Service, QueueOverflowRefusesTheNewcomer) {
  SolverService server({.num_workers = 1, .queue_capacity = 1});
  JobOptions options;
  options.preset = "quick";
  options.time_budget_seconds = 0.5;
  auto running = submit_ok(server, make_request(10, options));
  wait_until_running(server, 1);
  auto queued = submit_ok(server, make_request(11, options));
  auto overflow = server.submit(make_request(12, options));

  ASSERT_FALSE(overflow);  // backpressure is an admission error now
  EXPECT_EQ(overflow.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(queued.result.get().status.ok());
  EXPECT_TRUE(running.result.get().status.ok());
  EXPECT_EQ(server.stats().rejected, 1U);
}

TEST(Service, ShedLowestEvictsOnlyWhenOutranked) {
  SolverService server(
      {.num_workers = 1, .queue_capacity = 1, .overflow = OverflowPolicy::kShedLowest});
  JobOptions options;
  options.preset = "quick";
  options.time_budget_seconds = 0.5;
  auto running = submit_ok(server, make_request(13, options));
  wait_until_running(server, 1);

  JobOptions low = options;
  low.priority = 1;
  auto victim = submit_ok(server, make_request(14, low));

  JobOptions lower = options;
  lower.priority = 0;  // does NOT outrank the queued job: refused itself
  auto bounced = server.submit(make_request(15, lower));
  ASSERT_FALSE(bounced);
  EXPECT_EQ(bounced.status().code(), StatusCode::kResourceExhausted);

  JobOptions high = options;
  high.priority = 5;  // outranks: evicts the queued low-priority job
  auto usurper = submit_ok(server, make_request(16, high));
  EXPECT_EQ(victim.result.get().status.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(usurper.result.get().status.ok());
  (void)running.result.get();
}

TEST(Service, PriorityOrdersDispatch) {
  SolverService server({.num_workers = 1});
  JobOptions blocker_options;
  blocker_options.preset = "quick";
  blocker_options.time_budget_seconds = 0.3;
  auto blocker = submit_ok(server, make_request(17, blocker_options));
  wait_until_running(server, 1);

  JobOptions low = blocker_options;
  low.time_budget_seconds = 0.05;
  low.priority = 0;
  JobOptions high = blocker_options;
  high.time_budget_seconds = 0.05;
  high.priority = 9;
  auto first_submitted = submit_ok(server, make_request(18, low));
  auto second_submitted = submit_ok(server, make_request(19, high));

  const auto low_result = first_submitted.result.get();
  const auto high_result = second_submitted.result.get();
  ASSERT_GT(low_result.start_sequence, 0U);
  ASSERT_GT(high_result.start_sequence, 0U);
  // The high-priority job started before the earlier-submitted low one.
  EXPECT_LT(high_result.start_sequence, low_result.start_sequence);
  (void)blocker.result.get();
}

TEST(Service, ShutdownResolvesEverythingAndRefusesNewWork) {
  auto server = std::make_unique<SolverService>(ServiceConfig{.num_workers = 1});
  JobOptions options;
  options.preset = "quick";
  options.time_budget_seconds = 5.0;
  std::vector<JobHandle> handles;
  for (std::uint64_t k = 0; k < 4; ++k) {
    handles.push_back(submit_ok(*server, make_request(20 + k, options)));
  }
  server->shutdown();
  for (auto& handle : handles) {
    ASSERT_EQ(handle.result.wait_for(10s), std::future_status::ready);
    const auto result = handle.result.get();
    EXPECT_TRUE(result.status.ok() ||
                result.status.code() == StatusCode::kCancelled)
        << result.status.to_string();
  }
  auto late = server->submit(make_request(30, options));
  ASSERT_FALSE(late);
  EXPECT_EQ(late.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(late.status().message().find("shut down"), std::string::npos);
  server.reset();  // double-shutdown via the destructor must be safe
}

TEST(ServiceStress, FiftyJobsOnFourWorkersEveryFutureResolves) {
  // The tentpole acceptance load: 50 mixed jobs on a 4-wide pool — short
  // solves, tight deadlines, a bogus preset, mid-flight cancels — and every
  // single future must resolve with a definite status. The bogus-preset
  // submissions are refused at admission under the new API: no future to
  // leak, the structured error comes straight back.
  SolverService server({.num_workers = 4, .queue_capacity = 64});
  std::vector<JobHandle> handles;
  handles.reserve(50);
  std::size_t refused = 0;
  for (std::uint64_t k = 0; k < 50; ++k) {
    JobOptions options;
    options.preset = (k % 7 == 3) ? "warp-speed" : "quick";
    options.time_budget_seconds = 0.05;
    options.seed = k;
    options.priority = static_cast<int>(k % 3);
    if (k % 5 == 0) options.deadline_seconds = 0.3;
    auto handle = server.submit(make_request(100 + k, options));
    if (!handle) {
      EXPECT_EQ(handle.status().code(), StatusCode::kInvalidArgument);
      ++refused;
      continue;
    }
    handles.push_back(std::move(*handle));
  }
  EXPECT_EQ(refused, 7U);  // k % 7 == 3 hits: 3,10,17,24,31,38,45
  // Cancel a handful while the pool churns.
  for (std::size_t k = 10; k < handles.size(); k += 10) {
    server.cancel(handles[k].id);
  }

  std::size_t solved = 0;
  for (auto& handle : handles) {
    ASSERT_EQ(handle.result.wait_for(120s), std::future_status::ready)
        << "job " << handle.id << " never resolved";
    const auto result = handle.result.get();
    switch (result.status.code()) {
      case StatusCode::kOk:
        ++solved;
        ASSERT_TRUE(result.best.has_value());
        EXPECT_TRUE(result.best->is_feasible());
        break;
      case StatusCode::kDeadlineExceeded:
      case StatusCode::kCancelled:
      case StatusCode::kResourceExhausted:
        break;  // all legitimate terminal outcomes under this load
      default:
        FAIL() << "unexpected status: " << result.status.to_string();
    }
  }
  EXPECT_GT(solved, 25U);  // the bulk of the load actually solves
  server.shutdown();
  const auto stats = server.stats();
  EXPECT_EQ(stats.submitted, 50U);
  EXPECT_EQ(stats.completed, solved);
  EXPECT_EQ(stats.invalid, 7U);
}

TEST(ServiceStress, RepeatedConstructionAndTeardown) {
  for (int round = 0; round < 5; ++round) {
    SolverService server({.num_workers = 2});
    JobOptions options;
    options.preset = "quick";
    options.time_budget_seconds = 0.02;
    auto a = submit_ok(server, make_request(200 + round, options));
    auto b = submit_ok(server, make_request(300 + round, options));
    EXPECT_TRUE(a.result.get().status.ok());
    EXPECT_TRUE(b.result.get().status.ok());
  }
}

}  // namespace
}  // namespace pts::service
