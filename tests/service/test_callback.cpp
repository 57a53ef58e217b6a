// SolverService as a JobGateway (service/gateway.hpp): every path that
// terminates a waiter — run fan-out, dedup fan-out, cancel while queued or
// running, per-waiter deadline, shed, shutdown — calls the accepted
// submission's callback exactly once, and a refused submission's never.
// Counts are checked after shutdown(), which joins every service thread, so
// a late second call cannot slip past.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "../callback_tally.hpp"
#include "mkp/generator.hpp"
#include "service/solver_service.hpp"
#include "util/timer.hpp"

namespace pts::service {
namespace {

using namespace std::chrono_literals;

SubmitRequest make_request(std::uint64_t seed, double budget, int priority = 0) {
  SubmitRequest request;
  request.instance = std::make_shared<const mkp::Instance>(
      mkp::generate_gk({.num_items = 30, .num_constraints = 4}, seed));
  request.priority = priority;
  request.allow_dedup = false;
  request.options.preset = "quick";
  request.options.time_budget_seconds = budget;
  return request;
}

void wait_until_running(const SolverService& service, std::size_t count) {
  Stopwatch watch;
  while (service.running_jobs() < count && watch.elapsed_seconds() < 10.0) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_GE(service.running_jobs(), count);
}

TEST(ServiceCallback, RunAndDedupFanOutCallEachWaiterOnce) {
  CallbackTally tally;
  SolverService service({.num_workers = 2});
  auto shared = make_request(1, /*budget=*/0.3);
  shared.allow_dedup = true;
  ASSERT_TRUE(service.submit(shared, tally.callback(1)));
  auto follower = service.submit(shared, tally.callback(2));
  ASSERT_TRUE(follower);
  EXPECT_TRUE(follower->deduplicated);
  auto invalid = make_request(2, /*budget=*/0.3);
  invalid.options.preset = "warp-speed";
  ASSERT_FALSE(service.submit(invalid, tally.callback(3)));

  ASSERT_TRUE(tally.wait_total(2));
  service.shutdown();
  EXPECT_EQ(tally.calls(1), 1);
  EXPECT_EQ(tally.calls(2), 1);
  EXPECT_EQ(tally.calls(3), 0);
  EXPECT_EQ(tally.code(1), StatusCode::kOk);
  EXPECT_EQ(tally.code(2), StatusCode::kOk);
}

TEST(ServiceCallback, CancelQueuedAndRunningWaitersCallsOnce) {
  CallbackTally tally;
  SolverService service({.num_workers = 1});
  auto running = service.submit(make_request(1, /*budget=*/30.0), tally.callback(1));
  ASSERT_TRUE(running);
  wait_until_running(service, 1);
  auto queued = service.submit(make_request(2, /*budget=*/30.0), tally.callback(2));
  ASSERT_TRUE(queued);

  EXPECT_TRUE(service.cancel(queued->id));
  EXPECT_TRUE(service.cancel(running->id));
  ASSERT_TRUE(tally.wait_total(2));
  EXPECT_FALSE(service.cancel(queued->id));  // already resolved
  service.shutdown();
  EXPECT_EQ(tally.calls(1), 1);
  EXPECT_EQ(tally.calls(2), 1);
  EXPECT_EQ(tally.code(1), StatusCode::kCancelled);
  EXPECT_EQ(tally.code(2), StatusCode::kCancelled);
}

TEST(ServiceCallback, PerWaiterDeadlinesCallOnce) {
  CallbackTally tally;
  SolverService service({.num_workers = 1});
  // A running solve shared by two waiters: the stricter one's deadline
  // resolves it alone (the sweep, under the service mutex); the other waits
  // for the run's own deadline.
  auto shared = make_request(1, /*budget=*/30.0);
  shared.allow_dedup = true;
  shared.deadline_seconds = 1.0;
  ASSERT_TRUE(service.submit(shared, tally.callback(1)));
  wait_until_running(service, 1);
  shared.deadline_seconds = 0.2;
  auto strict = service.submit(shared, tally.callback(2));
  ASSERT_TRUE(strict);
  EXPECT_TRUE(strict->deduplicated);
  // A queued waiter whose deadline passes before the worker frees up.
  auto queued = make_request(2, /*budget=*/30.0);
  queued.deadline_seconds = 0.1;
  ASSERT_TRUE(service.submit(queued, tally.callback(3)));

  ASSERT_TRUE(tally.wait_total(3));
  service.shutdown();
  for (const int slot : {1, 2, 3}) {
    EXPECT_EQ(tally.calls(slot), 1) << "slot " << slot;
    EXPECT_EQ(tally.code(slot), StatusCode::kDeadlineExceeded) << "slot " << slot;
  }
}

TEST(ServiceCallback, ShedAndShutdownCallOnceAndRefusalsNever) {
  CallbackTally tally;
  SolverService service({.num_workers = 1,
                         .queue_capacity = 1,
                         .overflow = OverflowPolicy::kShedLowest});
  ASSERT_TRUE(service.submit(make_request(1, /*budget=*/30.0), tally.callback(1)));
  wait_until_running(service, 1);
  ASSERT_TRUE(service.submit(make_request(2, 30.0, /*priority=*/1), tally.callback(2)));
  // Does not outrank the queued job: refused, never called.
  ASSERT_FALSE(service.submit(make_request(3, 30.0, /*priority=*/0), tally.callback(3)));
  // Outranks it: accepted, and the queued job is shed.
  ASSERT_TRUE(service.submit(make_request(4, 30.0, /*priority=*/5), tally.callback(4)));
  ASSERT_TRUE(tally.wait_total(1));
  EXPECT_EQ(tally.code(2), StatusCode::kResourceExhausted);

  // Shutdown resolves the running and the queued job; a submission after
  // it is refused.
  service.shutdown();
  ASSERT_FALSE(service.submit(make_request(5, 30.0), tally.callback(5)));
  EXPECT_EQ(tally.calls(1), 1);
  EXPECT_EQ(tally.calls(2), 1);
  EXPECT_EQ(tally.calls(3), 0);
  EXPECT_EQ(tally.calls(4), 1);
  EXPECT_EQ(tally.calls(5), 0);
  EXPECT_EQ(tally.code(1), StatusCode::kCancelled);
  EXPECT_EQ(tally.code(4), StatusCode::kCancelled);
}

}  // namespace
}  // namespace pts::service
