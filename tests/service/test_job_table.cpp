// service::JobTable, the one book of open jobs behind SolverService and
// cluster::Coordinator: the byte-verified dedup rule, the exactly-once
// resolve path and its journal strikes, the tap the coordinator's
// replication log reads, and replay.
#include "service/job_table.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <utility>
#include <vector>

#include "../callback_tally.hpp"
#include "mkp/generator.hpp"
#include "parallel/snapshot.hpp"

namespace pts::service {
namespace {

using journal::RecordType;

std::shared_ptr<const mkp::Instance> instance(std::uint64_t seed) {
  return std::make_shared<const mkp::Instance>(
      mkp::generate_gk({.num_items = 20, .num_constraints = 3}, seed));
}

SubmitRequest request_for(std::shared_ptr<const mkp::Instance> inst,
                          TenantId tenant = {}) {
  SubmitRequest request;
  request.instance = std::move(inst);
  request.tenant = std::move(tenant);
  request.options.preset = "quick";
  return request;
}

/// Admits `request` the way both gateways do: attach to a match, or open a
/// job of its own. Returns the job it landed in.
JobTable::Job& submit(JobTable& table, const SubmitRequest& request,
                      JobCallback on_done) {
  auto waiter = table.make_waiter(request, std::move(on_done), JobOrigin::kFresh);
  const auto hash = parallel::snapshot::instance_hash64(*request.instance);
  auto key = JobTable::solve_key(request.options, request.warm_start);
  if (auto* job = table.match(hash, key, *request.instance)) {
    table.attach(*job, std::move(waiter));
    return *job;
  }
  auto job = std::make_shared<JobTable::Job>();
  job->instance = request.instance;
  job->content_hash = hash;
  job->solve_key = std::move(key);
  table.admit(job, std::move(waiter));
  return *job;
}

TEST(JobTable, IdenticalWorkCoalescesAcrossTenants) {
  JobTable table;
  CallbackTally tally;
  auto& first = submit(table, request_for(instance(1), "prod"), tally.callback(1));
  // A separate copy of the same instance: the bytes decide, not the pointer.
  auto& second = submit(table, request_for(instance(1), "batch"), tally.callback(2));
  EXPECT_EQ(&first, &second);
  ASSERT_EQ(first.waiters.size(), 2U);
  EXPECT_TRUE(first.waiters[1]->deduplicated);
  EXPECT_EQ(first.waiters[1]->dedup_primary, first.id);
  EXPECT_EQ(table.jobs().size(), 1U);
}

TEST(JobTable, HashCollisionGetsSeparateJobs) {
  // Two different instances admitted under the same content-hash value (a
  // collision, forced here): equal hashes and solve keys are not enough,
  // the canonical bytes must match too.
  JobTable table;
  CallbackTally tally;
  const auto a = instance(1);
  const auto b = instance(2);
  const auto key = JobTable::solve_key(request_for(a).options,
                                       WarmStartPolicy::kDisabled);
  auto job = std::make_shared<JobTable::Job>();
  job->instance = a;
  job->content_hash = 42;
  job->solve_key = key;
  table.admit(job, table.make_waiter(request_for(a), tally.callback(1),
                                     JobOrigin::kFresh));
  EXPECT_EQ(table.match(42, key, *b), nullptr);
  EXPECT_EQ(table.match(42, key, *a), job.get());
  // Same bytes under a different solve shape or a rejecting gateway: no.
  auto other_shape = request_for(a).options;
  other_shape.seed = 9;
  EXPECT_EQ(table.match(42, JobTable::solve_key(other_shape,
                                                WarmStartPolicy::kDisabled),
                        *a),
            nullptr);
  EXPECT_EQ(table.match(42, key, *a, [](const JobTable::Job&) { return false; }),
            nullptr);
}

TEST(JobTable, PriorityAndDeadlineDoNotSplitTheKey) {
  auto options = request_for(instance(1)).options;
  const auto key = JobTable::solve_key(options, WarmStartPolicy::kDisabled);
  options.priority = 7;
  options.deadline_seconds = 3.0;
  EXPECT_EQ(JobTable::solve_key(options, WarmStartPolicy::kDisabled), key);
  options.proc.worker_path = "/elsewhere/pts_worker";
  EXPECT_NE(JobTable::solve_key(options, WarmStartPolicy::kDisabled), key);
  EXPECT_NE(JobTable::solve_key(request_for(instance(1)).options,
                                WarmStartPolicy::kExact),
            key);
}

TEST(JobTable, TapSeesRecordsInJournalOrderAndEachWaiterResolvesOnce) {
  std::vector<std::pair<RecordType, JobId>> seen;
  JobTable table(256, [&](RecordType type, const JobTable::Waiter& waiter) {
    seen.emplace_back(type, waiter.id);
  });
  CallbackTally tally;
  auto& job = submit(table, request_for(instance(3)), tally.callback(1));
  submit(table, request_for(instance(3)), tally.callback(2));
  const JobId primary = job.waiters[0]->id;
  const JobId follower = job.waiters[1]->id;

  // Cancel-by-id: the follower leaves, the job stays open for the primary.
  auto detached = table.detach(*table.job_of(follower), follower);
  ASSERT_NE(detached, nullptr);
  EXPECT_EQ(table.job_of(follower), nullptr);
  table.fail(*detached, job, Status::cancelled("test"));
  EXPECT_EQ(table.jobs().size(), 1U);

  JobResult result;
  result.best_value = 5.0;
  for (auto& waiter : table.retire(job)) table.resolve(*waiter, result);
  EXPECT_TRUE(table.jobs().empty());
  EXPECT_EQ(table.job_of(primary), nullptr);

  EXPECT_EQ(tally.calls(1), 1);
  EXPECT_EQ(tally.calls(2), 1);
  EXPECT_EQ(tally.code(2), StatusCode::kCancelled);
  EXPECT_EQ(table.resolved(), 2U);
  const std::vector<std::pair<RecordType, JobId>> expected = {
      {RecordType::kSubmitted, primary}, {RecordType::kSubmitted, follower},
      {RecordType::kDedup, follower},    {RecordType::kResolved, follower},
      {RecordType::kResolved, primary}};
  EXPECT_EQ(seen, expected);
}

TEST(JobTable, ExpireResolvesOnlyWaitersPastTheirOwnDeadline) {
  JobTable table;
  CallbackTally tally;
  auto strict = request_for(instance(4));
  strict.deadline_seconds = 0.0;
  auto& job = submit(table, request_for(instance(4)), tally.callback(1));
  submit(table, strict, tally.callback(2));
  ASSERT_EQ(job.waiters.size(), 2U);
  EXPECT_EQ(table.expire(job, Status::deadline_exceeded("test")), 1U);
  EXPECT_EQ(tally.calls(1), 0);
  EXPECT_EQ(tally.code(2), StatusCode::kDeadlineExceeded);
  ASSERT_EQ(job.waiters.size(), 1U);
}

TEST(JobTable, ShutdownResolvesWithoutStrikingAndReplayResumesThem) {
  const auto path = ::testing::TempDir() + "job_table_replay.jnl";
  std::remove(path.c_str());
  CallbackTally tally;
  {
    JobTable table;
    EXPECT_TRUE(table.open_journal(path).empty());
    auto& kept = submit(table, request_for(instance(5), "prod"), tally.callback(1));
    submit(table, request_for(instance(5), "batch"), tally.callback(2));
    auto& struck = submit(table, request_for(instance(6)), tally.callback(3));
    table.fail_all(struck, Status::cancelled("test"));
    table.fail_all(kept, Status::unavailable("shutting down"), /*strike=*/false);
    EXPECT_EQ(tally.calls(1) + tally.calls(2) + tally.calls(3), 3);
  }
  JobTable table;
  auto replayed = table.open_journal(path);
  ASSERT_EQ(replayed.size(), 2U);
  EXPECT_EQ(replayed[0].tenant, "prod");
  EXPECT_EQ(replayed[1].dedup_primary, replayed[0].id);
  std::vector<std::uint64_t> ranks;
  table.resume(std::move(replayed), [&](SubmitRequest request, JobCallback on_done,
                                        std::uint64_t rank) {
    ranks.push_back(rank);
    const auto& job = submit(table, request, std::move(on_done));
    return Expected<JobTicket>(JobTicket{job.waiters.back()->id, request.tenant,
                                         job.content_hash, false});
  });
  EXPECT_EQ(ranks.size(), 2U);
  EXPECT_EQ(table.take_recovered().size(), 2U);
  EXPECT_TRUE(table.take_recovered().empty());
  ASSERT_EQ(table.jobs().size(), 1U);  // the two re-coalesced
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pts::service
