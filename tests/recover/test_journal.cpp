// Job-journal semantics: the append-only submitted/resolved log replays to
// exactly the jobs whose futures never resolved, tolerates the torn tail a
// kill -9 mid-append leaves behind, refuses to parse foreign files, and —
// at the service level — carries shutdown-stranded jobs into the next
// incarnation as JobOrigin::kResumed.
#include "service/journal.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "mkp/generator.hpp"
#include "obs/metrics.hpp"
#include "parallel/durable_file.hpp"
#include "parallel/snapshot.hpp"
#include "read_accounting.hpp"
#include "service/solver_service.hpp"

namespace pts::service::journal {
namespace {

mkp::Instance test_instance(std::uint64_t seed) {
  return mkp::generate_gk({.num_items = 40, .num_constraints = 4}, seed);
}

std::string temp_path(const char* name) { return ::testing::TempDir() + name; }

/// Submits through the redesigned aggregate API; a refusal fails the test.
JobHandle must_submit(SolverService& server, std::uint64_t seed,
                      JobOptions options) {
  SubmitRequest request;
  request.instance = std::make_shared<const mkp::Instance>(test_instance(seed));
  request.priority = options.priority;
  request.deadline_seconds = options.deadline_seconds;
  request.options = std::move(options);
  auto handle = server.submit(std::move(request));
  EXPECT_TRUE(handle) << handle.status().to_string();
  if (!handle) return {};
  return std::move(*handle);
}

JobOptions fancy_options() {
  JobOptions options;
  options.preset = "thorough";
  options.time_budget_seconds = 3.5;
  options.deadline_seconds = 12.0;
  options.priority = 7;
  options.seed = 99;
  options.target_value = 1234.5;
  options.mode = parallel::CooperationMode::kCooperativePool;
  options.backend = parallel::Backend::kProcess;
  options.proc.worker_path = "/opt/bin/pts_worker";
  options.proc.max_respawns_per_slave = 5;
  options.proc.breaker_threshold = 2;
  return options;
}

TEST(Journal, JobOptionsRoundTripEveryField) {
  const auto options = fancy_options();
  parallel::codec::Writer w;
  put_job_options(w, options);
  const auto bytes = w.take();
  parallel::codec::Reader r(bytes);
  const auto decoded = get_job_options(r);
  ASSERT_TRUE(decoded) << decoded.status().to_string();
  EXPECT_EQ(decoded->preset, "thorough");
  EXPECT_DOUBLE_EQ(decoded->time_budget_seconds, 3.5);
  ASSERT_TRUE(decoded->deadline_seconds);
  EXPECT_DOUBLE_EQ(*decoded->deadline_seconds, 12.0);
  EXPECT_EQ(decoded->priority, 7);
  EXPECT_EQ(decoded->seed, 99U);
  ASSERT_TRUE(decoded->target_value);
  EXPECT_DOUBLE_EQ(*decoded->target_value, 1234.5);
  ASSERT_TRUE(decoded->mode);
  EXPECT_EQ(*decoded->mode, parallel::CooperationMode::kCooperativePool);
  ASSERT_TRUE(decoded->backend);
  EXPECT_EQ(*decoded->backend, parallel::Backend::kProcess);
  EXPECT_EQ(decoded->proc.worker_path, "/opt/bin/pts_worker");
  EXPECT_EQ(decoded->proc.max_respawns_per_slave, 5U);
  EXPECT_EQ(decoded->proc.breaker_threshold, 2U);
}

TEST(Journal, JobOptionsCoreReductionFlagRoundTrips) {
  JobOptions options;
  options.core_reduction = true;
  parallel::codec::Writer w;
  put_job_options(w, options);
  const auto bytes = w.take();
  parallel::codec::Reader r(bytes);
  const auto decoded = get_job_options(r);
  ASSERT_TRUE(decoded) << decoded.status().to_string();
  EXPECT_TRUE(decoded->core_reduction);
}

TEST(Journal, V1OptionsBodyDecodesWithCoreReductionOff) {
  // A v1 journal's options body ends before the core_reduction byte. Decode
  // the truncated body under version 1: every v1 field intact, flag off.
  const auto options = fancy_options();
  parallel::codec::Writer w;
  put_job_options(w, options);
  auto bytes = w.take();
  bytes.pop_back();  // strip the v2 tail (one flag byte)
  parallel::codec::Reader r(bytes);
  const auto decoded = get_job_options(r, /*version=*/1);
  ASSERT_TRUE(decoded) << decoded.status().to_string();
  EXPECT_TRUE(r.done());
  EXPECT_EQ(decoded->preset, "thorough");
  EXPECT_EQ(decoded->priority, 7);
  EXPECT_FALSE(decoded->core_reduction);
}

TEST(Journal, DispatchRecordsAttachStartSequencesToOpenJobs) {
  const auto path = temp_path("journal_dispatch.jnl");
  {
    auto opened = JobJournal::open_truncate(path);
    ASSERT_TRUE(opened) << opened.status().to_string();
    auto& journal = **opened;
    ASSERT_TRUE(journal.append_submitted(1, test_instance(1), JobOptions{}).ok());
    ASSERT_TRUE(journal.append_submitted(2, test_instance(2), JobOptions{}).ok());
    ASSERT_TRUE(journal.append_submitted(3, test_instance(3), JobOptions{}).ok());
    ASSERT_TRUE(journal.append_dispatched(2, 1).ok());
    ASSERT_TRUE(journal.append_dispatched(1, 2).ok());
    // Job 2 finished: its dispatch record is struck along with the submission.
    ASSERT_TRUE(journal.append_resolved(2).ok());
  }
  auto recovered = recover_jobs(path);
  ASSERT_TRUE(recovered) << recovered.status().to_string();
  ASSERT_EQ(recovered->size(), 2U);
  EXPECT_EQ((*recovered)[0].id, 1U);
  EXPECT_EQ((*recovered)[0].dispatch_sequence, 2U);
  EXPECT_EQ((*recovered)[1].id, 3U);
  EXPECT_EQ((*recovered)[1].dispatch_sequence, 0U);  // never dispatched
  std::remove(path.c_str());
}

TEST(Journal, ReplayKeepsOnlyUnresolvedSubmissions) {
  const auto path = temp_path("journal_replay.jnl");
  {
    auto opened = JobJournal::open_truncate(path);
    ASSERT_TRUE(opened) << opened.status().to_string();
    auto& journal = **opened;
    ASSERT_TRUE(journal.append_submitted(1, test_instance(1), JobOptions{}).ok());
    ASSERT_TRUE(journal.append_submitted(2, test_instance(2), fancy_options()).ok());
    ASSERT_TRUE(journal.append_submitted(3, test_instance(3), JobOptions{}).ok());
    ASSERT_TRUE(journal.append_resolved(2).ok());
  }
  auto recovered = recover_jobs(path);
  ASSERT_TRUE(recovered) << recovered.status().to_string();
  ASSERT_EQ(recovered->size(), 2U);
  EXPECT_EQ((*recovered)[0].id, 1U);
  EXPECT_EQ((*recovered)[1].id, 3U);
  // The instance travels intact: fingerprints match what was submitted.
  EXPECT_EQ(parallel::snapshot::instance_fingerprint((*recovered)[0].instance),
            parallel::snapshot::instance_fingerprint(test_instance(1)));
  EXPECT_EQ(parallel::snapshot::instance_fingerprint((*recovered)[1].instance),
            parallel::snapshot::instance_fingerprint(test_instance(3)));
  std::remove(path.c_str());
}

TEST(Journal, TornTailRecordIsDiscardedCleanly) {
  const auto path = temp_path("journal_torn.jnl");
  {
    auto opened = JobJournal::open_truncate(path);
    ASSERT_TRUE(opened);
    ASSERT_TRUE((*opened)->append_submitted(1, test_instance(1), JobOptions{}).ok());
    ASSERT_TRUE((*opened)->append_submitted(2, test_instance(2), JobOptions{}).ok());
  }
  // A kill -9 mid-append leaves a partial last record: cut 5 bytes off.
  const auto full_size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full_size - 5);
  auto recovered = recover_jobs(path);
  ASSERT_TRUE(recovered) << recovered.status().to_string();
  ASSERT_EQ(recovered->size(), 1U);
  EXPECT_EQ((*recovered)[0].id, 1U);
  std::remove(path.c_str());
}

TEST(Journal, CorruptTailCrcStopsReplayAtTheCrashPoint) {
  const auto path = temp_path("journal_crc.jnl");
  {
    auto opened = JobJournal::open_truncate(path);
    ASSERT_TRUE(opened);
    ASSERT_TRUE((*opened)->append_submitted(1, test_instance(1), JobOptions{}).ok());
    ASSERT_TRUE((*opened)->append_submitted(2, test_instance(2), JobOptions{}).ok());
  }
  // Flip the last byte (inside record 2's body): its CRC no longer matches,
  // so replay treats it as the torn tail — record 1 is still trusted.
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  file.seekg(-1, std::ios::end);
  const char last = static_cast<char>(file.get());
  file.seekp(-1, std::ios::end);
  file.put(static_cast<char>(last ^ 0x40));
  file.close();

  auto recovered = recover_jobs(path);
  ASSERT_TRUE(recovered);
  ASSERT_EQ(recovered->size(), 1U);
  EXPECT_EQ((*recovered)[0].id, 1U);
  std::remove(path.c_str());
}

TEST(Journal, RecoveryReadsRecordsNotTheWholeFile) {
  const auto path = temp_path("journal_sparse.jnl");
  {
    auto opened = JobJournal::open_truncate(path);
    ASSERT_TRUE(opened);
    ASSERT_TRUE((*opened)->append_submitted(1, test_instance(1), JobOptions{}).ok());
    ASSERT_TRUE((*opened)->append_submitted(2, test_instance(2), JobOptions{}).ok());
  }
  // Extend the journal sparsely past 256 MiB (truncate(2): no disk blocks).
  // Replay stops at the first all-zero record header, so it must return both
  // jobs having read the records and not the hole behind them.
  std::filesystem::resize_file(path, parallel::durable::kMaxSealedFileBytes + 1);
  const auto before = bytes_read_so_far();
  const auto recovered = recover_jobs(path);
  const auto after = bytes_read_so_far();
  ASSERT_TRUE(recovered) << recovered.status().to_string();
  ASSERT_EQ(recovered->size(), 2U);
  EXPECT_EQ((*recovered)[0].id, 1U);
  EXPECT_EQ((*recovered)[1].id, 2U);
  if (before && after) {
    EXPECT_LT(*after - *before, 1u << 20);
  }
  std::remove(path.c_str());
}

TEST(Journal, ForeignFilesAreErrorsNotEmptyJournals) {
  const auto path = temp_path("journal_foreign.jnl");
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a job journal";
  }
  const auto garbage = recover_jobs(path);
  ASSERT_FALSE(garbage);
  EXPECT_NE(garbage.status().to_string().find("magic"), std::string::npos);

  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "PTSJ" << static_cast<char>(kJournalVersion + 1);
  }
  const auto future = recover_jobs(path);
  ASSERT_FALSE(future);
  EXPECT_NE(future.status().to_string().find("version"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Journal, MissingFileIsAnEmptyJournal) {
  const auto recovered = recover_jobs(temp_path("no_such_journal.jnl"));
  ASSERT_TRUE(recovered);
  EXPECT_TRUE(recovered->empty());
}

TEST(Journal, CompactRewritesToExactlyTheLiveSet) {
  const auto path = temp_path("journal_compact.jnl");
  auto opened = JobJournal::open_truncate(path);
  ASSERT_TRUE(opened) << opened.status().to_string();
  auto& journal = **opened;

  std::vector<mkp::Instance> instances;
  for (std::uint64_t k = 1; k <= 6; ++k) instances.push_back(test_instance(k));
  const JobOptions options;
  for (std::uint64_t k = 1; k <= 6; ++k) {
    ASSERT_TRUE(journal.append_submitted(k, instances[k - 1], options).ok());
  }
  ASSERT_TRUE(journal.append_dispatched(2, 1).ok());
  ASSERT_TRUE(journal.append_dispatched(4, 2).ok());
  ASSERT_TRUE(journal.append_resolved(2).ok());
  ASSERT_TRUE(journal.append_resolved(5).ok());
  ASSERT_TRUE(journal.append_resolved(6).ok());
  EXPECT_EQ(journal.records_appended(), 11U);
  const auto before = std::filesystem::file_size(path);

  // Still open: 1 and 3 queued, 4 running with start sequence 2.
  const std::vector<LiveJob> live = {
      {1, &instances[0], &options, 0},
      {3, &instances[2], &options, 0},
      {4, &instances[3], &options, 2},
  };
  ASSERT_TRUE(journal.compact(live).ok());
  // 3 kSubmitted + 1 kDispatched — the counter restarts at the image size.
  EXPECT_EQ(journal.records_appended(), 4U);
  EXPECT_LT(std::filesystem::file_size(path), before);

  // Appends after the rewrite land in the NEW file (the renamed inode).
  ASSERT_TRUE(journal.append_submitted(7, instances[0], options).ok());
  ASSERT_TRUE(journal.append_resolved(1).ok());
  EXPECT_EQ(journal.records_appended(), 6U);

  auto recovered = recover_jobs(path);
  ASSERT_TRUE(recovered) << recovered.status().to_string();
  ASSERT_EQ(recovered->size(), 3U);
  EXPECT_EQ((*recovered)[0].id, 3U);
  EXPECT_EQ((*recovered)[0].dispatch_sequence, 0U);
  EXPECT_EQ((*recovered)[1].id, 4U);
  EXPECT_EQ((*recovered)[1].dispatch_sequence, 2U);  // survived the rewrite
  EXPECT_EQ((*recovered)[2].id, 7U);
  EXPECT_EQ(parallel::snapshot::instance_fingerprint((*recovered)[1].instance),
            parallel::snapshot::instance_fingerprint(instances[3]));
  std::remove(path.c_str());
}

TEST(Journal, CompactWithNothingOpenLeavesJustTheHeader) {
  const auto path = temp_path("journal_compact_empty.jnl");
  auto opened = JobJournal::open_truncate(path);
  ASSERT_TRUE(opened) << opened.status().to_string();
  auto& journal = **opened;
  const auto inst = test_instance(1);
  ASSERT_TRUE(journal.append_submitted(1, inst, JobOptions{}).ok());
  ASSERT_TRUE(journal.append_resolved(1).ok());

  ASSERT_TRUE(journal.compact({}).ok());
  EXPECT_EQ(journal.records_appended(), 0U);
  EXPECT_EQ(std::filesystem::file_size(path), kJournalHeaderBytes);
  {
    auto recovered = recover_jobs(path);
    ASSERT_TRUE(recovered) << recovered.status().to_string();
    EXPECT_TRUE(recovered->empty());
  }

  // The journal is still live after shrinking to nothing.
  ASSERT_TRUE(journal.append_submitted(2, inst, JobOptions{}).ok());
  auto recovered = recover_jobs(path);
  ASSERT_TRUE(recovered);
  ASSERT_EQ(recovered->size(), 1U);
  EXPECT_EQ((*recovered)[0].id, 2U);
  std::remove(path.c_str());
}

TEST(Journal, ServiceCompactsPeriodicallyWithoutRestart) {
  // A long-lived service must not grow its journal without bound: with the
  // compaction cadence configured, a batch of completed jobs shrinks the file
  // back to (near) the header while the service keeps running — no restart.
  const auto path = temp_path("journal_service_compact.jnl");
  std::remove(path.c_str());
  const auto compactions_before =
      obs::metrics().counter("service_journal_compactions_total").value();

  ServiceConfig config;
  config.num_workers = 2;
  config.journal_path = path;
  config.journal_compact_every_records = 8;
  SolverService server(config);

  std::vector<JobHandle> submissions;
  for (std::uint64_t k = 1; k <= 12; ++k) {
    JobOptions options;
    options.preset = "quick";
    options.time_budget_seconds = 0.05;
    options.seed = k;
    submissions.push_back(must_submit(server, k, options));
  }
  // High-water mark: 12 submitted records (each carrying a full instance)
  // are on disk before any compaction can fire — the hysteresis refuses to
  // rewrite while (almost) everything is still live.
  const auto after_submit = std::filesystem::file_size(path);
  for (auto& submission : submissions) {
    EXPECT_TRUE(submission.result.get().status.ok());
  }

  // As resolutions accumulate, a scheduler tick rewrites the log down to the
  // few still-open jobs. Poll for the compaction — the final strikes race
  // the future resolutions by design. (The file does NOT shrink to the bare
  // header: the appends that land after the last rewrite stay until the
  // counter reaches the cadence again.)
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (obs::metrics().counter("service_journal_compactions_total").value() ==
             compactions_before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GT(obs::metrics().counter("service_journal_compactions_total").value(),
            compactions_before);
  EXPECT_LT(std::filesystem::file_size(path), after_submit);

  // After shutdown every job thread has struck its resolution, so the
  // compacted-and-appended file replays to exactly nothing.
  server.shutdown();
  auto recovered = recover_jobs(path);
  ASSERT_TRUE(recovered) << recovered.status().to_string();
  EXPECT_TRUE(recovered->empty());
  std::remove(path.c_str());
}

TEST(Journal, ServiceRecoversShutdownStrandedJobsAsResumed) {
  const auto path = temp_path("journal_service.jnl");
  std::remove(path.c_str());

  // Incarnation 1: a one-wide pool with three half-second jobs, shut down
  // immediately — one job is cancelled mid-run, two are cancelled while
  // queued. None of the three resolutions strikes the journal.
  {
    ServiceConfig config;
    config.num_workers = 1;
    config.journal_path = path;
    SolverService server(config);
    std::vector<JobHandle> submissions;
    for (std::uint64_t k = 1; k <= 3; ++k) {
      JobOptions options;
      options.preset = "quick";
      options.time_budget_seconds = 0.5;
      options.seed = k;
      submissions.push_back(must_submit(server, k, options));
    }
    server.shutdown();
    for (auto& submission : submissions) {
      const auto result = submission.result.get();
      EXPECT_EQ(result.status.code(), StatusCode::kCancelled);
      EXPECT_EQ(result.origin, JobOrigin::kFresh);
    }
  }

  // Incarnation 2: all three come back as kResumed, run to completion, and
  // their normal resolutions strike the journal.
  {
    ServiceConfig config;
    config.num_workers = 4;
    config.journal_path = path;
    SolverService server(config);
    auto recovered = server.take_recovered();
    ASSERT_EQ(recovered.size(), 3U);
    EXPECT_TRUE(server.take_recovered().empty());  // single-shot
    for (auto& submission : recovered) {
      const auto result = submission.result.get();
      EXPECT_TRUE(result.status.ok()) << result.status.to_string();
      EXPECT_EQ(result.origin, JobOrigin::kResumed);
      EXPECT_GT(result.best_value, 0.0);
    }
    const auto stats = server.stats();
    EXPECT_EQ(stats.resumed, 3U);
    EXPECT_EQ(stats.completed, 3U);
    server.shutdown();
  }

  // Incarnation 3: everything resolved last time, so nothing recovers.
  {
    ServiceConfig config;
    config.journal_path = path;
    SolverService server(config);
    EXPECT_TRUE(server.take_recovered().empty());
    EXPECT_EQ(server.stats().resumed, 0U);
    server.shutdown();
  }
  std::remove(path.c_str());
}

TEST(Journal, ServiceRestoresDispatchOrderNotJustTheJobSet) {
  const auto path = temp_path("journal_order.jnl");
  std::remove(path.c_str());

  // Incarnation 1, one-wide pool: job A (lowest priority) is dispatched
  // first because it arrives alone; B and C queue behind it with HIGHER
  // priorities. Kill (shutdown) before any of them resolves.
  {
    ServiceConfig config;
    config.num_workers = 1;
    config.journal_path = path;
    SolverService server(config);
    JobOptions slow;
    slow.preset = "quick";
    slow.time_budget_seconds = 1.0;  // long enough to outlive the shutdown
    slow.priority = 0;
    auto a = must_submit(server, 1, slow);
    // Wait until A is actually running (its kDispatched record is written
    // under the same lock that moves it to running_).
    while (server.running_jobs() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    slow.priority = 5;
    auto b = must_submit(server, 2, slow);
    slow.priority = 10;
    auto c = must_submit(server, 3, slow);
    server.shutdown();
    (void)a.result.get();
    (void)b.result.get();
    (void)c.result.get();
  }

  // Incarnation 2, still one-wide: priority alone would run C, B, A. The
  // dispatch record must put A — the job the crashed service had committed
  // to — first; C and B follow by priority.
  {
    ServiceConfig config;
    config.num_workers = 1;
    config.journal_path = path;
    SolverService server(config);
    auto recovered = server.take_recovered();
    ASSERT_EQ(recovered.size(), 3U);  // submission order: A, B, C
    JobResult results[3];
    for (std::size_t k = 0; k < 3; ++k) results[k] = recovered[k].result.get();
    EXPECT_LT(results[0].start_sequence, results[2].start_sequence)
        << "resumed-dispatched A must run before C";
    EXPECT_LT(results[2].start_sequence, results[1].start_sequence)
        << "C outranks B by priority";
    server.shutdown();
  }
  std::remove(path.c_str());
}

TEST(Journal, TenantAndWarmPolicyRoundTripThroughReplay) {
  // The v3 kSubmitted tail: tenant and warm-start policy survive replay;
  // records written without them default to the pre-tenant values.
  const auto path = temp_path("journal_v3_tail.jnl");
  std::remove(path.c_str());
  {
    auto journal = JobJournal::open_truncate(path);
    ASSERT_TRUE(journal) << journal.status().to_string();
    ASSERT_TRUE((*journal)
                    ->append_submitted(7, test_instance(1), fancy_options(),
                                       "prod", WarmStartPolicy::kSimilar)
                    .ok());
    ASSERT_TRUE((*journal)->append_submitted(8, test_instance(2), JobOptions{}).ok());
  }
  auto recovered = recover_jobs(path);
  ASSERT_TRUE(recovered) << recovered.status().to_string();
  ASSERT_EQ(recovered->size(), 2U);
  EXPECT_EQ((*recovered)[0].id, 7U);
  EXPECT_EQ((*recovered)[0].tenant, "prod");
  EXPECT_EQ((*recovered)[0].warm_start, WarmStartPolicy::kSimilar);
  EXPECT_EQ((*recovered)[0].options.priority, 7);
  EXPECT_TRUE((*recovered)[1].tenant.empty());
  EXPECT_EQ((*recovered)[1].warm_start, WarmStartPolicy::kDisabled);
  std::remove(path.c_str());
}

TEST(Journal, DedupLinkReplaysOnlyWhileBothSidesAreOpen) {
  const auto path = temp_path("journal_dedup_link.jnl");
  std::remove(path.c_str());
  auto journal = JobJournal::open_truncate(path);
  ASSERT_TRUE(journal) << journal.status().to_string();
  ASSERT_TRUE((*journal)->append_submitted(1, test_instance(1), JobOptions{}).ok());
  ASSERT_TRUE((*journal)->append_submitted(2, test_instance(1), JobOptions{}).ok());
  ASSERT_TRUE((*journal)->append_dedup(2, 1).ok());
  {
    auto recovered = recover_jobs(path);
    ASSERT_TRUE(recovered) << recovered.status().to_string();
    ASSERT_EQ(recovered->size(), 2U);
    EXPECT_EQ((*recovered)[0].dedup_primary, 0U);
    EXPECT_EQ((*recovered)[1].dedup_primary, 1U);
  }
  // Once the primary resolved, the link is inert provenance: the follower
  // still recovers, as a plain job.
  ASSERT_TRUE((*journal)->append_resolved(1).ok());
  auto recovered = recover_jobs(path);
  ASSERT_TRUE(recovered) << recovered.status().to_string();
  ASSERT_EQ(recovered->size(), 1U);
  EXPECT_EQ((*recovered)[0].id, 2U);
  EXPECT_EQ((*recovered)[0].dedup_primary, 0U);
  std::remove(path.c_str());
}

TEST(Journal, TornTailOnV3RecordsEndsReplayCleanly) {
  // kill -9 mid-append of a v3 record (tenant-tailed kSubmitted, then a
  // kDedup torn a few bytes short): everything before the torn record is
  // trusted, the tear itself is the clean end of the log.
  const auto path = temp_path("journal_v3_torn.jnl");
  std::remove(path.c_str());
  {
    auto journal = JobJournal::open_truncate(path);
    ASSERT_TRUE(journal) << journal.status().to_string();
    ASSERT_TRUE((*journal)
                    ->append_submitted(1, test_instance(1), JobOptions{},
                                       "prod", WarmStartPolicy::kExact)
                    .ok());
    ASSERT_TRUE((*journal)
                    ->append_submitted(2, test_instance(1), JobOptions{},
                                       "batch", WarmStartPolicy::kDisabled)
                    .ok());
    ASSERT_TRUE((*journal)->append_dedup(2, 1).ok());
  }
  const auto full_size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full_size - 3);  // tear the kDedup record
  auto recovered = recover_jobs(path);
  ASSERT_TRUE(recovered) << recovered.status().to_string();
  ASSERT_EQ(recovered->size(), 2U);
  EXPECT_EQ((*recovered)[0].tenant, "prod");
  EXPECT_EQ((*recovered)[0].warm_start, WarmStartPolicy::kExact);
  EXPECT_EQ((*recovered)[1].dedup_primary, 0U);  // the link never landed

  // Garbage appended after a valid log is likewise a torn tail, not an error.
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out.write("\x07garbage", 8);
  }
  auto again = recover_jobs(path);
  ASSERT_TRUE(again) << again.status().to_string();
  EXPECT_EQ(again->size(), 2U);
  std::remove(path.c_str());
}

TEST(Journal, ServiceRecoversDedupedJobsAcrossThreeIncarnations) {
  // A deduplicated pair in flight at shutdown must come back as TWO open
  // submissions that re-coalesce on resubmit — in every later incarnation —
  // and a final clean run strikes them both.
  const auto path = temp_path("journal_dedup_service.jnl");
  std::remove(path.c_str());
  JobOptions slow;
  slow.preset = "quick";
  slow.time_budget_seconds = 0.5;
  slow.seed = 3;

  // Incarnation 1: blocker runs, an identical pair queues and coalesces;
  // shutdown strands all three.
  {
    ServiceConfig config;
    config.num_workers = 1;
    config.journal_path = path;
    SolverService server(config);
    auto blocker = must_submit(server, 1, slow);
    while (server.running_jobs() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    auto primary = must_submit(server, 2, slow);
    auto follower = must_submit(server, 2, slow);  // byte-identical: attaches
    EXPECT_FALSE(primary.deduplicated);
    EXPECT_TRUE(follower.deduplicated);
    EXPECT_EQ(server.stats().dedup_hits, 1U);
    server.shutdown();
    (void)blocker.result.get();
    (void)primary.result.get();
    (void)follower.result.get();
  }

  // Incarnation 2: three open submissions replay and the pair re-coalesces
  // at resubmit; shut down again before anything resolves — still open.
  {
    ServiceConfig config;
    config.num_workers = 1;
    config.journal_path = path;
    SolverService server(config);
    auto recovered = server.take_recovered();
    ASSERT_EQ(recovered.size(), 3U);
    EXPECT_EQ(server.stats().dedup_hits, 1U);
    server.shutdown();
    for (auto& submission : recovered) (void)submission.result.get();
  }

  // Incarnation 3: let everything run. The pair still shares one solve
  // (same start sequence) and all three resolve OK as kResumed.
  {
    ServiceConfig config;
    config.num_workers = 2;
    config.journal_path = path;
    SolverService server(config);
    auto recovered = server.take_recovered();
    ASSERT_EQ(recovered.size(), 3U);
    EXPECT_EQ(server.stats().dedup_hits, 1U);
    std::vector<JobResult> results;
    for (auto& submission : recovered) results.push_back(submission.result.get());
    for (const auto& result : results) {
      EXPECT_TRUE(result.status.ok()) << result.status.to_string();
      EXPECT_EQ(result.origin, JobOrigin::kResumed);
    }
    // Submission order was blocker, primary, follower.
    EXPECT_EQ(results[1].start_sequence, results[2].start_sequence);
    EXPECT_EQ(results[1].best_value, results[2].best_value);
    EXPECT_TRUE(results[2].deduplicated);
    server.shutdown();
  }

  // Everything resolved: a fourth incarnation recovers nothing.
  auto empty = recover_jobs(path);
  ASSERT_TRUE(empty) << empty.status().to_string();
  EXPECT_TRUE(empty->empty());
  std::remove(path.c_str());
}

TEST(Journal, CancelledJobIsStruckAndDoesNotRecover) {
  const auto path = temp_path("journal_cancel.jnl");
  std::remove(path.c_str());
  {
    ServiceConfig config;
    config.num_workers = 1;
    config.journal_path = path;
    SolverService server(config);
    JobOptions slow;
    slow.preset = "quick";
    slow.time_budget_seconds = 30.0;
    auto a = must_submit(server, 1, slow);  // runs
    auto b = must_submit(server, 2, slow);  // queued
    EXPECT_TRUE(server.cancel(b.id));                 // deliberate cancel
    EXPECT_EQ(b.result.get().status.code(), StatusCode::kCancelled);
    server.cancel(a.id);
    (void)a.result.get();
    server.shutdown();
  }
  // The deliberate cancels were struck; nothing recovers.
  ServiceConfig config;
  config.journal_path = path;
  SolverService server(config);
  EXPECT_TRUE(server.take_recovered().empty());
  server.shutdown();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pts::service::journal
