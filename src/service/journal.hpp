#pragma once
// Crash-safe job journal for the solver service (DESIGN.md §9). An append-
// only log of three record kinds — "job submitted" (with the full instance
// and options, enough to re-run it), "job dispatched" (the scheduler's
// global start sequence, so a restart can restore dispatch ORDER, not just
// the job set) and "job resolved" — so a service that is killed mid-flight
// can replay the file on restart and re-enqueue exactly the jobs whose
// futures never resolved. Those jobs re-enter the queue as
// JobOrigin::kResumed, and the ones that had already started run first, in
// their original dispatch order, before any not-yet-dispatched job.
//
// Format. One file header (magic 'PTSJ', version byte), then records:
//
//   u8 type | u32 crc32(body) | u32 body_len | body
//
// Appends are written with a single write(2) followed by fsync
// (durable::File::append), so a crash leaves at most one torn record —
// always at the tail. The reader treats any malformed tail (short header,
// impossible length, CRC mismatch) as the crash point and cleanly stops
// there; everything before it is trusted. The journal therefore gives
// at-least-once semantics: a job resolved in the instant between its run and
// the resolved-record fsync runs again after restart, which is safe because
// solves are idempotent.
//
// Record bodies are field lists (parallel/codec.hpp): the instance is the
// wire's Instance leaf and the options are JobOptions' list below, so the
// journal inherits the bounds-checked total decoders the codec harness
// fuzzes. Fields added by a later version sit behind since() and default
// when an older file replays.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "mkp/instance.hpp"
#include "parallel/codec.hpp"
#include "parallel/durable_file.hpp"
#include "parallel/wire.hpp"
#include "service/job.hpp"
#include "util/status.hpp"

namespace pts::service::journal {

/// v3 adds multi-tenant metadata (tenant + warm-start policy tail on the
/// kSubmitted body) and the kDedup record linking a deduplicated follower
/// submission to the primary job whose solve it shares. v2 added the
/// kDispatched record and the options' core_reduction flag. Older files
/// replay fine: missing tails default (no tenant, warm start off) and the
/// new record type simply never appears.
inline constexpr std::uint8_t kJournalVersion = 3;
inline constexpr std::uint8_t kJournalMinVersion = 1;
/// File header: 4 magic bytes + 1 version byte (durable::tag).
inline constexpr std::size_t kJournalHeaderBytes = parallel::durable::kTagBytes;
/// Record frame: type (1) + crc (4) + body_len (4).
inline constexpr std::size_t kRecordHeaderBytes = 9;
/// Per-record body ceiling — far above any real instance, far below an
/// allocation that a corrupt length prefix could weaponize.
inline constexpr std::uint64_t kMaxRecordBytes = 256ull << 20;

enum class RecordType : std::uint8_t {
  kSubmitted = 1,   ///< body: job id + instance + options [+ tenant, warm (v3)]
  kResolved = 2,    ///< body: job id (the future resolved, any status)
  kDispatched = 3,  ///< body: job id + scheduler start sequence (v2)
  kDedup = 4,       ///< body: follower job id + primary job id (v3)
};

/// A submission that survived replay: journaled but never resolved.
struct RecoveredJob {
  JobId id = 0;  ///< id in the previous incarnation (resubmit assigns a new one)
  mkp::Instance instance;
  JobOptions options;
  /// The previous incarnation's dispatch order (1-based start sequence);
  /// 0 when the job was still queued at the crash. The service dispatches
  /// nonzero holders first, in ascending sequence — a restart continues the
  /// schedule, it does not re-derive one from priorities alone.
  std::uint64_t dispatch_sequence = 0;
  /// Multi-tenant metadata (v3; defaults for older files).
  TenantId tenant;
  WarmStartPolicy warm_start = WarmStartPolicy::kDisabled;
  /// Nonzero: this submission had attached to that primary job's in-flight
  /// solve (kDedup). Provenance only — resubmitting both re-coalesces them
  /// naturally, since their instance bytes and solve shape still match.
  JobId dedup_primary = 0;
};

/// One still-open job at compaction time: everything the compacted file must
/// preserve so a crash right after the rewrite replays the same set. The
/// pointers borrow from the service's job table; the caller holds its lock
/// across the compact() call.
struct LiveJob {
  JobId id = 0;
  const mkp::Instance* instance = nullptr;
  const JobOptions* options = nullptr;
  /// Nonzero when the scheduler already dispatched the job: the rewrite
  /// emits a kDispatched record so replay keeps the committed start order.
  std::uint64_t dispatch_sequence = 0;
  const TenantId* tenant = nullptr;  ///< nullptr = default tenant
  WarmStartPolicy warm_start = WarmStartPolicy::kDisabled;
  /// Nonzero: re-emit the kDedup link to this primary job.
  JobId dedup_primary = 0;
};

/// Append-only journal writer. Thread-safe: the service appends from the
/// submit path, the scheduler and every job thread.
class JobJournal {
 public:
  JobJournal(const JobJournal&) = delete;
  JobJournal& operator=(const JobJournal&) = delete;

  /// Creates (or truncates) `path` and writes the file header. Recovery
  /// reads the old journal FIRST (recover_jobs), then truncates — the
  /// surviving jobs are re-appended by the service as it resubmits them,
  /// which compacts the log on every restart.
  [[nodiscard]] static Expected<std::unique_ptr<JobJournal>> open_truncate(
      const std::string& path);

  /// Journals an accepted submission (id + everything needed to re-run it,
  /// including its tenant and warm-start policy).
  Status append_submitted(JobId id, const mkp::Instance& instance,
                          const JobOptions& options,
                          const TenantId& tenant = {},
                          WarmStartPolicy warm_start = WarmStartPolicy::kDisabled);

  /// Journals a deduplicated submission: `follower` attached to `primary`'s
  /// in-flight solve. Replay keeps the provenance on the follower's
  /// RecoveredJob; an unmatched link (either side resolved) is inert.
  Status append_dedup(JobId follower, JobId primary);

  /// Journals the moment the scheduler starts a job, with its global start
  /// sequence. Replay attaches it to the open submission so a restarted
  /// service can restore the dispatch order the crashed one had committed to.
  Status append_dispatched(JobId id, std::uint64_t start_sequence);

  /// Journals a terminal resolution; the pair (submitted, resolved) cancels
  /// out at replay. Shutdown-caused resolutions are deliberately NOT
  /// journaled by the service, so those jobs recover on restart.
  Status append_resolved(JobId id);

  /// Rewrites the journal in place to exactly the still-open jobs, without a
  /// restart: the full image (header + one kSubmitted per job + kDispatched
  /// for the already-started ones) replaces `path` through `path.tmp`
  /// (DESIGN.md §9 "Durable files"), then future appends go to the new
  /// file. A crash at ANY point replays either the old log or the compacted
  /// one, never a mix. The caller must guarantee no concurrent submissions
  /// race the `live` set (the service compacts under its own mutex, which
  /// also serializes append_submitted).
  Status compact(const std::vector<LiveJob>& live);

  /// Records appended (or rewritten by compact) since open — the size signal
  /// the service's compaction trigger watches.
  [[nodiscard]] std::uint64_t records_appended() const;

 private:
  JobJournal(std::unique_ptr<parallel::durable::File> file, std::string path)
      : file_(std::move(file)), path_(std::move(path)) {}
  Status append(RecordType type, const std::vector<std::uint8_t>& body);

  mutable std::mutex mutex_;
  std::unique_ptr<parallel::durable::File> file_;
  std::string path_;
  std::uint64_t records_appended_ = 0;
};

/// Replays `path`: every kSubmitted record without a matching kResolved
/// record survives, in submission order. A missing file is an empty journal
/// (fresh start), and a torn or corrupt tail record ends the replay cleanly;
/// a bad file header (foreign magic, unknown version) is an error.
[[nodiscard]] Expected<std::vector<RecoveredJob>> recover_jobs(
    const std::string& path);

// -- Sub-codecs, exposed for the recover-label fuzz tests. --

void put_job_options(parallel::codec::Writer& w, const JobOptions& options);
/// `version` is the journal file's header version: v1 bodies end before the
/// core_reduction flag, which then defaults to off.
[[nodiscard]] Expected<JobOptions> get_job_options(
    parallel::codec::Reader& r, std::uint8_t version = kJournalVersion);

/// A submission's field list after its job id: the kSubmitted body, and
/// verbatim the cluster's kSubmitted replicate record (cluster/
/// peer_protocol.cpp), so a replica's bytes are the journal's bytes.
template <class V, class I, class O, class T, class W>
void submission_fields(V& v, I& instance, O& options, T& tenant,
                       W& warm_start) {
  fields(v, instance);
  fields(v, options);
  if (v.since(3)) {
    v.str(tenant, /*max_len=*/256);
    v.enumeration(warm_start, WarmStartPolicy::kDisabled,
                  WarmStartPolicy::kSimilar);
  }
}

}  // namespace pts::service::journal

namespace pts::service {

template <class V, parallel::codec::Of<JobOptions> M>
void fields(V& v, M& o) {
  v.str(o.preset, /*max_len=*/256);
  v.f64(o.time_budget_seconds);
  v.optional_f64(o.deadline_seconds);
  v.i32(o.priority);
  v.u64(o.seed);
  v.optional_f64(o.target_value);
  v.optional_enum(o.mode, parallel::CooperationMode::kSequential,
                  parallel::CooperationMode::kCooperativeAdaptive);
  v.optional_enum(o.backend, parallel::Backend::kThread,
                  parallel::Backend::kProcess);
  // The proc farm shape: a resumed proc job must respawn the same workers
  // under the same recovery policy.
  v.str(o.proc.worker_path, /*max_len=*/4096);
  v.f64(o.proc.worker_timeout_seconds);
  v.u64(o.proc.max_respawns_per_slave);
  v.f64(o.proc.respawn_backoff_base_seconds);
  v.f64(o.proc.respawn_backoff_cap_seconds);
  v.u64(o.proc.breaker_threshold);
  v.f64(o.proc.breaker_window_seconds);
  v.f64(o.proc.breaker_cooloff_seconds);
  if (v.since(2)) v.flag(o.core_reduction);
}

}  // namespace pts::service
