#pragma once
// JobTable: the book a gateway (SolverService, cluster::Coordinator) keeps of
// every submission it accepted and has not yet answered — the paper's master,
// which owns each unit of work it hands out and routes each report back to
// the one slot it came from (DESIGN.md §7, §11).
//
// A job is one solve with one or more waiters; a waiter is one accepted
// submission with its own id, tenant, deadline and completion callback.
// Dedup. A submission may share an open job when three things match, checked
// in this order: the instance's content hash, the solve key (the options that
// shape the search, with the per-caller priority and deadline neutralized,
// plus the warm-start policy), and the canonical instance bytes — serialized
// only when the first two match, so no job keeps a serialized copy. Tenants
// are not part of the rule: two tenants submitting the same work share one
// solve. The gateway may add its own condition (the service only lets a
// running solve take a waiter whose deadline it covers), so one key can map
// to more than one open job.
//
// Exactly once. Every path that answers a waiter — run result, deadline,
// cancel, shed, failover exhaustion, shutdown — goes through resolve(),
// which strikes the waiter's journal record and then calls on_done; the
// caller passes strike=false only on shutdown, whose waiters the next
// incarnation replays.
//
// Journal. With open_journal(), every waiter is journaled when it is
// admitted (kSubmitted, then kDedup if it attached to an existing job), the
// service's dispatch is stamped (kDispatched), and maybe_compact() rewrites
// the file to the open waiters once it has grown. A gateway that mirrors the
// records elsewhere — the coordinator's replication log — sets a tap, which
// sees kSubmitted, kDedup and kResolved in journal order, with or without a
// journal file.
//
// Locking. The table has no lock: its gateway's mutex guards it. resolve()
// and fail() touch only the detached waiter, the job passed in, the journal
// (which locks itself) and the tap, so a gateway without a tap may call
// them after releasing its mutex, for a waiter it detached from a job that
// nothing else still writes (a retired one).

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "service/gateway.hpp"
#include "service/job.hpp"
#include "service/journal.hpp"
#include "util/timer.hpp"

namespace pts::service {

class JobTable {
 public:
  /// One accepted submission's stake in a job.
  struct Waiter {
    JobId id = 0;
    JobOrigin origin = JobOrigin::kFresh;
    TenantId tenant;
    std::shared_ptr<const mkp::Instance> instance;
    /// What the journal records for this waiter: the request's options with
    /// whatever urgency fields the gateway folds in, so a follower replays
    /// as itself.
    JobOptions options;
    WarmStartPolicy warm_start = WarmStartPolicy::kDisabled;
    Deadline deadline;           ///< unbounded when no deadline was requested
    bool journaled = false;      ///< has a kSubmitted record awaiting its strike
    bool deduplicated = false;   ///< attached to an existing job
    JobId dedup_primary = 0;     ///< the job it attached to (kDedup target)
    double queue_seconds = 0.0;  ///< set by the gateway when the solve starts
    Stopwatch since_submit;
    JobCallback on_done;
  };

  /// One solve shared by its waiters. Each gateway derives its own job type
  /// (scheduling or dispatch state) and downcasts what the table hands back.
  struct Job {
    JobId id = 0;  ///< its first waiter's id
    std::shared_ptr<const mkp::Instance> instance;
    std::uint64_t content_hash = 0;       ///< snapshot::instance_hash64
    std::vector<std::uint8_t> solve_key;  ///< see solve_key()
    /// The service's global dispatch order (0 while queued); compaction
    /// re-emits it as the anchor's kDispatched record.
    std::uint64_t start_sequence = 0;
    JobId dispatch_anchor = 0;  ///< first journaled waiter
    std::vector<std::unique_ptr<Waiter>> waiters;
  };

  /// Sees each kSubmitted, kDedup and kResolved record as it is journaled.
  using Tap = std::function<void(journal::RecordType, const Waiter&)>;
  /// The gateway's own submit path, taking a replayed submission and the
  /// dispatch sequence the previous incarnation had committed to (0: none).
  using Resubmit = std::function<Expected<JobTicket>(SubmitRequest, JobCallback,
                                                     std::uint64_t)>;

  /// `compact_every_records` 0 disables runtime compaction.
  explicit JobTable(std::uint64_t compact_every_records = 256, Tap tap = {})
      : compact_every_records_(compact_every_records), tap_(std::move(tap)) {}

  /// The dedup identity of a solve shape: the options serialized with
  /// priority and deadline neutralized, plus the warm-start policy.
  [[nodiscard]] static std::vector<std::uint8_t> solve_key(
      const JobOptions& options, WarmStartPolicy warm_start);

  /// Replays the journal at `path` and then reopens it empty; returns what
  /// the previous incarnation left open, for resume(). A file that is not a
  /// job journal is left untouched and journaling stays off.
  std::vector<journal::RecoveredJob> open_journal(const std::string& path);
  /// Resubmits each replayed job through `resubmit` (where it is journaled
  /// afresh, so every restart compacts the file) and keeps its handle for
  /// take_recovered(). A refused one is logged and left out.
  void resume(std::vector<journal::RecoveredJob> jobs, const Resubmit& resubmit);
  /// Single-shot: the resumed handles, in their original submission order.
  [[nodiscard]] std::vector<JobHandle> take_recovered() {
    return std::exchange(recovered_, {});
  }

  /// A waiter for `request` under the next id. Its options are the
  /// request's; the gateway folds in the fields it journals.
  std::unique_ptr<Waiter> make_waiter(const SubmitRequest& request,
                                      JobCallback on_done, JobOrigin origin);

  /// The first open job with waiters that `instance` may share under the
  /// dedup rule and `eligible` (if set) accepts; nullptr if none.
  Job* match(std::uint64_t content_hash, const std::vector<std::uint8_t>& solve_key,
             const mkp::Instance& instance,
             const std::function<bool(const Job&)>& eligible = {});
  /// Opens `job` with `waiter` as its first: journals kSubmitted.
  void admit(const std::shared_ptr<Job>& job, std::unique_ptr<Waiter> waiter);
  /// Adds `waiter` to an open job: journals kSubmitted, then kDedup.
  void attach(Job& job, std::unique_ptr<Waiter> waiter);
  /// Stamps the service's dispatch order and journals it (kDispatched).
  void dispatched(Job& job, std::uint64_t start_sequence);

  [[nodiscard]] std::shared_ptr<Job> find(JobId job) const;
  /// The open job `waiter` belongs to; null once it was resolved.
  [[nodiscard]] std::shared_ptr<Job> job_of(JobId waiter) const;
  /// Every open job, by id (submission order).
  [[nodiscard]] const std::map<JobId, std::shared_ptr<Job>>& jobs() const {
    return jobs_;
  }

  /// Takes one waiter out of its job; the job stays open, even if empty.
  std::unique_ptr<Waiter> detach(Job& job, JobId waiter);
  /// Closes `job` and hands its waiters to the caller to resolve.
  std::vector<std::unique_ptr<Waiter>> retire(Job& job);
  /// Closes `job` and fails every waiter with `status`.
  void fail_all(Job& job, const Status& status, bool strike = true);
  /// Fails with `status` every waiter of `job` whose own deadline has
  /// passed; returns how many.
  std::size_t expire(Job& job, const Status& status);

  /// The one place a waiter is answered: strikes its record unless `strike`
  /// is false, then calls on_done with `result` stamped with the waiter's
  /// identity.
  void resolve(Waiter& waiter, JobResult result, bool strike = true);
  /// resolve() without a run: `status` and the job's identity.
  void fail(Waiter& waiter, const Job& job, Status status, bool strike = true);
  /// Waiters answered so far.
  [[nodiscard]] std::uint64_t resolved() const {
    return resolved_.load(std::memory_order_relaxed);
  }

  /// Rewrites the journal to the open waiters once it holds
  /// `compact_every_records` records and the rewrite would at least halve
  /// it (without that hysteresis a standing queue would re-trigger forever).
  void maybe_compact();

 private:
  void index(Job& job, std::unique_ptr<Waiter> waiter);
  /// Journals a new waiter's kSubmitted record and taps it.
  void journal_submitted(Job& job, Waiter& waiter);

  std::uint64_t compact_every_records_;
  Tap tap_;
  JobId next_id_ = 1;
  std::map<JobId, std::shared_ptr<Job>> jobs_;  ///< open jobs by job id
  std::map<JobId, JobId> waiter_jobs_;          ///< open waiter -> job id
  std::atomic<std::uint64_t> resolved_{0};
  /// Null when journaling is off (no path, or the journal failed to open).
  std::unique_ptr<journal::JobJournal> journal_;
  std::vector<JobHandle> recovered_;  ///< resumed jobs, until take_recovered()
};

}  // namespace pts::service
