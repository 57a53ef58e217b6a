#pragma once
// SolverService: many MKP solve jobs over one fixed-width worker pool,
// each accepted job answered exactly once with a result **or a structured
// error** — never an abort, never a lost answer. Multi-tenant (DESIGN.md §7): submissions
// carry a tenant identity, dispatch is weighted-fair across tenants, and
// identical in-flight work is deduplicated into one shared solve.
//
// Submission. SolverService is a JobGateway (service/gateway.hpp):
// submit(request, on_done) validates and enqueues. Admission failures (bad
// options, backpressure, shutdown) come back as a Status and `on_done` is
// never called; accepted work returns a JobTicket and `on_done` is called
// exactly once with the JobResult — from whichever path terminates the
// waiter: the job thread's run fan-out, the scheduler's deadline sweep
// (under the service mutex), cancel(), a shed, or shutdown(). So `on_done`
// may run before submit returns, on any of those threads: it must not
// block and must not call back into the service. submit(request) is the
// future-style form of the same path. Every submitted instance is content-addressed
// (snapshot::instance_hash64 over its canonical wire bytes); a submission
// whose instance bytes AND solve-shaped options match an in-flight job
// attaches to that job as an extra *waiter* instead of enqueuing a new
// solve — one run fans out to every waiter's future, each with its own
// deadline semantics.
//
// Scheduling. A scheduler thread dispatches whenever capacity frees up.
// Jobs resumed from the journal go absolutely first, in their original
// dispatch order. Everything else is weighted-fair queuing over tenants:
// each tenant accrues virtual time slots/weight per dispatched slot and the
// tenant with the least virtual time is served next (its own jobs ordered
// by priority, ties in submission order), subject to its max_running_slots
// quota. With a single tenant (or none configured) this degrades exactly to
// the old strict-priority order. Backpressure sheds the lowest-weight,
// lowest-priority queued job first, and only when the incoming submission
// strictly outranks it.
//
// Warm starts. With ServiceConfig::warm_start_dir set, completed
// cooperative runs persist their final per-slave state (strategies, SGP
// scores, elite solutions) keyed by instance content hash; a new job whose
// WarmStartPolicy allows it is seeded from the exact entry — or, under
// kSimilar, from an (m, n, tightness)-neighboring one — before it runs.
//
// Cancellation. Every dispatched job owns a CancelSource armed with the
// most generous waiter deadline; the token threads through the master's
// round loop, every mailbox wait, and each slave engine's inner move loop.
// cancel(id) on a shared solve detaches just that waiter (the solve
// continues for the rest); cancelling the last waiter stops the run.
//
// Fault model. A slave round that throws becomes a SlaveFault message; the
// master's gather completes with P-1 reports and respawns the slave's
// record (see parallel/master.cpp). The service surfaces the per-job fault
// count in JobResult and aggregates it in ServiceStats.
//
// Crash safety. With ServiceConfig::journal_path set, every accepted waiter
// is journaled at submit (with its tenant and warm-start policy), dedup
// attachments are linked with a kDedup record, the scheduler's dispatch is
// stamped with its global start sequence, and every terminal resolution is
// struck — EXCEPT resolutions caused by shutdown(), which are deliberately
// left open so a restarted service replays them. The constructor
// re-enqueues the survivors as JobOrigin::kResumed; take_recovered() hands
// their futures to the caller. Recovered duplicate submissions re-coalesce
// naturally at resubmit (their content bytes still match).
//
// DESIGN.md §7 covers the full design; examples/batch_server.cpp drives a
// mixed multi-tenant workload through it.

#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "service/gateway.hpp"
#include "service/job.hpp"
#include "service/journal.hpp"
#include "service/warm_start.hpp"
#include "util/cancel.hpp"
#include "util/timer.hpp"

namespace pts::service {

class SolverService final : public JobGateway {
 public:
  explicit SolverService(ServiceConfig config = {});
  ~SolverService();  ///< shutdown(): cancels outstanding work, joins all threads

  SolverService(const SolverService&) = delete;
  SolverService& operator=(const SolverService&) = delete;

  /// The submission API (the contract is JobGateway's). Non-blocking and
  /// abort-free. The instance is shared into the job (and its JobResult)
  /// so its lifetime is independent of the caller's copy.
  [[nodiscard]] Expected<JobTicket> submit(SubmitRequest request,
                                           JobCallback on_done) override;
  using JobGateway::submit;

  /// Queued waiter: resolves kCancelled immediately without running.
  /// Waiter on a running solve: detaches it (the shared solve continues for
  /// any other waiters; the last waiter's cancel fires the run's token and
  /// its future resolves kCancelled with the best found so far). Returns
  /// false for ids that are unknown or already resolved.
  bool cancel(JobId id) override;

  /// Stops accepting work, cancels every queued and running job, and joins
  /// all threads. Every outstanding future resolves. Idempotent; the
  /// destructor calls it. Journaled jobs it cancels stay open in the journal
  /// and come back as kResumed in the next incarnation.
  void shutdown();

  /// Jobs replayed from the journal and re-enqueued by the constructor, in
  /// their original submission order. Single-shot: moves the handles (with
  /// their futures) out; later calls return empty. A replayed job the
  /// service refuses (e.g. the queue is full) is logged and left out.
  [[nodiscard]] std::vector<JobHandle> take_recovered();

  [[nodiscard]] std::size_t queued_jobs() const;
  [[nodiscard]] std::size_t running_jobs() const;
  [[nodiscard]] ServiceStats stats() const;

 private:
  struct Waiter;
  struct Job;

  /// Weighted-fair-queuing ledger for one tenant.
  struct TenantState {
    double weight = 1.0;
    std::size_t max_running_slots = 0;  ///< 0 = no quota
    double vtime = 0.0;                 ///< accrued virtual time
    std::size_t running_slots = 0;
  };

  Expected<JobTicket> submit_full(SubmitRequest request, JobCallback on_done,
                                  JobOrigin origin, std::uint64_t resume_rank);
  /// Admits a fresh job into the queue: idle-tenant vtime catch-up, id
  /// assignment from its first waiter, enqueue, and the kSubmitted journal
  /// append. Shared by the normal accept path and shed-admission so both
  /// produce identically-initialized jobs.
  void accept_job_locked(const std::shared_ptr<Job>& job,
                         std::unique_ptr<Waiter> waiter);
  /// Strikes a journaled waiter's submission record (no-op when journaling
  /// is off or the waiter never made it into the journal).
  void journal_resolved(const Waiter& waiter);
  TenantState& tenant_state_locked(const TenantId& tenant);
  void scheduler_loop();
  void dispatch_ready_locked();
  void sweep_queue_locked();
  void maybe_compact_journal_locked();
  void reap_finished_locked(std::unique_lock<std::mutex>& lock);
  void run_job(const std::shared_ptr<Job>& job, std::uint64_t start_sequence);
  /// Resolves one waiter that never got (or never will get) a run result.
  static void resolve_waiter(Waiter& waiter, const Job& job, Status status);

  ServiceConfig config_;
  mutable std::mutex mutex_;
  std::condition_variable wake_;

  std::vector<std::shared_ptr<Job>> queue_;  // unsorted; dispatch scans
  std::map<JobId, std::shared_ptr<Job>> running_;
  std::map<JobId, std::thread> job_threads_;
  std::vector<JobId> finished_;  ///< job threads done, awaiting join

  std::size_t free_slots_ = 0;
  JobId next_id_ = 1;
  std::uint64_t next_start_sequence_ = 1;
  bool stopping_ = false;
  ServiceStats stats_;

  /// WFQ ledgers, lazily populated; the global virtual clock tracks the
  /// busiest tenant so a newly active one starts level, not ahead.
  std::map<TenantId, TenantState> tenants_;
  double global_vtime_ = 0.0;

  /// Null when journaling is off (empty path or the journal failed to open).
  std::unique_ptr<journal::JobJournal> journal_;
  std::vector<JobHandle> recovered_;  ///< replayed jobs, until take_recovered()

  /// Null when ServiceConfig::warm_start_dir is empty.
  std::unique_ptr<WarmStartStore> warm_store_;

  std::thread scheduler_;  // started last, joined by shutdown()
};

}  // namespace pts::service
