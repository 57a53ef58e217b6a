#include "service/solver_service.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <tuple>
#include <utility>

#include "obs/metrics.hpp"
#include "parallel/presets.hpp"
#include "parallel/snapshot.hpp"
#include "util/check.hpp"

namespace pts::service {

using namespace std::chrono_literals;

namespace {

/// Per-tenant metric name: "tenant_<name><suffix>", with the name sanitized
/// to the metrics registry's identifier alphabet. The default tenant (empty
/// name) reports as "tenant_default...".
std::string tenant_metric(const TenantId& tenant, const char* suffix) {
  std::string name = "tenant_";
  if (tenant.empty()) {
    name += "default";
  } else {
    for (const char c : tenant) {
      const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_';
      name += ok ? c : '_';
    }
  }
  name += suffix;
  return name;
}

}  // namespace

/// One solve, queued or running, fanned out to one or more waiters (the
/// table's part: identity, dedup key, waiters). The tenant charged in the
/// fair-queuing ledger is the primary waiter's.
struct SolverService::Job : JobTable::Job {
  JobOptions options;               ///< the solve shape (primary's)
  parallel::ParallelConfig config;  ///< resolved at submit; budget set at dispatch
  std::size_t slots = 1;            ///< pool capacity occupied while running
  int priority = 0;                 ///< max over attached waiters
  TenantId tenant;                  ///< WFQ account charged for the slots
  WarmStartPolicy warm_start = WarmStartPolicy::kDisabled;
  /// Nonzero = the crashed incarnation had dispatched this job with this
  /// start sequence; it outranks every ordinary queued job and replays in
  /// ascending-rank order.
  std::uint64_t resume_rank = 0;
  /// The most generous live waiter deadline, fixed at dispatch — the run
  /// gets the longest leash any of its waiters paid for.
  Deadline solve_deadline;
  CancelSource cancel;  ///< armed with solve_deadline at dispatch
};

SolverService::SolverService(ServiceConfig config)
    : config_(std::move(config)), table_(config_.journal_compact_every_records) {
  PTS_CHECK_MSG(config_.num_workers >= 1, "the pool needs at least one worker");
  PTS_CHECK_MSG(config_.queue_capacity >= 1, "the queue needs at least one slot");
  free_slots_ = config_.num_workers;

  // Tenant ledgers exist from the start so their gauges report even before
  // the first submission; unlisted tenants get lazily created defaults.
  for (const auto& tenant : config_.tenants) {
    TenantState state;
    state.weight = tenant.weight > 0.0 ? tenant.weight : 1.0;
    state.max_running_slots = tenant.max_running_slots;
    tenants_.emplace(tenant.name, state);
  }

  if (!config_.warm_start_dir.empty()) {
    warm_store_ = std::make_unique<WarmStartStore>(
        config_.warm_start_dir, config_.warm_start_tightness_tolerance);
  }

  // Crash recovery: re-enqueue every job whose result never went out.
  std::vector<journal::RecoveredJob> replayed;
  if (!config_.journal_path.empty()) {
    replayed = table_.open_journal(config_.journal_path);
  }
  scheduler_ = std::thread([this] { scheduler_loop(); });
  table_.resume(std::move(replayed), [this](SubmitRequest request,
                                            JobCallback on_done,
                                            std::uint64_t resume_rank) {
    return submit_full(std::move(request), std::move(on_done),
                       JobOrigin::kResumed, resume_rank);
  });
}

SolverService::~SolverService() { shutdown(); }

Expected<JobTicket> SolverService::submit(SubmitRequest request,
                                          JobCallback on_done) {
  return submit_full(std::move(request), std::move(on_done), JobOrigin::kFresh,
                     /*resume_rank=*/0);
}

std::vector<JobHandle> SolverService::take_recovered() {
  std::lock_guard lock(mutex_);
  return table_.take_recovered();
}

SolverService::TenantState& SolverService::tenant_state_locked(
    const TenantId& tenant) {
  auto it = tenants_.find(tenant);
  if (it != tenants_.end()) return it->second;
  TenantState state;  // unlisted tenant: weight 1, no quota
  // A tenant entering the ledger starts level with the busiest one — idle
  // time earns no credit it could later spend starving everyone else.
  state.vtime = global_vtime_;
  return tenants_.emplace(tenant, state).first->second;
}

Expected<JobTicket> SolverService::submit_full(SubmitRequest request,
                                              JobCallback on_done,
                                              JobOrigin origin,
                                              std::uint64_t resume_rank) {
  // The request-level urgency fields are authoritative: fold them into the
  // options copy the waiter keeps, so the journal replays them and the solve
  // key (which neutralizes exactly these fields) stays caller-independent.
  request.options.priority = request.priority;
  request.options.deadline_seconds = request.deadline_seconds;

  std::unique_ptr<Waiter> waiter;
  {
    std::lock_guard lock(mutex_);
    waiter = table_.make_waiter(request, std::move(on_done), origin);
    ++stats_.submitted;
    if (origin == JobOrigin::kResumed) ++stats_.resumed;
  }
  obs::metrics().counter("service_submitted_total").add();
  if (origin == JobOrigin::kResumed) {
    obs::metrics().counter("service_resumed_total").add();
  }
  JobTicket out;
  out.id = waiter->id;
  out.tenant = request.tenant;

  // Validation: every failure is a structured Status, never an abort.
  Status invalid;
  std::optional<parallel::ParallelConfig> preset;
  if (!request.instance) {
    invalid = Status::invalid_argument("null instance");
  } else if (const auto issues = request.instance->validate(); !issues.empty()) {
    invalid = Status::invalid_argument("instance " + issues.front());
  } else if (request.options.time_budget_seconds <= 0.0) {
    invalid = Status::invalid_argument("time_budget_seconds must be positive");
  } else if (request.deadline_seconds && *request.deadline_seconds < 0.0) {
    invalid = Status::invalid_argument("deadline_seconds must be non-negative");
  } else {
    preset = parallel::preset_by_name(request.options.preset,
                                      request.options.seed);
    if (!preset) {
      std::string known;
      for (const auto& name : parallel::known_preset_names()) {
        if (!known.empty()) known += ", ";
        known += name;
      }
      invalid = Status::invalid_argument("unknown preset '" +
                                         request.options.preset +
                                         "' (known: " + known + ")");
    }
  }
  if (!invalid.ok()) {
    {
      std::lock_guard lock(mutex_);
      ++stats_.invalid;
    }
    obs::metrics().counter("service_invalid_total").add();
    return invalid;
  }

  auto job = std::make_shared<Job>();
  job->instance = request.instance;
  job->options = request.options;
  job->priority = request.priority;
  job->tenant = request.tenant;
  job->warm_start = request.warm_start;
  job->resume_rank = resume_rank;
  job->config = *preset;
  parallel::scale_budget_to_instance(job->config, *job->instance);
  if (job->options.mode) job->config.mode = *job->options.mode;
  if (job->options.backend) {
    job->config.backend = *job->options.backend;
    job->config.proc = job->options.proc;
  }
  job->config.seed = job->options.seed;
  job->config.target_value = job->options.target_value;
  job->config.core.enabled = job->options.core_reduction;
  job->config.fault_injector = config_.fault_injector;
  // Time is the binding limit (set at dispatch); rounds get enough headroom
  // that they can never run out before the budget or deadline does.
  job->config.search_iterations =
      std::max<std::size_t>(job->config.search_iterations, 1'000'000);
  // Clamp the thread ask to the pool width; that clamp IS the
  // no-oversubscription guarantee.
  job->config.num_slaves =
      std::clamp<std::size_t>(job->config.num_slaves, 1, config_.num_workers);
  // ... and to the tenant's running-slot quota: a job asking more slots than
  // its tenant may ever hold would be permanently ineligible for dispatch —
  // the scheduler would skip it forever and its result would never arrive.
  // Shrinking the ask keeps the quota's meaning (concurrency cap) without
  // turning it into a starvation trap.
  for (const auto& tenant : config_.tenants) {
    if (tenant.name == request.tenant && tenant.max_running_slots != 0) {
      job->config.num_slaves =
          std::min(job->config.num_slaves, tenant.max_running_slots);
      break;
    }
  }
  job->slots = job->config.mode == parallel::CooperationMode::kSequential
                   ? 1
                   : job->config.num_slaves;
  job->content_hash = parallel::snapshot::instance_hash64(*job->instance);
  job->solve_key = JobTable::solve_key(job->options, job->warm_start);
  out.content_hash = job->content_hash;

  std::unique_lock lock(mutex_);
  if (stopping_) {
    ++stats_.cancelled;
    lock.unlock();
    obs::metrics().counter("service_cancelled_total").add();
    return Status::unavailable("service is shut down");
  }

  // In-flight dedup: an identical solve already queued or running adopts
  // this submission as an extra waiter instead of a second run. A running
  // solve only qualifies when its committed deadline covers this waiter's —
  // a shared solve must never stop earlier than a waiter paid for.
  const auto eligible = [&](const JobTable::Job& entry) {
    const auto& other = static_cast<const Job&>(entry);
    if (other.start_sequence == 0) return true;
    return !other.cancel.token().cancel_requested() &&
           (!other.solve_deadline.is_bounded() ||
            (waiter->deadline.is_bounded() &&
             waiter->deadline.remaining_seconds() <=
                 other.solve_deadline.remaining_seconds()));
  };
  if (auto* entry = request.allow_dedup
                        ? table_.match(job->content_hash, job->solve_key,
                                       *job->instance, eligible)
                        : nullptr) {
    auto& target = static_cast<Job&>(*entry);
    target.priority = std::max(target.priority, request.priority);
    if (target.start_sequence != 0) {
      waiter->queue_seconds = waiter->since_submit.elapsed_seconds();
    }
    table_.attach(target, std::move(waiter));
    ++stats_.dedup_hits;
    out.deduplicated = true;
    lock.unlock();
    obs::metrics().counter("service_dedup_hits_total").add();
    obs::metrics().counter(tenant_metric(out.tenant, "_dedup_hits_total")).add();
    return out;
  }

  if (queue_.size() >= config_.queue_capacity) {
    // Backpressure. Shedding evicts the weakest queued job — lowest tenant
    // weight first, then lowest priority, newest on ties — and only when the
    // incoming submission strictly outranks it on (weight, priority);
    // otherwise the incoming submission is the one rejected. With every
    // tenant at the default weight this degrades to the pre-tenant
    // priority-only rule.
    std::shared_ptr<Job> shed;
    std::vector<std::unique_ptr<Waiter>> lost;
    if (config_.overflow == OverflowPolicy::kShedLowest) {
      const auto rank = [this](const Job& j) {
        return std::pair(tenant_state_locked(j.tenant).weight, j.priority);
      };
      auto weakest = std::min_element(
          queue_.begin(), queue_.end(), [&](const auto& a, const auto& b) {
            return std::tuple(rank(*a), b->id) < std::tuple(rank(*b), a->id);
          });
      if (weakest != queue_.end() && rank(**weakest) < rank(*job)) {
        shed = *weakest;
        queue_.erase(weakest);
        lost = table_.retire(*shed);
        accept_job_locked(job, std::move(waiter));
      }
    }
    ++stats_.rejected;
    lock.unlock();
    if (!shed) {
      obs::metrics().counter("service_rejected_total").add();
      return Status::resource_exhausted(
          "queue full (capacity " + std::to_string(config_.queue_capacity) +
          ")");
    }
    obs::metrics().counter("service_shed_total").add();
    for (auto& waiter_lost : lost) {
      table_.fail(*waiter_lost, *shed,
                  Status::resource_exhausted(
                      "shed by a higher-priority submission (queue full)"));
    }
    wake_.notify_all();
    return out;
  }

  accept_job_locked(job, std::move(waiter));
  lock.unlock();
  wake_.notify_all();
  return out;
}

void SolverService::accept_job_locked(const std::shared_ptr<Job>& job,
                                      std::unique_ptr<Waiter> waiter) {
  // An idle tenant re-entering the queue catches up to the global virtual
  // clock: fairness shares the pool while you're active, it does not bank
  // credit while you're away.
  auto& tenant = tenant_state_locked(job->tenant);
  if (tenant.running_slots == 0 &&
      std::none_of(queue_.begin(), queue_.end(), [&](const auto& queued) {
        return queued->tenant == job->tenant;
      })) {
    tenant.vtime = std::max(tenant.vtime, global_vtime_);
  }
  // Journaled under the lock: the job is not dispatchable until the caller
  // unlocks, so its kSubmitted record always precedes any strike.
  table_.admit(job, std::move(waiter));
  queue_.push_back(job);
}

bool SolverService::cancel(JobId id) {
  std::unique_lock lock(mutex_);
  const auto job = std::static_pointer_cast<Job>(table_.job_of(id));
  if (!job) return false;
  const bool running = job->start_sequence != 0;
  if (running && job->waiters.size() == 1) {
    // Last (or only) waiter: the token does the rest — the engine notices
    // within one inner-loop check, the master within one mailbox poll
    // slice; the job thread then resolves the waiter as kCancelled.
    job->cancel.request_cancel();
    return true;
  }
  // A queued waiter leaves at once; a shared running solve loses just this
  // waiter and continues for the rest. Resolved under the lock: the job may
  // stay queued, and the scheduler stamps a queued job's start sequence.
  table_.fail(*table_.detach(*job, id), *job,
              Status::cancelled(running ? "cancelled while running (detached "
                                          "from shared solve)"
                                        : "cancelled while queued"));
  if (job->waiters.empty()) {
    std::erase(queue_, job);
    table_.retire(*job);
  }
  ++stats_.cancelled;
  lock.unlock();
  obs::metrics().counter("service_cancelled_total").add();
  return true;
}

void SolverService::shutdown() {
  {
    std::lock_guard lock(mutex_);
    // A second call finds the queue empty and falls through to the join.
    stopping_ = true;
    std::size_t cancelled_waiters = 0;
    for (const auto& job : queue_) {
      cancelled_waiters += job->waiters.size();
      // Deliberately NOT struck from the journal: a queued job cancelled by
      // shutdown is exactly what the next incarnation should resume.
      table_.fail_all(*job, Status::cancelled("service shutting down"),
                      /*strike=*/false);
    }
    queue_.clear();
    stats_.cancelled += cancelled_waiters;
    obs::metrics().counter("service_cancelled_total")
        .add(static_cast<std::uint64_t>(cancelled_waiters));
    for (auto& [id, job] : running_) job->cancel.request_cancel();
  }
  wake_.notify_all();
  if (scheduler_.joinable()) scheduler_.join();
}

std::size_t SolverService::queued_jobs() const {
  std::lock_guard lock(mutex_);
  return queue_.size();
}

std::size_t SolverService::running_jobs() const {
  std::lock_guard lock(mutex_);
  return running_.size();
}

ServiceStats SolverService::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

void SolverService::sweep_queue_locked() {
  // Waiters whose own deadline passed resolve kDeadlineExceeded; a queued
  // job whose last waiter expires leaves the queue. Swap-and-pop is fine:
  // dispatch re-scans for the best job every time.
  std::size_t expired = 0;
  for (std::size_t k = 0; k < queue_.size();) {
    auto& job = *queue_[k];
    expired += table_.expire(
        job, Status::deadline_exceeded("deadline passed while queued"));
    if (job.waiters.empty()) {
      table_.retire(job);
      queue_[k] = queue_.back();
      queue_.pop_back();
    } else {
      ++k;
    }
  }
  // Waiters on a RUNNING solve with a stricter deadline than the run's own,
  // only while the solve's deadline itself still stands — a never-shared
  // job's waiter deadline IS the solve deadline (they expire together), so
  // this never fires for it and the run resolves the waiter. No waiter
  // count guard: a shared solve whose most generous waiter detached leaves
  // ONE waiter under a longer solve deadline, and its own deadline must
  // still be honored.
  for (auto& [id, job] : running_) {
    if (job->solve_deadline.expired()) continue;
    expired += table_.expire(
        *job, Status::deadline_exceeded("deadline passed while running"));
    if (job->waiters.empty()) job->cancel.request_cancel();
  }
  if (expired == 0) return;
  stats_.deadline_expired += expired;
  obs::metrics().counter("service_deadline_missed_total")
      .add(static_cast<std::uint64_t>(expired));
}

void SolverService::dispatch_ready_locked() {
  for (;;) {
    // Jobs the crashed incarnation had already dispatched come first,
    // replayed in their original start order — strictly: if the next one in
    // line does not fit the free capacity, nothing jumps it.
    auto best = queue_.end();
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if ((*it)->resume_rank == 0) continue;
      if (best == queue_.end() || (*it)->resume_rank < (*best)->resume_rank) {
        best = it;
      }
    }
    if (best == queue_.end()) {
      // Weighted-fair queuing: each tenant nominates its best queued job
      // (priority desc, ties in submission order) and the eligible tenant
      // with the least virtual time wins. A tenant at its running-slot quota
      // is skipped entirely; the winner's job waits for capacity at the head
      // of the line (strict: no smaller job overtakes it). With one tenant
      // this is exactly the old strict-priority order.
      const auto job_before = [](const Job& a, const Job& b) {
        if (a.priority != b.priority) return a.priority > b.priority;
        return a.id < b.id;
      };
      double best_vtime = std::numeric_limits<double>::infinity();
      for (auto it = queue_.begin(); it != queue_.end(); ++it) {
        auto& tenant = tenant_state_locked((*it)->tenant);
        if (tenant.max_running_slots != 0 &&
            tenant.running_slots + (*it)->slots > tenant.max_running_slots) {
          continue;
        }
        const bool wins =
            best == queue_.end() || tenant.vtime < best_vtime ||
            (tenant.vtime == best_vtime && job_before(**it, **best));
        if (wins) {
          best = it;
          best_vtime = tenant.vtime;
        }
      }
    }
    if (best == queue_.end() || (*best)->slots > free_slots_) return;
    auto job = *best;
    queue_.erase(best);
    free_slots_ -= job->slots;
    running_.emplace(job->id, job);
    auto& tenant = tenant_state_locked(job->tenant);
    tenant.running_slots += job->slots;
    tenant.vtime += static_cast<double>(job->slots) / tenant.weight;
    global_vtime_ = std::max(global_vtime_, tenant.vtime);
    const std::uint64_t seq = next_start_sequence_++;
    // The solve runs on the longest leash any live waiter paid for; the
    // cancel source is armed with it here, which is equivalent to arming at
    // submit (deadlines are absolute points in time).
    bool any_unbounded = false;
    const Waiter* most_generous = nullptr;
    double most_remaining = -1.0;
    for (auto& waiter : job->waiters) {
      waiter->queue_seconds = waiter->since_submit.elapsed_seconds();
      if (!waiter->deadline.is_bounded()) {
        any_unbounded = true;
        continue;
      }
      const double remaining = waiter->deadline.remaining_seconds();
      if (remaining > most_remaining) {
        most_remaining = remaining;
        most_generous = waiter.get();
      }
    }
    job->solve_deadline = any_unbounded || most_generous == nullptr
                              ? Deadline{}
                              : most_generous->deadline;
    job->cancel = CancelSource(job->solve_deadline);
    obs::metrics().histogram("job_queue_seconds")
        .record(job->waiters.front()->queue_seconds);
    obs::metrics().histogram(tenant_metric(job->tenant, "_dispatch_seconds"))
        .record(job->waiters.front()->queue_seconds);
    // Stamp the commitment before the thread exists: if we crash between
    // the append and the spawn, replay still restores this job at the front
    // in this order — exactly what the dispatch decision promised.
    table_.dispatched(*job, seq);
    job_threads_.emplace(job->id,
                         std::thread([this, job, seq] { run_job(job, seq); }));
  }
}

void SolverService::reap_finished_locked(std::unique_lock<std::mutex>& lock) {
  // Joining under the lock is safe: a finished thread's only remaining work
  // is returning from its function (it never re-acquires the mutex).
  (void)lock;
  for (JobId id : finished_) {
    auto it = job_threads_.find(id);
    if (it == job_threads_.end()) continue;
    it->second.join();
    job_threads_.erase(it);
  }
  finished_.clear();
}

void SolverService::scheduler_loop() {
  std::unique_lock lock(mutex_);
  auto& queue_depth = obs::metrics().gauge("service_queue_depth");
  auto& active_jobs = obs::metrics().gauge("service_active_jobs");
  auto& free_slots = obs::metrics().gauge("service_free_slots");
  for (;;) {
    reap_finished_locked(lock);
    sweep_queue_locked();
    if (!stopping_) dispatch_ready_locked();
    table_.maybe_compact();
    queue_depth.set(static_cast<double>(queue_.size()));
    active_jobs.set(static_cast<double>(running_.size()));
    free_slots.set(static_cast<double>(free_slots_));
    for (const auto& [name, state] : tenants_) {
      std::size_t waiting = 0;
      for (const auto& job : queue_) {
        for (const auto& waiter : job->waiters) {
          if (waiter->tenant == name) ++waiting;
        }
      }
      obs::metrics().gauge(tenant_metric(name, "_queue_depth"))
          .set(static_cast<double>(waiting));
      obs::metrics().gauge(tenant_metric(name, "_running_slots"))
          .set(static_cast<double>(state.running_slots));
    }
    if (stopping_ && queue_.empty() && running_.empty() && job_threads_.empty()) {
      return;
    }
    // Timed wait: deadline sweeps need a tick even when nothing notifies.
    wake_.wait_for(lock, 10ms);
  }
}

void SolverService::run_job(const std::shared_ptr<Job>& job,
                            std::uint64_t start_sequence) {
  // Warm start: seed the run from the store before it spins up. The lookup
  // runs here, on the job thread, so disk reads never sit under the service
  // mutex or stall the scheduler tick. Core-reduced runs are excluded — the
  // store's solutions live in full-variable space.
  std::optional<WarmStartStore::Hit> warm;
  parallel::ParallelConfig config = job->config;
  if (warm_store_ && job->warm_start != WarmStartPolicy::kDisabled &&
      !config.core.enabled) {
    warm = warm_store_->lookup(*job->instance, job->content_hash,
                               job->warm_start);
    if (warm) {
      config.warm_start = &warm->warm;
      {
        std::lock_guard lock(mutex_);
        ++stats_.warm_started;
      }
      obs::metrics().counter("service_warm_started_total").add();
    }
  }

  // Budget: the job's own solve budget, truncated by whatever the solve
  // deadline has left. The engine needs a positive bound even when the
  // deadline passed between dispatch and here; the token stops it within one
  // check.
  double budget = job->options.time_budget_seconds;
  bool deadline_limited = false;
  if (job->solve_deadline.is_bounded()) {
    const double remaining = job->solve_deadline.remaining_seconds();
    if (remaining < budget) {
      budget = remaining;
      deadline_limited = true;
    }
  }
  config.time_limit_seconds = std::max(budget, 1e-3);
  config.cancel = job->cancel.token();

  Stopwatch run_watch;
  auto run = parallel::run_parallel_tabu_search(*job->instance, config);
  const double run_seconds = run_watch.elapsed_seconds();

  // Shared result template; each waiter's copy gets its own identity fields.
  JobResult base;
  base.instance = job->instance;
  base.run_seconds = run_seconds;
  base.start_sequence = start_sequence;
  base.content_hash = job->content_hash;
  base.tenant = job->tenant;
  base.warm_started = warm.has_value();

  // The store is written after the fan-out, but run.best moves into the
  // results below — keep it a copy of the best for the save.
  std::optional<mkp::Solution> warm_best;
  const auto token = job->cancel.token();
  if (!run.status.ok()) {
    // The backend never started (e.g. proc backend with no worker binary):
    // there is no partial solution, only the supervisor's error.
    base.status = Status::unavailable("backend failed to start: " +
                                      run.status.message());
  } else {
    if (warm_store_ && !job->config.core.enabled &&
        !run.master.final_slaves.empty()) {
      warm_best = run.best;
    }
    base.best_value = run.best_value;
    base.best = std::move(run.best);
    base.total_moves = run.total_moves;
    base.reached_target = run.reached_target;
    base.slave_faults = run.master.slave_faults;
    base.counters = run.master.counters;
    base.anytime = std::move(run.master.anytime);
    if (!run.reached_target && token.cancel_requested()) {
      base.status = Status::cancelled("cancelled while running");
    } else if (!run.reached_target && deadline_limited &&
               token.deadline_expired()) {
      base.status = Status::deadline_exceeded("deadline passed while running");
    }
  }

  // Retire the job from the books BEFORE calling back, so "the result
  // arrived" implies "cancel(id) returns false". The scheduler may join
  // this thread before on_done runs; that is fine — the join only waits for
  // the return below, and no lock is held past this block.
  std::uint64_t* tally = nullptr;
  const char* metric = nullptr;
  switch (base.status.code()) {
    case StatusCode::kOk:
      tally = &stats_.completed;
      metric = "service_completed_total";
      break;
    case StatusCode::kCancelled:
      tally = &stats_.cancelled;
      metric = "service_cancelled_total";
      break;
    case StatusCode::kDeadlineExceeded:
      tally = &stats_.deadline_expired;
      metric = "service_deadline_missed_total";
      break;
    default:
      tally = &stats_.backend_failures;
      metric = "service_backend_failures_total";
      break;
  }
  bool strike = true;
  std::vector<std::unique_ptr<Waiter>> waiters;
  {
    std::lock_guard lock(mutex_);
    free_slots_ += job->slots;
    tenant_state_locked(job->tenant).running_slots -= job->slots;
    running_.erase(job->id);
    finished_.push_back(job->id);
    waiters = table_.retire(*job);
    stats_.slave_faults += base.slave_faults;
    *tally += waiters.size();
    // A run cancelled by shutdown stays open in the journal so the next
    // incarnation re-runs it from scratch (solves are idempotent).
    strike = !(stopping_ && base.status.code() == StatusCode::kCancelled);
  }
  obs::metrics().counter(metric).add(static_cast<std::uint64_t>(waiters.size()));
  if (run.status.ok()) {
    obs::metrics().histogram("job_run_seconds").record(base.run_seconds);
    obs::metrics().histogram("job_total_seconds")
        .record((waiters.empty() ? 0.0 : waiters.front()->queue_seconds) +
                base.run_seconds);
  }
  wake_.notify_all();
  const bool run_completed_ok = base.status.ok();  // base moves in the fan-out
  // Fan the one run out to every waiter that stayed attached to the end.
  for (std::size_t i = 0; i < waiters.size(); ++i) {
    JobResult result = i + 1 == waiters.size() ? std::move(base) : base;
    result.queue_seconds = waiters[i]->queue_seconds;
    table_.resolve(*waiters[i], std::move(result), strike);
  }

  // Persist the finished run's per-slave state for future warm starts. Only
  // clean, full-space, cooperative runs qualify; keep-the-best filtering
  // happens inside the store.
  if (warm_store_ && run_completed_ok && warm_best) {
    (void)warm_store_->save(*job->instance, job->content_hash, *warm_best,
                            run.master.final_slaves);
  }
}

}  // namespace pts::service
