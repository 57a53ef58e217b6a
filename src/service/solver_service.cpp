#include "service/solver_service.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <tuple>
#include <utility>

#include "obs/metrics.hpp"
#include "parallel/codec.hpp"
#include "parallel/presets.hpp"
#include "parallel/snapshot.hpp"
#include "parallel/wire.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"

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

/// The dedup identity of a submission's solve shape: its options serialized
/// with the per-caller fields (priority, deadline) neutralized, plus the
/// warm-start policy. Two submissions coalesce only when this — and the
/// instance bytes — match, so sharing a solve never changes what runs.
std::vector<std::uint8_t> solve_key_bytes(const JobOptions& options,
                                          WarmStartPolicy warm_start) {
  JobOptions shape = options;
  shape.priority = 0;
  shape.deadline_seconds.reset();
  parallel::codec::Writer w;
  journal::put_job_options(w, shape);
  w.u8(static_cast<std::uint8_t>(warm_start));
  return w.take();
}

}  // namespace

/// One submission's stake in a solve: its own identity, deadline, journal
/// record and completion callback. A job starts with one waiter; dedup
/// attaches more. on_done is called exactly once, by whichever path
/// terminates the waiter (run fan-out, per-waiter deadline sweep, cancel,
/// shed, shutdown).
struct SolverService::Waiter {
  JobId id = 0;
  JobOrigin origin = JobOrigin::kFresh;
  TenantId tenant;
  std::shared_ptr<const mkp::Instance> instance;
  /// Per-waiter copy with the caller's own priority/deadline — the journal
  /// identity that lets a crashed follower replay as itself.
  JobOptions options;
  WarmStartPolicy warm_start = WarmStartPolicy::kDisabled;
  bool journaled = false;    ///< has a kSubmitted record awaiting its strike
  bool deduplicated = false; ///< attached to an existing job's solve
  JobId dedup_primary = 0;   ///< the job it attached to (compaction re-link)
  Deadline deadline;         ///< unbounded when no deadline was requested
  double queue_seconds = 0.0;  ///< stamped at dispatch (or attach-to-running)
  Stopwatch since_submit;
  JobCallback on_done;
};

/// One solve, queued or running, fanned out to one or more waiters. The
/// content address + instance bytes + solve key triple is the dedup
/// identity; the tenant charged in the fair-queuing ledger is the primary
/// waiter's.
struct SolverService::Job {
  JobId id = 0;  ///< primary (first) waiter's id; the running_ map key
  std::shared_ptr<const mkp::Instance> instance;
  std::vector<std::uint8_t> instance_bytes;  ///< canonical wire serialization
  std::uint64_t content_hash = 0;            ///< FNV-1a over instance_bytes
  std::vector<std::uint8_t> solve_key;       ///< options minus caller fields
  JobOptions options;                        ///< the solve shape (primary's)
  parallel::ParallelConfig config;  ///< resolved at submit; budget set at dispatch
  std::size_t slots = 1;            ///< pool capacity occupied while running
  int priority = 0;                 ///< max over attached waiters
  TenantId tenant;                  ///< WFQ account charged for the slots
  WarmStartPolicy warm_start = WarmStartPolicy::kDisabled;
  /// Nonzero = the crashed incarnation had dispatched this job with this
  /// start sequence; it outranks every ordinary queued job and replays in
  /// ascending-rank order.
  std::uint64_t resume_rank = 0;
  /// Stamped at dispatch (0 while queued): journal compaction re-emits the
  /// kDispatched record for running jobs from here.
  std::uint64_t start_sequence = 0;
  JobId dispatch_anchor = 0;  ///< first journaled waiter; kDispatched target
  /// The most generous live waiter deadline, fixed at dispatch — the run
  /// gets the longest leash any of its waiters paid for.
  Deadline solve_deadline;
  CancelSource cancel;  ///< armed with solve_deadline at dispatch
  std::vector<std::unique_ptr<Waiter>> waiters;
};

SolverService::SolverService(ServiceConfig config) : config_(std::move(config)) {
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

  // Crash recovery: replay the previous incarnation's journal BEFORE
  // truncating it, then re-enqueue every job whose result never went out.
  // Resubmitting re-journals the survivors, which compacts the log.
  std::vector<journal::RecoveredJob> replayed;
  if (!config_.journal_path.empty()) {
    auto jobs = journal::recover_jobs(config_.journal_path);
    if (jobs) {
      replayed = std::move(*jobs);
      if (auto opened = journal::JobJournal::open_truncate(config_.journal_path)) {
        journal_ = std::move(*opened);
      }
    }
    // A file that is not a job journal (bad magic/version) is left untouched
    // and journaling stays off — never truncate what we cannot parse.
  }

  scheduler_ = std::thread([this] { scheduler_loop(); });

  for (auto& job : replayed) {
    SubmitRequest request;
    request.instance =
        std::make_shared<const mkp::Instance>(std::move(job.instance));
    request.tenant = std::move(job.tenant);
    request.priority = job.options.priority;
    request.deadline_seconds = job.options.deadline_seconds;
    request.warm_start = job.warm_start;
    request.options = std::move(job.options);
    // Recovered duplicates re-coalesce here: a follower's instance bytes and
    // solve key still match its primary's, so resubmitting both in the old
    // submission order re-attaches them.
    auto handle = with_future([&](JobCallback on_done) {
      return submit_full(std::move(request), std::move(on_done),
                         JobOrigin::kResumed, job.dispatch_sequence);
    });
    if (!handle) {
      PTS_LOG_WARN("service: journaled job not resumed: %s",
                   handle.status().to_string().c_str());
      continue;
    }
    recovered_.push_back(std::move(*handle));
  }
}

SolverService::~SolverService() { shutdown(); }

Expected<JobTicket> SolverService::submit(SubmitRequest request,
                                          JobCallback on_done) {
  return submit_full(std::move(request), std::move(on_done), JobOrigin::kFresh,
                     /*resume_rank=*/0);
}

std::vector<JobHandle> SolverService::take_recovered() {
  std::lock_guard lock(mutex_);
  return std::move(recovered_);
}

void SolverService::journal_resolved(const Waiter& waiter) {
  if (journal_ && waiter.journaled) (void)journal_->append_resolved(waiter.id);
}

void SolverService::resolve_waiter(Waiter& waiter, const Job& job,
                                   Status status) {
  JobResult result;
  result.id = waiter.id;
  result.origin = waiter.origin;
  result.status = std::move(status);
  result.instance = waiter.instance;
  result.queue_seconds = waiter.since_submit.elapsed_seconds();
  result.tenant = waiter.tenant;
  result.deduplicated = waiter.deduplicated;
  result.content_hash = job.content_hash;
  result.start_sequence = job.start_sequence;
  waiter.on_done(std::move(result));
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

  auto waiter = std::make_unique<Waiter>();
  waiter->origin = origin;
  waiter->tenant = request.tenant;
  waiter->instance = request.instance;
  waiter->options = request.options;
  waiter->warm_start = request.warm_start;
  waiter->on_done = std::move(on_done);

  JobTicket out;
  out.tenant = request.tenant;
  {
    std::lock_guard lock(mutex_);
    waiter->id = next_id_++;
    ++stats_.submitted;
    if (origin == JobOrigin::kResumed) ++stats_.resumed;
  }
  obs::metrics().counter("service_submitted_total").add();
  if (origin == JobOrigin::kResumed) {
    obs::metrics().counter("service_resumed_total").add();
  }
  out.id = waiter->id;

  // Validation: every failure is a structured Status, never an abort.
  Status invalid;
  std::optional<parallel::ParallelConfig> preset;
  if (!waiter->instance) {
    invalid = Status::invalid_argument("null instance");
  } else if (waiter->options.time_budget_seconds <= 0.0) {
    invalid = Status::invalid_argument("time_budget_seconds must be positive");
  } else if (waiter->options.deadline_seconds &&
             *waiter->options.deadline_seconds < 0.0) {
    invalid = Status::invalid_argument("deadline_seconds must be non-negative");
  } else {
    preset = parallel::preset_by_name(waiter->options.preset,
                                      waiter->options.seed);
    if (!preset) {
      std::string known;
      for (const auto& name : parallel::known_preset_names()) {
        if (!known.empty()) known += ", ";
        known += name;
      }
      invalid = Status::invalid_argument("unknown preset '" +
                                         waiter->options.preset +
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
  job->instance = waiter->instance;
  job->options = waiter->options;
  job->priority = waiter->options.priority;
  job->tenant = waiter->tenant;
  job->warm_start = waiter->warm_start;
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
    if (tenant.name == waiter->tenant && tenant.max_running_slots != 0) {
      job->config.num_slaves =
          std::min(job->config.num_slaves, tenant.max_running_slots);
      break;
    }
  }
  job->slots = job->config.mode == parallel::CooperationMode::kSequential
                   ? 1
                   : job->config.num_slaves;
  if (waiter->options.deadline_seconds) {
    waiter->deadline = Deadline::after_seconds(*waiter->options.deadline_seconds);
  }

  // Content address: hash and bytes of the canonical wire serialization.
  {
    parallel::codec::Writer w;
    parallel::wire::put_instance(w, *job->instance);
    job->instance_bytes = w.take();
  }
  job->content_hash = parallel::snapshot::instance_hash64(*job->instance);
  job->solve_key = solve_key_bytes(job->options, job->warm_start);
  out.content_hash = job->content_hash;

  std::unique_lock lock(mutex_);
  if (stopping_) {
    ++stats_.cancelled;
    lock.unlock();
    obs::metrics().counter("service_cancelled_total").add();
    return Status::unavailable("service is shut down");
  }

  // In-flight dedup: an identical solve already queued or running adopts
  // this submission as an extra waiter instead of a second run. Running jobs
  // only qualify when their committed deadline covers this waiter's — a
  // shared solve must never stop earlier than a waiter paid for.
  if (config_.dedup_in_flight && request.allow_dedup) {
    std::shared_ptr<Job> target;
    const auto matches = [&](const Job& other) {
      return other.content_hash == job->content_hash &&
             other.solve_key == job->solve_key &&
             other.instance_bytes == job->instance_bytes;
    };
    for (const auto& queued : queue_) {
      if (matches(*queued)) {
        target = queued;
        break;
      }
    }
    if (!target) {
      for (const auto& [id, running] : running_) {
        if (!matches(*running)) continue;
        if (running->cancel.token().cancel_requested()) continue;
        const bool covered =
            !running->solve_deadline.is_bounded() ||
            (waiter->deadline.is_bounded() &&
             waiter->deadline.remaining_seconds() <=
                 running->solve_deadline.remaining_seconds());
        if (!covered) continue;
        target = running;
        break;
      }
    }
    if (target) {
      waiter->deduplicated = true;
      waiter->dedup_primary = target->id;
      target->priority = std::max(target->priority, waiter->options.priority);
      if (target->start_sequence != 0) {
        waiter->queue_seconds = waiter->since_submit.elapsed_seconds();
      }
      if (journal_ &&
          journal_->append_submitted(waiter->id, *job->instance,
                                     waiter->options, waiter->tenant,
                                     waiter->warm_start)
              .ok()) {
        waiter->journaled = true;
        (void)journal_->append_dedup(waiter->id, target->id);
        if (target->dispatch_anchor == 0) target->dispatch_anchor = waiter->id;
      }
      ++stats_.dedup_hits;
      out.deduplicated = true;
      target->waiters.push_back(std::move(waiter));
      lock.unlock();
      obs::metrics().counter("service_dedup_hits_total").add();
      obs::metrics().counter(tenant_metric(out.tenant, "_dedup_hits_total")).add();
      return out;
    }
  }

  if (queue_.size() >= config_.queue_capacity) {
    // Backpressure. Shedding evicts the weakest queued job — lowest tenant
    // weight first, then lowest priority, newest on ties — and only when the
    // incoming submission strictly outranks it on (weight, priority);
    // otherwise the incoming submission is the one rejected. With every
    // tenant at the default weight this degrades to the pre-tenant
    // priority-only rule.
    std::shared_ptr<Job> shed;
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
        accept_job_locked(job, std::move(waiter));
      }
    }
    ++stats_.rejected;
    lock.unlock();
    if (shed) {
      obs::metrics().counter("service_shed_total").add();
      for (auto& lost : shed->waiters) {
        journal_resolved(*lost);
        resolve_waiter(*lost, *shed,
                       Status::resource_exhausted(
                           "shed by a higher-priority submission (queue full)"));
      }
      wake_.notify_all();
    } else {
      obs::metrics().counter("service_rejected_total").add();
      return Status::resource_exhausted(
          "queue full (capacity " + std::to_string(config_.queue_capacity) +
          ")");
    }
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
  job->id = waiter->id;
  job->waiters.push_back(std::move(waiter));
  queue_.push_back(job);
  // Journaled under the lock: the job is not dispatchable until the caller
  // unlocks, so its kSubmitted record always precedes any strike. A failed
  // append leaves the job un-journaled but still runs it.
  auto& accepted = *job->waiters.front();
  if (journal_ &&
      journal_->append_submitted(accepted.id, *job->instance, accepted.options,
                                 accepted.tenant, accepted.warm_start)
          .ok()) {
    accepted.journaled = true;
    job->dispatch_anchor = accepted.id;
  }
}

bool SolverService::cancel(JobId id) {
  std::unique_lock lock(mutex_);
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    auto& job = *it;
    auto found = std::find_if(
        job->waiters.begin(), job->waiters.end(),
        [id](const auto& waiter) { return waiter->id == id; });
    if (found == job->waiters.end()) continue;
    auto waiter = std::move(*found);
    job->waiters.erase(found);
    const auto keep = job;  // resolve needs the job after possible erase
    if (job->waiters.empty()) queue_.erase(it);
    ++stats_.cancelled;
    lock.unlock();
    obs::metrics().counter("service_cancelled_total").add();
    journal_resolved(*waiter);
    resolve_waiter(*waiter, *keep,
                   Status::cancelled("cancelled while queued"));
    return true;
  }
  for (auto& [job_id, job] : running_) {
    auto found = std::find_if(
        job->waiters.begin(), job->waiters.end(),
        [id](const auto& waiter) { return waiter->id == id; });
    if (found == job->waiters.end()) continue;
    if (job->waiters.size() == 1) {
      // Last (or only) waiter: the token does the rest — the engine notices
      // within one inner-loop check, the master within one mailbox poll
      // slice; the job thread then resolves the waiter as kCancelled.
      job->cancel.request_cancel();
      return true;
    }
    // A shared solve loses just this waiter; the run continues for the rest.
    auto waiter = std::move(*found);
    job->waiters.erase(found);
    ++stats_.cancelled;
    const auto keep = job;
    lock.unlock();
    obs::metrics().counter("service_cancelled_total").add();
    journal_resolved(*waiter);
    resolve_waiter(*waiter, *keep,
                   Status::cancelled("cancelled while running (detached from "
                                     "shared solve)"));
    return true;
  }
  return false;
}

void SolverService::shutdown() {
  std::vector<std::shared_ptr<Job>> to_resolve;
  std::size_t cancelled_waiters = 0;
  {
    std::lock_guard lock(mutex_);
    if (stopping_) {
      // Second call: scheduler already told to wind down; fall through to
      // the join below (idempotent).
    }
    stopping_ = true;
    to_resolve.swap(queue_);
    for (const auto& job : to_resolve) cancelled_waiters += job->waiters.size();
    stats_.cancelled += cancelled_waiters;
    for (auto& [id, job] : running_) job->cancel.request_cancel();
  }
  wake_.notify_all();
  obs::metrics().counter("service_cancelled_total")
      .add(static_cast<std::uint64_t>(cancelled_waiters));
  for (auto& job : to_resolve) {
    // Deliberately NOT struck from the journal: a queued job cancelled by
    // shutdown is exactly what the next incarnation should resume.
    for (auto& waiter : job->waiters) {
      resolve_waiter(*waiter, *job,
                     Status::cancelled("service shutting down"));
    }
  }
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
  // Queued waiters whose deadline passed before their job ever ran resolve
  // kDeadlineExceeded; a job whose last waiter expires leaves the queue.
  // Swap-and-pop is fine: dispatch re-scans for the best job every time.
  for (std::size_t k = 0; k < queue_.size();) {
    auto& job = queue_[k];
    for (std::size_t w = 0; w < job->waiters.size();) {
      if (!job->waiters[w]->deadline.expired()) {
        ++w;
        continue;
      }
      auto waiter = std::move(job->waiters[w]);
      job->waiters.erase(job->waiters.begin() + static_cast<std::ptrdiff_t>(w));
      ++stats_.deadline_expired;
      obs::metrics().counter("service_deadline_missed_total").add();
      journal_resolved(*waiter);
      resolve_waiter(*waiter, *job,
                     Status::deadline_exceeded("deadline passed while queued"));
    }
    if (job->waiters.empty()) {
      queue_[k] = queue_.back();
      queue_.pop_back();
    } else {
      ++k;
    }
  }
  // Waiters on a RUNNING solve with a stricter deadline than the run's own:
  // resolve them the moment their deadline passes. Only while the solve's
  // deadline itself still stands — a never-shared job's waiter deadline IS
  // the solve deadline (they expire together), so this never fires for it
  // and the legacy run-resolves-the-waiter path is untouched. No waiter
  // count guard: a shared solve whose most generous waiter detached leaves
  // ONE waiter under a longer solve deadline, and its own deadline must
  // still be honored.
  for (auto& [id, job] : running_) {
    if (job->solve_deadline.expired()) continue;
    for (std::size_t w = 0; w < job->waiters.size();) {
      if (!job->waiters[w]->deadline.expired()) {
        ++w;
        continue;
      }
      auto waiter = std::move(job->waiters[w]);
      job->waiters.erase(job->waiters.begin() + static_cast<std::ptrdiff_t>(w));
      ++stats_.deadline_expired;
      obs::metrics().counter("service_deadline_missed_total").add();
      journal_resolved(*waiter);
      resolve_waiter(*waiter, *job,
                     Status::deadline_exceeded("deadline passed while running"));
    }
    if (job->waiters.empty()) job->cancel.request_cancel();
  }
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
    job->start_sequence = seq;
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
    if (journal_ && job->dispatch_anchor != 0) {
      (void)journal_->append_dispatched(job->dispatch_anchor, seq);
    }
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

void SolverService::maybe_compact_journal_locked() {
  if (!journal_ || config_.journal_compact_every_records == 0) return;
  const std::uint64_t appended = journal_->records_appended();
  if (appended < config_.journal_compact_every_records) return;

  // The compacted image holds one kSubmitted per open journaled waiter, one
  // kDispatched for the anchor of each running job, and one kDedup per
  // attached follower. Only rewrite when that at least halves the log —
  // without the hysteresis a standing queue of N jobs would re-trigger every
  // `journal_compact_every_records` appends for no space gain.
  std::vector<journal::LiveJob> live;
  const auto collect = [&](const Job& job) {
    for (const auto& waiter : job.waiters) {
      if (!waiter->journaled) continue;
      journal::LiveJob entry;
      entry.id = waiter->id;
      entry.instance = job.instance.get();
      entry.options = &waiter->options;
      entry.dispatch_sequence =
          waiter->id == job.dispatch_anchor ? job.start_sequence : 0;
      entry.tenant = &waiter->tenant;
      entry.warm_start = waiter->warm_start;
      entry.dedup_primary = waiter->dedup_primary;
      live.push_back(entry);
    }
  };
  for (const auto& job : queue_) collect(*job);
  for (const auto& [id, job] : running_) collect(*job);
  std::uint64_t needed = 0;
  for (const auto& entry : live) {
    needed += 1;
    if (entry.dispatch_sequence != 0) needed += 1;
    if (entry.dedup_primary != 0) needed += 1;
  }
  if (appended < 2 * needed + 1) return;
  // Holding the service mutex across the rewrite is the correctness
  // argument: every append_submitted happens under this lock, so no new
  // submission can land in the file being replaced. A concurrent
  // append_resolved (job threads strike outside the lock) serializes on the
  // journal's own mutex and lands in whichever file wins — both orders
  // replay correctly (an unmatched kResolved is inert).
  (void)journal_->compact(live);
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
    maybe_compact_journal_locked();
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

  if (!run.status.ok()) {
    // The backend never started (e.g. proc backend with no worker binary):
    // there is no partial solution, only the supervisor's error.
    base.status = Status::unavailable("backend failed to start: " +
                                      run.status.message());
    std::vector<std::unique_ptr<Waiter>> waiters;
    {
      std::lock_guard lock(mutex_);
      free_slots_ += job->slots;
      tenant_state_locked(job->tenant).running_slots -= job->slots;
      running_.erase(job->id);
      finished_.push_back(job->id);
      waiters.swap(job->waiters);
      stats_.backend_failures += waiters.size();
    }
    wake_.notify_all();
    obs::metrics().counter("service_backend_failures_total")
        .add(static_cast<std::uint64_t>(waiters.size()));
    for (auto& waiter : waiters) {
      journal_resolved(*waiter);
      JobResult result = base;
      result.id = waiter->id;
      result.origin = waiter->origin;
      result.tenant = waiter->tenant;
      result.deduplicated = waiter->deduplicated;
      result.queue_seconds = waiter->queue_seconds;
      waiter->on_done(std::move(result));
    }
    return;
  }

  base.best_value = run.best_value;
  // The store is written after the fan-out, but run.best moves into the
  // results below — keep it a copy of the best for the save.
  std::optional<mkp::Solution> warm_best;
  if (warm_store_ && !job->config.core.enabled &&
      !run.master.final_slaves.empty()) {
    warm_best = run.best;
  }
  base.best = std::move(run.best);
  base.total_moves = run.total_moves;
  base.reached_target = run.reached_target;
  base.slave_faults = run.master.slave_faults;
  base.counters = run.master.counters;
  base.anytime = std::move(run.master.anytime);

  const auto token = job->cancel.token();
  if (run.reached_target) {
    base.status = Status{};
  } else if (token.cancel_requested()) {
    base.status = Status::cancelled("cancelled while running");
  } else if (deadline_limited && token.deadline_expired()) {
    base.status = Status::deadline_exceeded("deadline passed while running");
  } else {
    base.status = Status{};
  }

  // Retire the job from the books BEFORE calling back, so "the result
  // arrived" implies "cancel(id) returns false". The scheduler may join
  // this thread before on_done runs; that is fine — the join only waits for
  // the return below, and no lock is held past this block.
  bool strike = true;
  std::vector<std::unique_ptr<Waiter>> waiters;
  {
    std::lock_guard lock(mutex_);
    free_slots_ += job->slots;
    tenant_state_locked(job->tenant).running_slots -= job->slots;
    running_.erase(job->id);
    finished_.push_back(job->id);
    waiters.swap(job->waiters);
    stats_.slave_faults += base.slave_faults;
    for (std::size_t i = 0; i < waiters.size(); ++i) {
      switch (base.status.code()) {
        case StatusCode::kOk: ++stats_.completed; break;
        case StatusCode::kCancelled: ++stats_.cancelled; break;
        case StatusCode::kDeadlineExceeded: ++stats_.deadline_expired; break;
        default: break;
      }
    }
    // A run cancelled by shutdown stays open in the journal so the next
    // incarnation re-runs it from scratch (solves are idempotent).
    strike = !(stopping_ && base.status.code() == StatusCode::kCancelled);
  }
  for (std::size_t i = 0; i < waiters.size(); ++i) {
    switch (base.status.code()) {
      case StatusCode::kOk:
        obs::metrics().counter("service_completed_total").add();
        break;
      case StatusCode::kCancelled:
        obs::metrics().counter("service_cancelled_total").add();
        break;
      case StatusCode::kDeadlineExceeded:
        obs::metrics().counter("service_deadline_missed_total").add();
        break;
      default: break;
    }
  }
  obs::metrics().histogram("job_run_seconds").record(base.run_seconds);
  obs::metrics().histogram("job_total_seconds")
      .record((waiters.empty() ? 0.0 : waiters.front()->queue_seconds) +
              base.run_seconds);
  wake_.notify_all();
  const bool run_completed_ok = base.status.ok();  // base moves in the fan-out
  // Fan the one run out to every waiter that stayed attached to the end.
  for (std::size_t i = 0; i < waiters.size(); ++i) {
    auto& waiter = waiters[i];
    if (strike) journal_resolved(*waiter);
    JobResult result = i + 1 == waiters.size() ? std::move(base) : base;
    result.id = waiter->id;
    result.origin = waiter->origin;
    result.tenant = waiter->tenant;
    result.deduplicated = waiter->deduplicated;
    result.queue_seconds = waiter->queue_seconds;
    waiter->on_done(std::move(result));
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
