#include "service/job_table.hpp"

#include <algorithm>

#include "parallel/codec.hpp"
#include "parallel/wire.hpp"
#include "util/logging.hpp"

namespace pts::service {

namespace {

std::vector<std::uint8_t> canonical_bytes(const mkp::Instance& instance) {
  parallel::codec::Writer w;
  parallel::wire::put_instance(w, instance);
  return w.take();
}

}  // namespace

std::vector<std::uint8_t> JobTable::solve_key(const JobOptions& options,
                                              WarmStartPolicy warm_start) {
  JobOptions shape = options;
  shape.priority = 0;
  shape.deadline_seconds.reset();
  parallel::codec::Writer w;
  journal::put_job_options(w, shape);
  w.u8(static_cast<std::uint8_t>(warm_start));
  return w.take();
}

std::vector<journal::RecoveredJob> JobTable::open_journal(const std::string& path) {
  // Replay BEFORE truncating; never truncate what cannot be parsed.
  auto jobs = journal::recover_jobs(path);
  if (!jobs) {
    PTS_LOG_WARN("journal %s not replayed, journaling off: %s", path.c_str(),
                 jobs.status().to_string().c_str());
    return {};
  }
  if (auto opened = journal::JobJournal::open_truncate(path)) {
    journal_ = std::move(*opened);
  } else {
    PTS_LOG_WARN("journaling off: %s", opened.status().to_string().c_str());
  }
  return std::move(*jobs);
}

void JobTable::resume(std::vector<journal::RecoveredJob> jobs,
                      const Resubmit& resubmit) {
  for (auto& job : jobs) {
    SubmitRequest request;
    request.instance =
        std::make_shared<const mkp::Instance>(std::move(job.instance));
    request.tenant = std::move(job.tenant);
    request.priority = job.options.priority;
    request.deadline_seconds = job.options.deadline_seconds;
    request.warm_start = job.warm_start;
    request.options = std::move(job.options);
    // A recovered follower re-coalesces here: its instance bytes and solve
    // key still match its primary's, which was resubmitted before it.
    auto handle = JobGateway::with_future([&](JobCallback on_done) {
      return resubmit(std::move(request), std::move(on_done),
                      job.dispatch_sequence);
    });
    if (!handle) {
      PTS_LOG_WARN("journaled job not resumed: %s",
                   handle.status().to_string().c_str());
      continue;
    }
    recovered_.push_back(std::move(*handle));
  }
}

std::unique_ptr<JobTable::Waiter> JobTable::make_waiter(
    const SubmitRequest& request, JobCallback on_done, JobOrigin origin) {
  auto waiter = std::make_unique<Waiter>();
  waiter->id = next_id_++;
  waiter->origin = origin;
  waiter->tenant = request.tenant;
  waiter->instance = request.instance;
  waiter->options = request.options;
  waiter->warm_start = request.warm_start;
  if (request.deadline_seconds) {
    waiter->deadline = Deadline::after_seconds(*request.deadline_seconds);
  }
  waiter->on_done = std::move(on_done);
  return waiter;
}

JobTable::Job* JobTable::match(std::uint64_t content_hash,
                               const std::vector<std::uint8_t>& solve_key,
                               const mkp::Instance& instance,
                               const std::function<bool(const Job&)>& eligible) {
  std::vector<std::uint8_t> bytes;  // serialized on the first hash match
  for (const auto& [id, job] : jobs_) {
    if (job->content_hash != content_hash || job->solve_key != solve_key ||
        job->waiters.empty() || (eligible && !eligible(*job))) {
      continue;
    }
    if (bytes.empty()) bytes = canonical_bytes(instance);
    if (canonical_bytes(*job->instance) == bytes) return job.get();
  }
  return nullptr;
}

void JobTable::index(Job& job, std::unique_ptr<Waiter> waiter) {
  waiter_jobs_.emplace(waiter->id, job.id);
  job.waiters.push_back(std::move(waiter));
}

void JobTable::journal_submitted(Job& job, Waiter& waiter) {
  // A failed append leaves the waiter unjournaled; it still runs.
  if (journal_ && journal_
                      ->append_submitted(waiter.id, *job.instance, waiter.options,
                                         waiter.tenant, waiter.warm_start)
                      .ok()) {
    waiter.journaled = true;
    if (job.dispatch_anchor == 0) job.dispatch_anchor = waiter.id;
  }
  if (tap_) tap_(journal::RecordType::kSubmitted, waiter);
}

void JobTable::admit(const std::shared_ptr<Job>& job,
                     std::unique_ptr<Waiter> waiter) {
  job->id = waiter->id;
  jobs_.emplace(job->id, job);
  journal_submitted(*job, *waiter);
  index(*job, std::move(waiter));
}

void JobTable::attach(Job& job, std::unique_ptr<Waiter> waiter) {
  waiter->deduplicated = true;
  waiter->dedup_primary = job.id;
  // The link follows the follower's own kSubmitted: replay only honors a
  // link whose follower is already open.
  journal_submitted(job, *waiter);
  if (journal_ && waiter->journaled) {
    (void)journal_->append_dedup(waiter->id, job.id);
  }
  if (tap_) tap_(journal::RecordType::kDedup, *waiter);
  index(job, std::move(waiter));
}

void JobTable::dispatched(Job& job, std::uint64_t start_sequence) {
  job.start_sequence = start_sequence;
  if (journal_ && job.dispatch_anchor != 0) {
    (void)journal_->append_dispatched(job.dispatch_anchor, start_sequence);
  }
}

std::shared_ptr<JobTable::Job> JobTable::find(JobId job) const {
  const auto it = jobs_.find(job);
  return it == jobs_.end() ? nullptr : it->second;
}

std::shared_ptr<JobTable::Job> JobTable::job_of(JobId waiter) const {
  const auto it = waiter_jobs_.find(waiter);
  return it == waiter_jobs_.end() ? nullptr : find(it->second);
}

std::unique_ptr<JobTable::Waiter> JobTable::detach(Job& job, JobId waiter) {
  const auto it =
      std::find_if(job.waiters.begin(), job.waiters.end(),
                   [waiter](const auto& w) { return w->id == waiter; });
  if (it == job.waiters.end()) return nullptr;
  auto out = std::move(*it);
  job.waiters.erase(it);
  waiter_jobs_.erase(waiter);
  return out;
}

std::vector<std::unique_ptr<JobTable::Waiter>> JobTable::retire(Job& job) {
  auto waiters = std::move(job.waiters);
  job.waiters.clear();
  for (const auto& waiter : waiters) waiter_jobs_.erase(waiter->id);
  jobs_.erase(job.id);  // may destroy `job`: touch nothing of it below
  return waiters;
}

void JobTable::fail_all(Job& job, const Status& status, bool strike) {
  const auto keep = find(job.id);  // `job` outlives retire()
  for (auto& waiter : retire(job)) fail(*waiter, job, status, strike);
}

std::size_t JobTable::expire(Job& job, const Status& status) {
  std::size_t expired = 0;
  for (std::size_t w = 0; w < job.waiters.size();) {
    if (!job.waiters[w]->deadline.expired()) {
      ++w;
      continue;
    }
    auto waiter = detach(job, job.waiters[w]->id);
    fail(*waiter, job, status);
    ++expired;
  }
  return expired;
}

void JobTable::resolve(Waiter& waiter, JobResult result, bool strike) {
  // Strike first, so a result that has arrived is never replayed.
  if (strike) {
    if (journal_ && waiter.journaled) (void)journal_->append_resolved(waiter.id);
    if (tap_) tap_(journal::RecordType::kResolved, waiter);
  }
  result.id = waiter.id;
  result.origin = waiter.origin;
  result.tenant = waiter.tenant;
  result.deduplicated = result.deduplicated || waiter.deduplicated;
  waiter.on_done(std::move(result));
  resolved_.fetch_add(1, std::memory_order_relaxed);
}

void JobTable::fail(Waiter& waiter, const Job& job, Status status, bool strike) {
  JobResult result;
  result.status = std::move(status);
  result.instance = job.instance;
  result.content_hash = job.content_hash;
  result.start_sequence = job.start_sequence;
  result.queue_seconds = waiter.since_submit.elapsed_seconds();
  resolve(waiter, std::move(result), strike);
}

void JobTable::maybe_compact() {
  if (!journal_ || compact_every_records_ == 0) return;
  const std::uint64_t appended = journal_->records_appended();
  if (appended < compact_every_records_) return;

  // One kSubmitted per open journaled waiter, one kDispatched for each
  // started job's anchor, one kDedup per attached follower.
  std::vector<journal::LiveJob> live;
  std::uint64_t needed = 0;
  for (const auto& [id, job] : jobs_) {
    for (const auto& waiter : job->waiters) {
      if (!waiter->journaled) continue;
      journal::LiveJob entry;
      entry.id = waiter->id;
      entry.instance = job->instance.get();
      entry.options = &waiter->options;
      entry.dispatch_sequence =
          waiter->id == job->dispatch_anchor ? job->start_sequence : 0;
      entry.tenant = &waiter->tenant;
      entry.warm_start = waiter->warm_start;
      entry.dedup_primary = waiter->dedup_primary;
      live.push_back(entry);
      needed += 1 + (entry.dispatch_sequence != 0) + (entry.dedup_primary != 0);
    }
  }
  if (appended < 2 * needed + 1) return;
  // The gateway's mutex, held by the caller, serializes every
  // append_submitted, so no new submission can land in the file being
  // replaced. A strike appended without that mutex serializes on the
  // journal's own lock and lands in whichever file wins; both orders replay
  // correctly (an unmatched kResolved is inert).
  (void)journal_->compact(live);
}

}  // namespace pts::service
