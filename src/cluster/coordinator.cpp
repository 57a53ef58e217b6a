#include "cluster/coordinator.hpp"

#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <utility>

#include "net/client.hpp"
#include "net/protocol.hpp"
#include "obs/metrics.hpp"
#include "parallel/codec.hpp"
#include "parallel/snapshot.hpp"
#include "util/logging.hpp"

namespace pts::cluster {

namespace {

/// One batch ceiling per tick per peer keeps tick latency bounded even
/// mid-catch-up; the next tick sends the next batch 20ms later.
constexpr int kMaxReplicateBatchesPerTick = 4;
constexpr auto kTickPeriod = std::chrono::milliseconds(20);

}  // namespace

/// One client-side stake in a ClusterJob: its own coordinator JobId, its own
/// deadline, its own completion callback. Waiters outlive failovers — the
/// job record they hang off survives resubmission untouched.
struct Coordinator::Waiter {
  service::JobId id = 0;
  service::TenantId tenant;
  Deadline deadline;  ///< unbounded when the request had none
  bool attached_dedup = false;  ///< joined an existing job (not the first waiter)
  service::JobCallback on_done;
};

/// One coalesced unit of remote work: at most ONE in-flight remote
/// submission at any time, no matter how many waiters or how many failovers.
struct Coordinator::ClusterJob {
  std::string key;
  service::JobId primary_id = 0;
  service::SubmitRequest canonical;  ///< deadline cleared (coordinator enforces)
  std::uint64_t content_hash = 0;
  std::vector<std::unique_ptr<Waiter>> waiters;

  bool inflight = false;
  std::size_t peer_index = 0;
  std::uint64_t request_id = 0;  ///< on that peer's connection
  bool acked = false;
  std::uint64_t remote_hash = 0;  ///< idempotency anchor from the first ack
  int attempts = 0;               ///< failover count, NOT waiter count
  double not_before = 0.0;        ///< redispatch backoff gate (now_seconds)
  bool cancel_sent = false;       ///< all waiters left; remote told to stop
  std::vector<obs::AnytimeSample> anytime;  ///< streamed chunks so far
};

struct Coordinator::Peer {
  enum class State { kDown, kConnecting, kAlive };

  std::size_t index = 0;
  PeerAddress addr;
  std::string name;

  State state = State::kDown;  // guarded by mutex_
  parallel::FrameSocket socket;
  std::mutex write_mutex;
  std::thread reader;
  std::atomic<bool> reader_exited{false};
  std::atomic<double> last_heard{0.0};

  std::uint64_t ping_seq = 0;
  double last_ping = 0.0;
  std::uint32_t running_jobs = 0;
  std::uint32_t queued_jobs = 0;
  std::uint32_t num_workers = 1;
  std::uint64_t sent_seq = 0;   ///< replication records streamed so far
  std::uint64_t acked_seq = 0;  ///< replica's applied-through cursor
  std::uint64_t next_request_id = 1;
  std::map<std::uint64_t, std::string> inflight;  ///< request id -> job key

  double reconnect_not_before = 0.0;
  int reconnect_attempts = 0;
  bool down_handled = true;  ///< on_peer_down ran for the current incarnation
};

Coordinator::Coordinator(CoordinatorConfig config)
    : config_(std::move(config)) {}

Expected<std::unique_ptr<Coordinator>> Coordinator::start(
    CoordinatorConfig config) {
  if (config.peers.empty()) {
    return Status::invalid_argument("cluster: a coordinator needs peers");
  }
  if (config.heartbeat_interval_seconds <= 0 || config.heartbeat_misses <= 0) {
    return Status::invalid_argument("cluster: bad heartbeat configuration");
  }

  // Replay BEFORE open_truncate: recovery reads the previous incarnation's
  // (or a promoted replica's) log, then the resubmit below re-journals the
  // survivors into the fresh file — compaction on every restart.
  std::vector<service::journal::RecoveredJob> replayed;
  if (!config.journal_path.empty()) {
    auto recovered = service::journal::recover_jobs(config.journal_path);
    if (!recovered) {
      PTS_LOG_WARN("cluster: journal replay failed (starting fresh): %s",
                   recovered.status().message().c_str());
    } else {
      replayed = std::move(*recovered);
    }
  }

  std::unique_ptr<Coordinator> c(new Coordinator(std::move(config)));
  if (!c->config_.journal_path.empty()) {
    auto journal =
        service::journal::JobJournal::open_truncate(c->config_.journal_path);
    if (!journal) {
      PTS_LOG_WARN("cluster: journaling disabled: %s",
                   journal.status().message().c_str());
    } else {
      c->journal_ = std::move(*journal);
    }
  }
  for (std::size_t i = 0; i < c->config_.peers.size(); ++i) {
    auto peer = std::make_unique<Peer>();
    peer->index = i;
    peer->addr = c->config_.peers[i];
    c->peers_.push_back(std::move(peer));
  }

  // No other thread exists yet, so recovered_ needs no lock here.
  for (auto& job : replayed) {
    service::SubmitRequest request;
    request.instance = std::make_shared<mkp::Instance>(std::move(job.instance));
    request.tenant = job.tenant;
    request.priority = job.options.priority;
    request.warm_start = job.warm_start;
    request.options = std::move(job.options);
    auto handle = c->submit(std::move(request));
    if (handle) c->recovered_.push_back(std::move(*handle));
  }
  if (!c->recovered_.empty()) {
    PTS_LOG_INFO("cluster: recovered %zu unresolved job(s) from %s",
                 c->recovered_.size(), c->config_.journal_path.c_str());
  }

  c->tick_ = std::thread([raw = c.get()] { raw->tick_loop(); });
  return c;
}

Coordinator::~Coordinator() { stop(); }

void Coordinator::stop() {
  if (stopping_.exchange(true)) return;
  stop_source_.request_cancel();
  if (tick_.joinable()) tick_.join();
  {
    std::scoped_lock lock(mutex_);
    for (auto& peer : peers_) {
      if (peer->socket.valid()) ::shutdown(peer->socket.fd(), SHUT_RDWR);
    }
  }
  for (auto& peer : peers_) {
    if (peer->reader.joinable()) peer->reader.join();
  }
  // Resolve whatever is left kUnavailable WITHOUT striking the journal: a
  // restarted (or promoted) coordinator replays exactly these jobs.
  std::scoped_lock lock(mutex_);
  while (!jobs_.empty()) {
    fail_job_locked(jobs_.begin()->first,
                    Status::unavailable("cluster: coordinator shutting down"),
                    /*strike_journal=*/false);
  }
}

std::size_t Coordinator::alive_peers() const {
  std::scoped_lock lock(mutex_);
  std::size_t alive = 0;
  for (const auto& peer : peers_) {
    if (peer->state == Peer::State::kAlive) ++alive;
  }
  return alive;
}

CoordinatorStats Coordinator::stats() const {
  std::scoped_lock lock(mutex_);
  return stats_;
}

std::vector<service::JobHandle> Coordinator::take_recovered() {
  std::scoped_lock lock(mutex_);
  return std::exchange(recovered_, {});
}

double Coordinator::jittered_backoff_locked(double base, int attempts) {
  double factor = base;
  for (int k = 1; k < attempts; ++k) factor *= 2.0;
  factor = std::min(factor, config_.max_backoff_seconds);
  return factor * (0.5 + static_cast<double>(rng_.next_below(1000)) / 2000.0);
}

std::string Coordinator::make_key_locked(const service::SubmitRequest& request,
                                         std::uint64_t content_hash) {
  // Mirrors the service's dedup key: instance content + solve-shaped options
  // (per-waiter urgency — priority, deadline — and machine-local paths must
  // not fragment coalescing), plus the tenant. allow_dedup=false requests
  // get a private nonce: they never coalesce with anything.
  parallel::codec::Writer w;
  w.u64(content_hash);
  service::JobOptions shape = request.options;
  shape.priority = 0;
  shape.deadline_seconds.reset();
  shape.proc.worker_path.clear();
  service::journal::put_job_options(w, shape);
  w.str(request.tenant);
  w.u8(static_cast<std::uint8_t>(request.warm_start));
  if (!request.allow_dedup) w.u64(dedup_nonce_++);
  auto bytes = w.take();
  return std::string(bytes.begin(), bytes.end());
}

void Coordinator::log_append_locked(ReplicateRecord record) {
  record.seq = next_seq_++;
  log_.push_back(std::move(record));
  if (log_.size() > 512) compact_log_locked();
}

void Coordinator::compact_log_locked() {
  // Drop every record belonging to a resolved job id (both sides of the
  // pair), keeping surviving records' sequence numbers untouched: a replica
  // cursor simply skips the gaps, and what the gaps held was a no-op for it.
  std::map<service::JobId, bool> resolved;
  for (const auto& record : log_) {
    if (record.kind == ReplicateRecord::Kind::kResolved) {
      resolved[record.job_id] = true;
    }
  }
  if (resolved.empty()) return;
  std::deque<ReplicateRecord> live;
  for (auto& record : log_) {
    if (!resolved.contains(record.job_id)) live.push_back(std::move(record));
  }
  log_ = std::move(live);
}

Expected<service::JobTicket> Coordinator::submit(
    service::SubmitRequest request, service::JobCallback on_done) {
  std::scoped_lock lock(mutex_);
  return submit_locked(std::move(request), std::move(on_done));
}

Expected<service::JobTicket> Coordinator::submit_locked(
    service::SubmitRequest request, service::JobCallback on_done) {
  if (stopping_.load(std::memory_order_acquire)) {
    return Status::unavailable("cluster: coordinator is shutting down");
  }
  if (!request.instance) {
    return Status::invalid_argument("cluster: submit requires an instance");
  }
  const std::uint64_t content_hash =
      parallel::snapshot::instance_hash64(*request.instance);
  std::string key = make_key_locked(request, content_hash);

  auto waiter = std::make_unique<Waiter>();
  waiter->id = next_id_++;
  waiter->tenant = request.tenant;
  if (request.deadline_seconds) {
    waiter->deadline = Deadline::after_seconds(*request.deadline_seconds);
  }
  waiter->on_done = std::move(on_done);

  service::JobTicket ticket;
  ticket.id = waiter->id;
  ticket.tenant = waiter->tenant;
  ticket.content_hash = content_hash;
  ++stats_.submitted;
  obs::metrics().counter("cluster_submissions_total").add();

  // Journal the waiter (priority folded into the options so recovery keeps
  // it), mirror the record to the replication log.
  service::JobOptions journal_options = request.options;
  journal_options.priority = request.priority;

  auto it = jobs_.find(key);
  if (it != jobs_.end()) {
    // Coalesce: one more waiter on the in-flight (or pending) solve.
    ClusterJob& job = *it->second;
    waiter->attached_dedup = true;
    ticket.deduplicated = true;
    ++stats_.dedup_hits;
    if (journal_) {
      // A follower needs its own kSubmitted so a promoted coordinator can
      // re-run it standalone, plus the kDedup provenance link. kSubmitted
      // goes FIRST: replay only honors a kDedup link whose follower is
      // already open (the replication log uses the same order).
      (void)journal_->append_submitted(waiter->id, *request.instance,
                                       journal_options, request.tenant,
                                       request.warm_start);
      (void)journal_->append_dedup(waiter->id, job.primary_id);
    }
    ReplicateRecord submitted;
    submitted.kind = ReplicateRecord::Kind::kSubmitted;
    submitted.job_id = waiter->id;
    submitted.instance = *request.instance;
    submitted.options = journal_options;
    submitted.tenant = request.tenant;
    submitted.warm_start = request.warm_start;
    log_append_locked(std::move(submitted));
    ReplicateRecord dedup;
    dedup.kind = ReplicateRecord::Kind::kDedup;
    dedup.job_id = waiter->id;
    dedup.dedup_primary = job.primary_id;
    log_append_locked(std::move(dedup));

    waiter_index_.emplace(waiter->id, key);
    job.waiters.push_back(std::move(waiter));
    return ticket;
  }

  auto job = std::make_unique<ClusterJob>();
  job->key = key;
  job->primary_id = waiter->id;
  job->content_hash = content_hash;
  job->canonical = std::move(request);
  // The coordinator enforces per-waiter deadlines itself; the remote solve
  // runs its time budget for everyone.
  job->canonical.deadline_seconds.reset();
  if (journal_) {
    (void)journal_->append_submitted(waiter->id, *job->canonical.instance,
                                     journal_options, job->canonical.tenant,
                                     job->canonical.warm_start);
  }
  ReplicateRecord submitted;
  submitted.kind = ReplicateRecord::Kind::kSubmitted;
  submitted.job_id = waiter->id;
  submitted.instance = *job->canonical.instance;
  submitted.options = journal_options;
  submitted.tenant = job->canonical.tenant;
  submitted.warm_start = job->canonical.warm_start;
  log_append_locked(std::move(submitted));

  waiter_index_.emplace(waiter->id, key);
  job->waiters.push_back(std::move(waiter));
  jobs_.emplace(std::move(key), std::move(job));
  return ticket;
}

bool Coordinator::cancel(service::JobId id) {
  std::scoped_lock lock(mutex_);
  auto index = waiter_index_.find(id);
  if (index == waiter_index_.end()) return false;
  auto job_it = jobs_.find(index->second);
  if (job_it == jobs_.end()) return false;
  ClusterJob& job = *job_it->second;

  auto waiter_it =
      std::find_if(job.waiters.begin(), job.waiters.end(),
                   [id](const auto& w) { return w->id == id; });
  if (waiter_it == job.waiters.end()) return false;

  service::JobResult result;
  result.status = Status::cancelled("cluster: cancelled by the caller");
  result.instance = job.canonical.instance;
  result.content_hash = job.content_hash;
  resolve_waiter_locked(**waiter_it, std::move(result), /*strike_journal=*/true);
  job.waiters.erase(waiter_it);

  if (job.waiters.empty()) {
    // Last stake gone: stop the remote solve (best-effort) or drop the
    // pending record outright.
    if (job.inflight) {
      if (!job.cancel_sent && job.acked) {
        send_to_peer_locked(*peers_[job.peer_index],
                            net::encode_cancel_job({job.request_id}));
        job.cancel_sent = true;
      }
      // The job record stays until the remote result (kCancelled) arrives —
      // it anchors the request id.
    } else {
      jobs_.erase(job_it);
    }
  }
  return true;
}

void Coordinator::resolve_waiter_locked(Waiter& waiter,
                                        service::JobResult result,
                                        bool strike_journal) {
  result.id = waiter.id;
  result.tenant = waiter.tenant;
  if (waiter.attached_dedup) result.deduplicated = true;
  waiter.on_done(std::move(result));
  ++stats_.resolved;
  waiter_index_.erase(waiter.id);
  if (strike_journal) {
    if (journal_) (void)journal_->append_resolved(waiter.id);
    ReplicateRecord record;
    record.kind = ReplicateRecord::Kind::kResolved;
    record.job_id = waiter.id;
    log_append_locked(std::move(record));
  }
}

void Coordinator::fail_job_locked(const std::string& key, const Status& status,
                                  bool strike_journal) {
  auto it = jobs_.find(key);
  if (it == jobs_.end()) return;
  ClusterJob& job = *it->second;
  for (auto& waiter : job.waiters) {
    service::JobResult result;
    result.status = status;
    result.instance = job.canonical.instance;
    result.content_hash = job.content_hash;
    resolve_waiter_locked(*waiter, std::move(result), strike_journal);
  }
  jobs_.erase(it);
}

void Coordinator::send_to_peer_locked(Peer& peer,
                                      const std::vector<std::uint8_t>& frame) {
  std::scoped_lock wlock(peer.write_mutex);
  if (!peer.socket.valid()) return;
  (void)peer.socket.send_frame(frame);  // reader/heartbeat notices failures
}

void Coordinator::tick_loop() {
  const CancelToken stop = stop_source_.token();
  while (!stop.cancel_requested()) {
    connect_peers();
    {
      std::scoped_lock lock(mutex_);
      heartbeat_locked();
      replicate_locked();
      dispatch_locked();
      sweep_deadlines_locked();
    }
    std::this_thread::sleep_for(kTickPeriod);
  }
}

void Coordinator::connect_peers() {
  const double now = now_seconds();
  std::vector<Peer*> ready;
  {
    std::scoped_lock lock(mutex_);
    for (auto& peer : peers_) {
      if (peer->state != Peer::State::kDown) continue;
      if (now < peer->reconnect_not_before) continue;
      // A previous reader must be fully out before the socket is replaced;
      // reader_exited is its very last store, so this join cannot block on
      // the mutex this thread holds.
      if (peer->reader.joinable() &&
          !peer->reader_exited.load(std::memory_order_acquire)) {
        continue;
      }
      if (peer->reader.joinable()) peer->reader.join();
      peer->state = Peer::State::kConnecting;
      ready.push_back(peer.get());
    }
  }

  for (Peer* peer : ready) {
    auto socket = net::dial(peer->addr.host, peer->addr.port,
                            config_.connect_timeout_seconds);
    bool joined = false;
    PeerWelcome welcome;
    if (socket) {
      PeerHello hello;
      hello.cluster_name = config_.cluster_name;
      hello.coordinator_epoch = config_.epoch;
      if (socket->send_frame(encode_peer_hello(hello)).ok()) {
        auto frame =
            socket->read_frame(config_.connect_timeout_seconds, stop_source_.token());
        if (frame &&
            frame->type == parallel::wire::MessageType::kPeerWelcome) {
          if (auto decoded = decode_peer_welcome(frame->payload); decoded) {
            welcome = std::move(*decoded);
            joined = true;
          }
        }
      }
    }

    std::scoped_lock lock(mutex_);
    if (stopping_.load(std::memory_order_acquire)) return;
    if (!joined) {
      peer->state = Peer::State::kDown;
      ++peer->reconnect_attempts;
      peer->reconnect_not_before =
          now_seconds() + jittered_backoff_locked(config_.resubmit_backoff_seconds,
                                                  peer->reconnect_attempts);
      continue;
    }
    peer->socket = std::move(*socket);
    peer->name = welcome.node_name;
    peer->num_workers = std::max<std::uint32_t>(1, welcome.num_workers);
    // The welcome's cursor drives catch-up: replicate_locked resends every
    // record past it (a truncated replica reports 0 → the full live image).
    peer->sent_seq = welcome.last_applied_seq;
    peer->acked_seq = welcome.last_applied_seq;
    peer->running_jobs = 0;
    peer->queued_jobs = 0;
    peer->last_heard.store(now_seconds(), std::memory_order_release);
    peer->last_ping = 0.0;
    peer->reconnect_attempts = 0;
    peer->down_handled = false;
    peer->reader_exited.store(false, std::memory_order_release);
    peer->state = Peer::State::kAlive;
    ++stats_.nodes_connected;
    obs::metrics().counter("cluster_peer_connects_total").add();
    PTS_LOG_INFO("cluster: peer %zu ('%s' %s:%u) joined, applied_seq=%llu",
                 peer->index, peer->name.c_str(), peer->addr.host.c_str(),
                 static_cast<unsigned>(peer->addr.port),
                 static_cast<unsigned long long>(welcome.last_applied_seq));
    peer->reader = std::thread([this, peer] { reader_loop(*peer); });
  }
}

void Coordinator::heartbeat_locked() {
  const double now = now_seconds();
  const double budget =
      config_.heartbeat_interval_seconds * config_.heartbeat_misses;
  for (auto& peer : peers_) {
    if (peer->state != Peer::State::kAlive) continue;
    if (now - peer->last_heard.load(std::memory_order_acquire) > budget) {
      PTS_LOG_WARN("cluster: peer %zu ('%s') missed %d heartbeats — failing over",
                   peer->index, peer->name.c_str(), config_.heartbeat_misses);
      on_peer_down_locked(*peer);
      continue;
    }
    if (now - peer->last_ping >= config_.heartbeat_interval_seconds) {
      peer->last_ping = now;
      send_to_peer_locked(*peer, encode_peer_ping({++peer->ping_seq}));
    }
  }
}

void Coordinator::replicate_locked() {
  const std::uint64_t latest = next_seq_ - 1;
  for (auto& peer : peers_) {
    if (peer->state != Peer::State::kAlive) continue;
    for (int batch_no = 0;
         peer->sent_seq < latest && batch_no < kMaxReplicateBatchesPerTick;
         ++batch_no) {
      PeerReplicate batch;
      std::uint64_t high = peer->sent_seq;
      for (const auto& record : log_) {
        if (record.seq <= peer->sent_seq) continue;
        batch.records.push_back(record);
        high = record.seq;
        if (batch.records.size() >= kMaxReplicateRecordsPerFrame) break;
      }
      if (batch.records.empty()) {
        // Everything past the cursor was compacted away (resolved pairs):
        // advance the cursor — those records are no-ops for the replica.
        peer->sent_seq = latest;
        break;
      }
      stats_.records_replicated += batch.records.size();
      peer->sent_seq = high;
      send_to_peer_locked(*peer, encode_peer_replicate(batch));
    }
  }
}

void Coordinator::dispatch_locked() {
  const double now = now_seconds();
  for (auto& [key, job_ptr] : jobs_) {
    ClusterJob& job = *job_ptr;
    if (job.inflight || job.waiters.empty() || now < job.not_before) continue;

    // Least-loaded alive peer: the node's own sample plus what we have sent
    // it that it may not have reported yet.
    Peer* best = nullptr;
    double best_load = 0.0;
    for (auto& peer : peers_) {
      if (peer->state != Peer::State::kAlive) continue;
      const double load =
          static_cast<double>(peer->running_jobs + peer->queued_jobs +
                              peer->inflight.size()) /
          static_cast<double>(peer->num_workers);
      if (!best || load < best_load) {
        best = peer.get();
        best_load = load;
      }
    }
    if (!best) return;  // no alive node — jobs stay pending

    net::SubmitJob m{best->next_request_id++,
                     job.canonical.tenant,
                     job.canonical.priority,
                     /*deadline_seconds=*/std::nullopt,
                     job.canonical.warm_start,
                     job.canonical.allow_dedup,
                     job.canonical.options,
                     *job.canonical.instance};
    job.inflight = true;
    job.acked = false;
    job.peer_index = best->index;
    job.request_id = m.request_id;
    best->inflight.emplace(m.request_id, key);
    ++stats_.dispatched;
    obs::metrics().counter("cluster_dispatches_total").add();
    send_to_peer_locked(*best, net::encode_submit_job(m));
  }
}

void Coordinator::sweep_deadlines_locked() {
  std::vector<std::string> empty_pending;
  for (auto& [key, job_ptr] : jobs_) {
    ClusterJob& job = *job_ptr;
    for (auto it = job.waiters.begin(); it != job.waiters.end();) {
      if ((*it)->deadline.expired()) {
        service::JobResult result;
        result.status =
            Status::deadline_exceeded("cluster: deadline passed before the result");
        result.instance = job.canonical.instance;
        result.content_hash = job.content_hash;
        resolve_waiter_locked(**it, std::move(result), /*strike_journal=*/true);
        it = job.waiters.erase(it);
      } else {
        ++it;
      }
    }
    if (job.waiters.empty()) {
      if (job.inflight) {
        if (!job.cancel_sent && job.acked) {
          send_to_peer_locked(*peers_[job.peer_index],
                              net::encode_cancel_job({job.request_id}));
          job.cancel_sent = true;
        }
      } else {
        empty_pending.push_back(key);
      }
    }
  }
  for (const auto& key : empty_pending) jobs_.erase(key);
}

void Coordinator::on_peer_down_locked(Peer& peer) {
  if (peer.down_handled) return;
  if (stopping_.load(std::memory_order_acquire)) return;  // stop() owns cleanup
  peer.down_handled = true;
  peer.state = Peer::State::kDown;
  if (peer.socket.valid()) ::shutdown(peer.socket.fd(), SHUT_RDWR);
  ++stats_.nodes_lost;
  obs::metrics().counter("cluster_peer_losses_total").add();

  const double now = now_seconds();
  for (const auto& [request_id, key] : peer.inflight) {
    auto it = jobs_.find(key);
    if (it == jobs_.end()) continue;
    ClusterJob& job = *it->second;
    job.inflight = false;
    job.acked = false;
    job.cancel_sent = false;
    // The survivor re-streams the whole curve from zero; keeping the dead
    // node's prefix would hand waiters a non-monotone curve with the
    // pre-failure samples duplicated.
    job.anytime.clear();
    if (job.waiters.empty()) {
      // Everybody cancelled while it ran; the node that was running it is
      // gone, so there is nothing left to stop or report.
      jobs_.erase(it);
      continue;
    }
    ++job.attempts;
    if (job.attempts > config_.max_resubmits) {
      ++stats_.exhausted;
      fail_job_locked(key,
                      Status::unavailable(
                          "cluster: job lost to node failure too many times"),
                      /*strike_journal=*/true);
      continue;
    }
    job.not_before =
        now + jittered_backoff_locked(config_.resubmit_backoff_seconds,
                                      job.attempts);
    ++stats_.failovers;
    obs::metrics().counter("cluster_failovers_total").add();
  }
  peer.inflight.clear();

  ++peer.reconnect_attempts;
  peer.reconnect_not_before =
      now + jittered_backoff_locked(config_.resubmit_backoff_seconds,
                                    peer.reconnect_attempts);
}

void Coordinator::handle_result_locked(Peer& peer, std::uint64_t request_id,
                                       std::vector<std::uint8_t> payload) {
  auto inflight = peer.inflight.find(request_id);
  if (inflight == peer.inflight.end()) return;  // failover already re-owned it
  const std::string key = inflight->second;
  peer.inflight.erase(inflight);
  auto it = jobs_.find(key);
  if (it == jobs_.end()) return;
  ClusterJob& job = *it->second;

  auto decoded = net::decode_job_result(payload, *job.canonical.instance);
  if (!decoded) {
    // A corrupt result frame: treat like a lost solve — the usual retry
    // machinery decides whether to give up. The retry re-streams the curve,
    // so drop the samples collected from this attempt.
    job.inflight = false;
    job.acked = false;
    job.anytime.clear();
    ++job.attempts;
    if (job.attempts > config_.max_resubmits) {
      ++stats_.exhausted;
      fail_job_locked(key, decoded.status(), /*strike_journal=*/true);
    } else {
      job.not_before =
          now_seconds() + jittered_backoff_locked(
                              config_.resubmit_backoff_seconds, job.attempts);
    }
    return;
  }
  net::JobResultFrame m = std::move(*decoded);

  service::JobResult base;
  base.origin = m.origin;
  base.status = std::move(m.status);
  base.instance = job.canonical.instance;
  base.best = std::move(m.best);
  base.best_value = m.best_value;
  base.total_moves = m.total_moves;
  base.reached_target = m.reached_target;
  base.slave_faults = m.slave_faults;
  base.queue_seconds = m.queue_seconds;
  base.run_seconds = m.run_seconds;
  base.start_sequence = m.start_sequence;
  base.content_hash = m.content_hash;
  base.deduplicated = m.deduplicated;
  base.warm_started = m.warm_started;
  base.anytime = std::move(job.anytime);

  for (auto& waiter : job.waiters) {
    resolve_waiter_locked(*waiter, base, /*strike_journal=*/true);
  }
  jobs_.erase(it);
}

void Coordinator::reader_loop(Peer& peer) {
  const CancelToken stop = stop_source_.token();
  for (;;) {
    auto frame = peer.socket.read_frame(0.1, stop);
    if (!frame) {
      if (frame.status().code() == StatusCode::kDeadlineExceeded) {
        if (stop.cancel_requested()) break;
        continue;  // liveness is the heartbeat's job, not this timeout's
      }
      break;  // kUnavailable (node died), kCancelled (stop), or garbage
    }
    peer.last_heard.store(now_seconds(), std::memory_order_release);

    using parallel::wire::MessageType;
    switch (frame->type) {
      case MessageType::kPeerPong: {
        auto pong = decode_peer_pong(frame->payload);
        if (!pong) break;
        std::scoped_lock lock(mutex_);
        peer.running_jobs = pong->running_jobs;
        peer.queued_jobs = pong->queued_jobs;
        peer.acked_seq = std::max(peer.acked_seq, pong->last_applied_seq);
        break;
      }
      case MessageType::kPeerReplicateAck: {
        auto ack = decode_peer_replicate_ack(frame->payload);
        if (!ack) break;
        std::scoped_lock lock(mutex_);
        peer.acked_seq = std::max(peer.acked_seq, ack->last_applied_seq);
        break;
      }
      case MessageType::kSubmitAck: {
        auto ack = net::decode_submit_ack(frame->payload);
        if (!ack) break;
        std::scoped_lock lock(mutex_);
        auto inflight = peer.inflight.find(ack->request_id);
        if (inflight == peer.inflight.end()) break;
        auto it = jobs_.find(inflight->second);
        if (it == jobs_.end()) break;
        ClusterJob& job = *it->second;
        if (!ack->status.ok()) {
          // The node refused the submission (backpressure, draining):
          // surface the verdict to every waiter rather than retrying into
          // the same wall.
          const std::string key = inflight->second;
          peer.inflight.erase(inflight);
          fail_job_locked(key, ack->status, /*strike_journal=*/true);
          break;
        }
        job.acked = true;
        if (job.remote_hash == 0) {
          job.remote_hash = ack->content_hash;
        } else if (job.remote_hash != ack->content_hash) {
          PTS_LOG_ERROR(
              "cluster: resubmission of job %llu acked hash %016llx, "
              "expected %016llx",
              static_cast<unsigned long long>(job.primary_id),
              static_cast<unsigned long long>(ack->content_hash),
              static_cast<unsigned long long>(job.remote_hash));
        }
        // A cancel that raced the dispatch: everyone left before the ack.
        if (job.waiters.empty() && !job.cancel_sent) {
          send_to_peer_locked(peer, net::encode_cancel_job({job.request_id}));
          job.cancel_sent = true;
        }
        break;
      }
      case MessageType::kJobEvent: {
        auto event = net::decode_job_event(frame->payload);
        if (!event) break;
        std::scoped_lock lock(mutex_);
        auto inflight = peer.inflight.find(event->request_id);
        if (inflight == peer.inflight.end()) break;
        auto it = jobs_.find(inflight->second);
        if (it == jobs_.end()) break;
        auto& anytime = it->second->anytime;
        anytime.insert(anytime.end(), event->anytime.begin(),
                       event->anytime.end());
        break;
      }
      case MessageType::kJobResult: {
        std::scoped_lock lock(mutex_);
        // Peek the request id to route; decode happens against the job's
        // own instance inside.
        parallel::codec::Reader r(frame->payload);
        const std::uint64_t request_id = r.u64();
        if (!r.ok()) break;
        handle_result_locked(peer, request_id, std::move(frame->payload));
        break;
      }
      case MessageType::kGoodbye:
        break;  // the node is draining; EOF follows and failover handles it
      default:
        break;  // tolerate unknown-but-well-framed traffic from a newer node
    }
  }
  {
    std::scoped_lock lock(mutex_);
    on_peer_down_locked(peer);
  }
  peer.reader_exited.store(true, std::memory_order_release);
}

}  // namespace pts::cluster
