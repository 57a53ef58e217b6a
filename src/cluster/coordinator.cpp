#include "cluster/coordinator.hpp"

#include <poll.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <unordered_map>
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
constexpr double kTickSeconds = 0.02;

}  // namespace

/// One coalesced unit of remote work: at most ONE in-flight remote
/// submission at any time, no matter how many waiters or how many failovers.
/// Its waiters (the table's part) outlive failovers untouched.
struct Coordinator::ClusterJob : service::JobTable::Job {
  service::SubmitRequest canonical;  ///< deadline cleared (coordinator enforces)

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
  enum class State { kDown, kDialing, kConnecting, kAlive };

  std::size_t index = 0;
  PeerAddress addr;
  std::string name;

  // Every field is guarded by mutex_. Only the tick thread reads the
  // socket, replaces it or changes the state; a submitter may send on it.
  State state = State::kDown;
  std::optional<net::PendingDial> dial;  ///< set while kDialing
  parallel::FrameSocket socket;          ///< set while kConnecting or kAlive
  /// kAlive: when the last whole frame arrived. kDialing: when the TCP
  /// connect started. kConnecting: when the PeerHello went out. The last
  /// two start the connect and the join deadline.
  double last_heard = 0.0;

  std::uint64_t ping_seq = 0;
  double last_ping = 0.0;
  std::uint32_t running_jobs = 0;
  std::uint32_t queued_jobs = 0;
  std::uint32_t num_workers = 1;
  std::uint64_t sent_seq = 0;   ///< replication records streamed so far
  std::uint64_t acked_seq = 0;  ///< replica's applied-through cursor
  std::uint64_t next_request_id = 1;
  std::map<std::uint64_t, service::JobId> inflight;  ///< request id -> job id

  double reconnect_not_before = 0.0;
  int reconnect_attempts = 0;
};

Coordinator::Coordinator(CoordinatorConfig config)
    : config_(std::move(config)),
      table_(service::ServiceConfig{}.journal_compact_every_records,
             [this](service::journal::RecordType type,
                    const service::JobTable::Waiter& waiter) {
               log_append_locked(type, waiter);
             }) {}

Expected<std::unique_ptr<Coordinator>> Coordinator::start(
    CoordinatorConfig config) {
  if (config.peers.empty()) {
    return Status::invalid_argument("cluster: a coordinator needs peers");
  }
  if (config.heartbeat_interval_seconds <= 0 || config.heartbeat_misses <= 0) {
    return Status::invalid_argument("cluster: bad heartbeat configuration");
  }

  std::unique_ptr<Coordinator> c(new Coordinator(std::move(config)));
  for (std::size_t i = 0; i < c->config_.peers.size(); ++i) {
    auto peer = std::make_unique<Peer>();
    peer->index = i;
    peer->addr = c->config_.peers[i];
    c->peers_.push_back(std::move(peer));
  }
  // The promotion path: replay the previous incarnation's (or a promoted
  // replica's) journal and resubmit the survivors before the tick starts.
  if (!c->config_.journal_path.empty()) {
    c->table_.resume(
        c->table_.open_journal(c->config_.journal_path),
        [raw = c.get()](service::SubmitRequest request,
                        service::JobCallback on_done, std::uint64_t) {
          std::scoped_lock lock(raw->mutex_);
          return raw->submit_locked(std::move(request), std::move(on_done),
                                    service::JobOrigin::kResumed);
        });
  }

  c->tick_ = std::thread([raw = c.get()] { raw->tick_loop(); });
  return c;
}

Coordinator::~Coordinator() { stop(); }

void Coordinator::stop() {
  if (stopping_.exchange(true)) return;
  if (tick_.joinable()) tick_.join();
  std::scoped_lock lock(mutex_);
  for (auto& peer : peers_) {
    peer->dial.reset();
    peer->socket.close();
  }
  // Resolve whatever is left kUnavailable WITHOUT striking the journal: a
  // restarted (or promoted) coordinator replays exactly these jobs.
  while (!table_.jobs().empty()) {
    table_.fail_all(*table_.jobs().begin()->second,
                    Status::unavailable("cluster: coordinator shutting down"),
                    /*strike=*/false);
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
  CoordinatorStats out = stats_;
  out.resolved = table_.resolved();
  return out;
}

std::vector<service::JobHandle> Coordinator::take_recovered() {
  std::scoped_lock lock(mutex_);
  return table_.take_recovered();
}

std::shared_ptr<Coordinator::ClusterJob> Coordinator::job_locked(
    service::JobId id) const {
  return std::static_pointer_cast<ClusterJob>(table_.find(id));
}

double Coordinator::jittered_backoff_locked(double base, int attempts) {
  double factor = base;
  for (int k = 1; k < attempts; ++k) factor *= 2.0;
  factor = std::min(factor, config_.max_backoff_seconds);
  return factor * (0.5 + static_cast<double>(rng_.next_below(1000)) / 2000.0);
}

void Coordinator::log_append_locked(service::journal::RecordType type,
                                    const service::JobTable::Waiter& waiter) {
  using service::journal::RecordType;
  ReplicateRecord record;
  record.seq = next_seq_++;
  record.job_id = waiter.id;
  if (type == RecordType::kSubmitted) {
    record.kind = ReplicateRecord::Kind::kSubmitted;
    record.instance = waiter.instance;
    record.options = waiter.options;
    record.tenant = waiter.tenant;
    record.warm_start = waiter.warm_start;
  } else if (type == RecordType::kDedup) {
    record.kind = ReplicateRecord::Kind::kDedup;
    record.dedup_primary = waiter.dedup_primary;
  }  // else kResolved, the default kind
  log_.push_back(std::move(record));
  if (log_.size() > log_compact_at_) compact_log_locked();
}

void Coordinator::compact_log_locked() {
  // Drop every record of a resolved job id (both sides of the pair),
  // keeping surviving records' sequence numbers untouched: a replica cursor
  // skips the gaps, and what they held was a no-op for it. Except while a
  // peer has been sent the kSubmitted but not yet the kResolved: dropping
  // the pair then would leave that replica's copy open for good. (Sent, not
  // acked: a node without a replica acks 0 forever and would pin it all.)
  std::unordered_map<service::JobId, std::pair<std::uint64_t, std::uint64_t>>
      spans;
  spans.reserve(log_.size());
  for (const auto& record : log_) {
    auto& [first, resolved] = spans[record.job_id];
    if (first == 0) first = record.seq;
    if (record.kind == ReplicateRecord::Kind::kResolved) resolved = record.seq;
  }
  std::erase_if(log_, [&](const ReplicateRecord& record) {
    const auto [first, resolved] = spans[record.job_id];
    return resolved != 0 &&
           std::none_of(peers_.begin(), peers_.end(), [&](const auto& peer) {
             return peer->sent_seq >= first && peer->sent_seq < resolved;
           });
  });
  // The next pass visits fewer than twice as many records as appends come
  // before it, so compaction costs O(1) per append however many records
  // the open jobs and the peer cursors keep.
  log_compact_at_ = std::max(kLogCompactFloor, 2 * log_.size());
}

Expected<service::JobTicket> Coordinator::submit(
    service::SubmitRequest request, service::JobCallback on_done) {
  std::scoped_lock lock(mutex_);
  return submit_locked(std::move(request), std::move(on_done),
                       service::JobOrigin::kFresh);
}

Expected<service::JobTicket> Coordinator::submit_locked(
    service::SubmitRequest request, service::JobCallback on_done,
    service::JobOrigin origin) {
  if (stopping_.load(std::memory_order_acquire)) {
    return Status::unavailable("cluster: coordinator is shutting down");
  }
  if (!request.instance) {
    return Status::invalid_argument("cluster: submit requires an instance");
  }
  auto waiter = table_.make_waiter(request, std::move(on_done), origin);
  // Every waiter, a coalesced follower too, is journaled with its own
  // kSubmitted (priority folded in) so a promoted coordinator can re-run it
  // standalone.
  waiter->options.priority = request.priority;
  service::JobTicket ticket;
  ticket.id = waiter->id;
  ticket.tenant = waiter->tenant;
  ticket.content_hash = parallel::snapshot::instance_hash64(*request.instance);
  ++stats_.submitted;
  obs::metrics().counter("cluster_submissions_total").add();

  auto solve_key =
      service::JobTable::solve_key(request.options, request.warm_start);
  if (auto* job = request.allow_dedup ? table_.match(ticket.content_hash,
                                                     solve_key, *request.instance)
                                     : nullptr) {
    // Coalesce: one more waiter on the in-flight (or pending) solve.
    table_.attach(*job, std::move(waiter));
    ticket.deduplicated = true;
    ++stats_.dedup_hits;
    return ticket;
  }

  auto job = std::make_shared<ClusterJob>();
  job->instance = request.instance;
  job->content_hash = ticket.content_hash;
  job->solve_key = std::move(solve_key);
  job->canonical = std::move(request);
  // The coordinator enforces per-waiter deadlines itself; the remote solve
  // runs its time budget for everyone.
  job->canonical.deadline_seconds.reset();
  table_.admit(job, std::move(waiter));
  return ticket;
}

bool Coordinator::cancel(service::JobId id) {
  std::scoped_lock lock(mutex_);
  const auto job = std::static_pointer_cast<ClusterJob>(table_.job_of(id));
  if (!job) return false;  // unknown, or already resolved
  table_.fail(*table_.detach(*job, id), *job,
              Status::cancelled("cluster: cancelled by the caller"));
  release_if_abandoned_locked(*job);
  return true;
}

void Coordinator::release_if_abandoned_locked(ClusterJob& job) {
  if (!job.waiters.empty()) return;
  if (!job.inflight) {
    table_.retire(job);
  } else if (!job.cancel_sent && job.acked) {
    send_to_peer_locked(*peers_[job.peer_index],
                        net::encode_cancel_job({job.request_id}));
    job.cancel_sent = true;
  }
}

void Coordinator::send_to_peer_locked(Peer& peer,
                                      const std::vector<std::uint8_t>& frame) {
  if (!peer.socket.valid()) return;
  (void)peer.socket.send_frame(frame);  // the poll or heartbeat notices failures
}

void Coordinator::tick_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    connect_peers();
    // Read every peer as its frames arrive until the next tick. At least one
    // poll follows the dials above, so no peer is judged on a tick before
    // what it already sent has been read.
    const double next_tick = now_seconds() + kTickSeconds;
    do {
      poll_peers(next_tick - now_seconds());
    } while (now_seconds() < next_tick &&
             !stopping_.load(std::memory_order_acquire));
    std::scoped_lock lock(mutex_);
    heartbeat_locked();
    replicate_locked();
    dispatch_locked();
    sweep_deadlines_locked();
    table_.maybe_compact();
  }
}

void Coordinator::connect_peers() {
  std::vector<Peer*> due;
  {
    std::scoped_lock lock(mutex_);
    const double now = now_seconds();
    for (auto& peer : peers_) {
      if (peer->state == Peer::State::kDown && now >= peer->reconnect_not_before) {
        due.push_back(peer.get());
      }
    }
  }
  for (Peer* peer : due) {
    auto dial = net::PendingDial::start(peer->addr.host, peer->addr.port);
    std::scoped_lock lock(mutex_);
    if (!dial) {
      reconnect_later_locked(*peer);
      continue;
    }
    peer->dial = std::move(*dial);
    peer->state = Peer::State::kDialing;
    peer->last_heard = now_seconds();
  }
}

void Coordinator::poll_peers(double timeout_seconds) {
  std::vector<pollfd> fds(peers_.size(), pollfd{-1, POLLIN, 0});
  {
    std::scoped_lock lock(mutex_);
    for (std::size_t i = 0; i < peers_.size(); ++i) {
      const Peer& peer = *peers_[i];
      if (peer.state == Peer::State::kDialing) {
        fds[i] = {peer.dial->fd(), POLLOUT, 0};
      } else if (peer.state != Peer::State::kDown) {
        fds[i].fd = peer.socket.fd();
      }
    }
  }
  const int wait_ms =
      static_cast<int>(std::ceil(std::max(timeout_seconds, 0.0) * 1000.0));
  if (::poll(fds.data(), fds.size(), wait_ms) <= 0) return;  // timeout or EINTR
  std::scoped_lock lock(mutex_);
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    if (fds[i].revents == 0) continue;
    if (peers_[i]->state == Peer::State::kDialing) {
      finish_dial_locked(*peers_[i]);
    } else {
      drain_peer_locked(*peers_[i]);
    }
  }
}

void Coordinator::finish_dial_locked(Peer& peer) {
  auto socket = peer.dial->finish();
  if (socket && !*socket) return;  // the next address is being dialled
  // Every address refused: a failed join, like a missed PeerWelcome.
  if (!socket || !(*socket)->send_frame(encode_peer_hello(
                                            {config_.cluster_name, config_.epoch}))
                      .ok()) {
    reconnect_later_locked(peer);
    return;
  }
  peer.dial.reset();
  peer.socket = std::move(**socket);
  peer.state = Peer::State::kConnecting;
  peer.last_heard = now_seconds();
}

void Coordinator::drain_peer_locked(Peer& peer) {
  while (peer.state != Peer::State::kDown) {
    auto frame = peer.socket.poll_frame();
    if (!frame) {
      // EOF (node died), a socket error or a malformed header.
      if (peer.state == Peer::State::kConnecting) {
        reconnect_later_locked(peer);
      } else {
        on_peer_down_locked(peer);
      }
      return;
    }
    if (!*frame) return;  // the rest is still in flight
    if (peer.state == Peer::State::kConnecting) {
      join_locked(peer, **frame);
    } else {
      peer.last_heard = now_seconds();
      handle_frame_locked(peer, std::move(**frame));
    }
  }
}

void Coordinator::join_locked(Peer& peer, const parallel::wire::Frame& frame) {
  // Anything but a PeerWelcome (a refusal's Goodbye included) fails the join.
  auto welcome = decode_peer_welcome(frame.payload);
  if (frame.type != parallel::wire::MessageType::kPeerWelcome || !welcome) {
    reconnect_later_locked(peer);
    return;
  }
  peer.name = welcome->node_name;
  peer.num_workers = std::max<std::uint32_t>(1, welcome->num_workers);
  // The welcome's cursor drives catch-up: replicate_locked resends every
  // record past it (a truncated replica reports 0 → the full live image).
  peer.sent_seq = welcome->last_applied_seq;
  peer.acked_seq = welcome->last_applied_seq;
  peer.running_jobs = 0;
  peer.queued_jobs = 0;
  peer.last_heard = now_seconds();
  peer.last_ping = 0.0;
  peer.reconnect_attempts = 0;
  peer.state = Peer::State::kAlive;
  ++stats_.nodes_connected;
  obs::metrics().counter("cluster_peer_connects_total").add();
  PTS_LOG_INFO("cluster: peer %zu ('%s' %s:%u) joined, applied_seq=%llu",
               peer.index, peer.name.c_str(), peer.addr.host.c_str(),
               static_cast<unsigned>(peer.addr.port),
               static_cast<unsigned long long>(welcome->last_applied_seq));
}

void Coordinator::heartbeat_locked() {
  const double now = now_seconds();
  const double budget =
      config_.heartbeat_interval_seconds * config_.heartbeat_misses;
  for (auto& peer : peers_) {
    if ((peer->state == Peer::State::kDialing ||
         peer->state == Peer::State::kConnecting) &&
        now - peer->last_heard > config_.connect_timeout_seconds) {
      reconnect_later_locked(*peer);  // no connect or PeerWelcome in time
      continue;
    }
    if (peer->state != Peer::State::kAlive) continue;
    if (now - peer->last_heard > budget) {
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
  for (const auto& [id, entry] : table_.jobs()) {
    auto& job = static_cast<ClusterJob&>(*entry);
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
    best->inflight.emplace(m.request_id, id);
    ++stats_.dispatched;
    obs::metrics().counter("cluster_dispatches_total").add();
    send_to_peer_locked(*best, net::encode_submit_job(m));
  }
}

void Coordinator::sweep_deadlines_locked() {
  const auto expired =
      Status::deadline_exceeded("cluster: deadline passed before the result");
  std::vector<service::JobId> emptied;
  for (const auto& [id, job] : table_.jobs()) {
    table_.expire(*job, expired);
    if (job->waiters.empty()) emptied.push_back(id);
  }
  for (const auto id : emptied) release_if_abandoned_locked(*job_locked(id));
}

void Coordinator::on_peer_down_locked(Peer& peer) {
  if (stopping_.load(std::memory_order_acquire)) return;  // stop() owns cleanup
  ++stats_.nodes_lost;
  obs::metrics().counter("cluster_peer_losses_total").add();

  for (const auto& [request_id, id] : peer.inflight) {
    const auto job = job_locked(id);
    if (job && requeue_locked(*job, Status::unavailable(
                                        "cluster: job lost to node failure "
                                        "too many times"))) {
      ++stats_.failovers;
      obs::metrics().counter("cluster_failovers_total").add();
    }
  }
  peer.inflight.clear();
  reconnect_later_locked(peer);
}

bool Coordinator::requeue_locked(ClusterJob& job, const Status& exhausted) {
  job.inflight = false;
  job.acked = false;
  job.cancel_sent = false;
  // The retry re-streams the whole curve from zero; keeping this attempt's
  // prefix would hand waiters a non-monotone curve with samples duplicated.
  job.anytime.clear();
  if (job.waiters.empty()) {
    // Everybody left while it ran; the attempt that was running it is gone,
    // so there is nothing left to stop or report.
    table_.retire(job);
    return false;
  }
  if (++job.attempts > config_.max_resubmits) {
    ++stats_.exhausted;
    table_.fail_all(job, exhausted);
    return false;
  }
  job.not_before = now_seconds() + jittered_backoff_locked(
                                       config_.resubmit_backoff_seconds,
                                       job.attempts);
  return true;
}

void Coordinator::reconnect_later_locked(Peer& peer) {
  peer.dial.reset();
  peer.socket.close();
  peer.state = Peer::State::kDown;
  ++peer.reconnect_attempts;
  peer.reconnect_not_before =
      now_seconds() + jittered_backoff_locked(config_.resubmit_backoff_seconds,
                                              peer.reconnect_attempts);
}

void Coordinator::handle_result_locked(Peer& peer, std::uint64_t request_id,
                                       std::vector<std::uint8_t> payload) {
  auto inflight = peer.inflight.find(request_id);
  if (inflight == peer.inflight.end()) return;  // failover already re-owned it
  const auto job = job_locked(inflight->second);
  peer.inflight.erase(inflight);
  if (!job) return;

  auto decoded = net::decode_job_result(payload, *job->instance);
  if (!decoded) {
    // A corrupt result frame: treat like a lost solve.
    requeue_locked(*job, decoded.status());
    return;
  }
  net::JobResultFrame m = std::move(*decoded);

  service::JobResult base;
  base.status = std::move(m.status);
  base.instance = job->instance;
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
  base.anytime = std::move(job->anytime);

  for (auto& waiter : table_.retire(*job)) table_.resolve(*waiter, base);
}

void Coordinator::handle_frame_locked(Peer& peer, parallel::wire::Frame frame) {
  using parallel::wire::MessageType;
  switch (frame.type) {
    case MessageType::kPeerPong: {
      auto pong = decode_peer_pong(frame.payload);
      if (!pong) break;
      peer.running_jobs = pong->running_jobs;
      peer.queued_jobs = pong->queued_jobs;
      peer.acked_seq = std::max(peer.acked_seq, pong->last_applied_seq);
      break;
    }
    case MessageType::kPeerReplicateAck: {
      auto ack = decode_peer_replicate_ack(frame.payload);
      if (!ack) break;
      peer.acked_seq = std::max(peer.acked_seq, ack->last_applied_seq);
      break;
    }
    case MessageType::kSubmitAck: {
      auto ack = net::decode_submit_ack(frame.payload);
      if (!ack) break;
      auto inflight = peer.inflight.find(ack->request_id);
      if (inflight == peer.inflight.end()) break;
      const auto entry = job_locked(inflight->second);
      if (!entry) break;
      ClusterJob& job = *entry;
      if (!ack->status.ok()) {
        // The node refused the submission (backpressure, draining):
        // surface the verdict to every waiter rather than retrying into
        // the same wall.
        peer.inflight.erase(inflight);
        table_.fail_all(job, ack->status);
        break;
      }
      job.acked = true;
      if (job.remote_hash == 0) {
        job.remote_hash = ack->content_hash;
      } else if (job.remote_hash != ack->content_hash) {
        PTS_LOG_ERROR(
            "cluster: resubmission of job %llu acked hash %016llx, "
            "expected %016llx",
            static_cast<unsigned long long>(job.id),
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
      auto event = net::decode_job_event(frame.payload);
      if (!event) break;
      auto inflight = peer.inflight.find(event->request_id);
      if (inflight == peer.inflight.end()) break;
      const auto job = job_locked(inflight->second);
      if (!job) break;
      auto& anytime = job->anytime;
      anytime.insert(anytime.end(), event->anytime.begin(),
                     event->anytime.end());
      break;
    }
    case MessageType::kJobResult: {
      // Peek the request id to route; decode happens against the job's
      // own instance inside.
      parallel::codec::Reader r(frame.payload);
      const std::uint64_t request_id = r.u64();
      if (!r.ok()) break;
      handle_result_locked(peer, request_id, std::move(frame.payload));
      break;
    }
    case MessageType::kGoodbye:
      break;  // the node is draining; EOF follows and failover handles it
    default:
      break;  // tolerate unknown-but-well-framed traffic from a newer node
  }
}

}  // namespace pts::cluster
