#include "net/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <limits>
#include <map>
#include <utility>

#include "net/protocol.hpp"
#include "obs/metrics.hpp"
#include "parallel/transport.hpp"
#include "util/env.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace pts::net {

namespace {

Status errno_status(const char* what) {
  return Status::unavailable(std::string("net: ") + what + ": " +
                             std::strerror(errno));
}

bool is_peer_type(parallel::wire::MessageType type) {
  const auto byte = static_cast<std::uint8_t>(type);
  return byte >= static_cast<std::uint8_t>(
                     parallel::wire::MessageType::kPeerHello) &&
         byte <= static_cast<std::uint8_t>(
                     parallel::wire::MessageType::kPeerReplicateAck);
}

}  // namespace

/// Results the gateway delivered, for the loop to ship. Every completion
/// callback holds it as a weak_ptr. The loop polls `fd`; drain() and
/// stop() write it too.
struct Server::Inbox {
  struct Completion {
    std::uint64_t connection;
    std::uint64_t request_id;
    service::JobResult result;
  };

  Inbox() : fd(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {}
  ~Inbox() { ::close(fd); }
  void wake() const { (void)::eventfd_write(fd, 1); }

  const int fd;
  std::mutex mutex;
  std::vector<Completion> completions;  // guarded by mutex
};

/// Per-connection state, owned by the loop thread.
struct Server::Connection {
  Connection(std::uint64_t connection_id, int fd, std::uint64_t chaos_seed)
      : id(connection_id), socket(fd), chaos_rng(chaos_seed) {}

  const std::uint64_t id;
  parallel::FrameSocket socket;
  Rng chaos_rng;
  /// Accepted submissions whose result frame has not been queued yet:
  /// request_id -> the gateway-side job to cancel if the peer vanishes.
  std::map<std::uint64_t, service::JobId> pending;
  /// Frames the socket has not taken yet, oldest first; the first
  /// `tx_sent` bytes of the front one are already out.
  std::deque<std::vector<std::uint8_t>> tx;
  std::size_t tx_sent = 0;
  /// Sticky tenant tag: the last non-empty tenant this connection submitted
  /// under. Empty-tenant submissions inherit it, so a client can state its
  /// identity once and stay terse afterwards.
  service::TenantId tenant_tag;
  /// Restarts when a frame arrives and when a result ships: silence only
  /// counts once nothing is owed.
  Stopwatch idle;
  bool closed = false;  ///< dropped: no further reads or sends
};

Expected<std::unique_ptr<Server>> Server::start(service::JobGateway& gateway,
                                                ServerConfig config) {
  auto inbox = std::make_shared<Inbox>();
  if (inbox->fd < 0) return errno_status("eventfd");
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return errno_status("socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config.port);
  if (::inet_pton(AF_INET, config.bind_address.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::invalid_argument("net: bad bind address '" +
                                    config.bind_address + "'");
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    auto status = errno_status("bind");
    ::close(fd);
    return status;
  }
  if (::listen(fd, config.accept_backlog) != 0) {
    auto status = errno_status("listen");
    ::close(fd);
    return status;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) != 0) {
    auto status = errno_status("getsockname");
    ::close(fd);
    return status;
  }
  return std::unique_ptr<Server>(new Server(gateway, std::move(config), fd,
                                            ntohs(bound.sin_port),
                                            std::move(inbox)));
}

Server::Server(service::JobGateway& gateway, ServerConfig config, int listen_fd,
               std::uint16_t port, std::shared_ptr<Inbox> inbox)
    : gateway_(gateway),
      config_(std::move(config)),
      listen_fd_(listen_fd),
      port_(port),
      chaos_corrupt_ppm_(env_u32("PTS_CHAOS_NET_CORRUPT_PPM")),
      chaos_drop_ppm_(env_u32("PTS_CHAOS_NET_DROP_PPM")),
      inbox_(std::move(inbox)) {
  if (chaos_corrupt_ppm_ != 0 || chaos_drop_ppm_ != 0) {
    PTS_LOG_WARN("net: chaos enabled (corrupt_ppm=%u drop_ppm=%u)",
                 chaos_corrupt_ppm_, chaos_drop_ppm_);
  }
  loop_ = std::thread([this] { loop(); });
}

Server::~Server() { stop(); }

NetStats Server::stats() const {
  NetStats s;
  s.connections_accepted = connections_accepted_.load();
  s.connections_turned_away = connections_turned_away_.load();
  s.connections_reaped = connections_reaped_.load();
  s.submissions = submissions_.load();
  s.protocol_errors = protocol_errors_.load();
  s.disconnect_cancels = disconnect_cancels_.load();
  s.peer_frames = peer_frames_.load();
  s.chaos_injections = chaos_injections_.load();
  return s;
}

bool Server::drain(double timeout_seconds) {
  draining_.store(true, std::memory_order_release);
  inbox_->wake();
  std::unique_lock lock(drain_mutex_);
  drain_cv_.wait_for(lock, std::chrono::duration<double>(timeout_seconds),
                     [this] { return drained_ || loop_exited_; });
  return drained_;
}

void Server::stop() {
  if (stopped_.exchange(true)) return;
  inbox_->wake();
  if (loop_.joinable()) loop_.join();
}

void Server::loop() {
  std::vector<pollfd> fds;
  int wait_ms = -1;
  // A stopped server must not pick up a request after its stop, even one
  // whose bytes are already waiting.
  while (!stopped_.load(std::memory_order_acquire)) {
    fds.assign({{inbox_->fd, POLLIN, 0}, {listen_fd_, POLLIN, 0}});
    for (const auto& [id, conn] : connections_) {
      // Backpressure: a connection with unsent bytes is not read.
      const short events = conn.tx.empty() ? POLLIN : POLLOUT;
      fds.push_back({conn.socket.fd(), events, 0});
    }
    (void)::poll(fds.data(), fds.size(), wait_ms);
    if (stopped_.load(std::memory_order_acquire)) break;
    if (fds[0].revents != 0) ship_results();
    if (fds[1].revents != 0) accept_connection();
    // Nothing is erased before the sweep, and a new connection's id sorts
    // last: the first fds.size() - 2 entries are the polled ones, in order.
    auto conn = connections_.begin();
    for (std::size_t k = 2; k < fds.size(); ++k, ++conn) {
      if (fds[k].revents == 0) continue;
      if (fds[k].events == POLLOUT) flush(conn->second);  // a hang-up fails it
      read_frames(conn->second);  // with what was buffered while stalled
    }
    wait_ms = sweep_connections();
  }
  for (auto& [id, conn] : connections_) abandon_connection(conn);
  connections_.clear();
  ::close(listen_fd_);
  {
    std::scoped_lock lock(drain_mutex_);
    loop_exited_ = true;
  }
  drain_cv_.notify_all();
}

void Server::accept_connection() {
  const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
  if (fd < 0) {
    if (errno == EINTR || errno == EAGAIN || errno == ECONNABORTED) return;
    // Stop accepting: the loop skips a negative fd, and the connections
    // already accepted keep their service.
    PTS_LOG_ERROR("net: accept failed: %s", std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return;
  }
  configure_tcp_connection(fd);

  const bool over_cap = connections_.size() >= config_.max_connections;
  if (draining_.load(std::memory_order_acquire) || over_cap) {
    // Accept-then-refuse: the peer gets an explicit verdict instead of a
    // connection parked forever in the kernel backlog. A fresh socket's
    // buffer takes the frame whole.
    const auto goodbye = encode_goodbye(
        {over_cap ? "server at connection capacity" : "server is draining"});
    (void)::send(fd, goodbye.data(), goodbye.size(), MSG_DONTWAIT | MSG_NOSIGNAL);
    ::close(fd);
    connections_turned_away_.fetch_add(1);
    return;
  }

  const std::uint64_t id = connections_accepted_.fetch_add(1) + 1;
  std::uint64_t mix = id;
  connections_.try_emplace(id, id, fd,
                           splitmix64(mix) ^ static_cast<std::uint64_t>(fd));
  obs::metrics().counter("net_connections_total").add();
}

void Server::read_frames(Connection& conn) {
  while (!conn.closed && conn.tx.empty() &&
         !stopped_.load(std::memory_order_acquire)) {
    auto polled = conn.socket.poll_frame();
    if (!polled) {
      // kUnavailable = peer gone. kInvalidArgument is a malformed header —
      // a protocol error, same disconnect outcome.
      if (polled.status().code() == StatusCode::kInvalidArgument) {
        protocol_errors_.fetch_add(1);
        obs::metrics().counter("net_protocol_errors_total").add();
      }
      conn.closed = true;
      return;
    }
    if (!*polled) return;  // the rest is still in flight
    conn.idle.restart();
    if (chaos_drop_ppm_ != 0 &&
        conn.chaos_rng.next_below(1'000'000) < chaos_drop_ppm_) {
      chaos_injections_.fetch_add(1);
      PTS_LOG_WARN("net: chaos dropping connection");
      conn.closed = true;
      return;
    }
    if (!handle_frame(conn, **polled)) {
      protocol_errors_.fetch_add(1);
      obs::metrics().counter("net_protocol_errors_total").add();
      conn.closed = true;
      return;
    }
    ship_results();  // what submit() resolved follows its ack out now
  }
}

bool Server::handle_frame(Connection& conn, const parallel::wire::Frame& frame) {
  if (is_peer_type(frame.type)) {
    // The peer range exists only on servers fronting a cluster node; a
    // plain pts_serve treats it like any other out-of-place frame.
    if (config_.peer_handler == nullptr) return false;
    peer_frames_.fetch_add(1);
    auto replies = config_.peer_handler->on_peer_frame(frame.type, frame.payload);
    if (!replies) return false;
    for (auto& reply : *replies) send_frame(conn, std::move(reply));
    return true;
  }
  switch (frame.type) {
    case parallel::wire::MessageType::kSubmitJob:
      return handle_submit(conn, frame.payload);
    case parallel::wire::MessageType::kCancelJob: {
      auto cancel = decode_cancel_job(frame.payload);
      if (!cancel) return false;
      // Unknown / already-resolved ids are ignored by contract; the result
      // frame (kCancelled or the natural outcome) settles it.
      auto it = conn.pending.find(cancel->request_id);
      if (it != conn.pending.end()) (void)gateway_.cancel(it->second);
      return true;
    }
    default:
      return false;  // a client has no business sending any other type
  }
}

bool Server::handle_submit(Connection& conn,
                           std::span<const std::uint8_t> payload) {
  auto decoded = decode_submit_job(payload);
  if (!decoded) return false;
  SubmitJob m = std::move(*decoded);
  submissions_.fetch_add(1);
  obs::metrics().counter("net_submissions_total").add();

  SubmitAck ack;
  ack.request_id = m.request_id;
  if (draining_.load(std::memory_order_acquire)) {
    ack.status = Status::unavailable("server is draining; no new submissions");
    send_frame(conn, encode_submit_ack(ack));
    return true;
  }

  if (m.tenant.empty()) {
    m.tenant = conn.tenant_tag;
  } else {
    conn.tenant_tag = m.tenant;
  }

  service::SubmitRequest request;
  request.instance = std::make_shared<mkp::Instance>(std::move(m.instance));
  request.tenant = std::move(m.tenant);
  request.priority = m.priority;
  request.deadline_seconds = m.deadline_seconds;
  request.warm_start = m.warm_start;
  request.allow_dedup = m.allow_dedup;
  request.options = std::move(m.options);
  // Never the client's worker path: it names a binary on the client's
  // machine. Empty falls through to the server host's default discovery.
  request.options.proc.worker_path = config_.worker_path;

  // The gateway may call back before submit() returns and on any thread;
  // the callback only queues the result, and the loop ships it after the
  // ack below.
  const std::uint64_t request_id = m.request_id;
  auto ticket = gateway_.submit(
      std::move(request),
      [inbox = std::weak_ptr<Inbox>(inbox_), connection = conn.id,
       request_id](service::JobResult result) {
        const auto target = inbox.lock();
        if (!target) return;  // the server is gone
        {
          std::scoped_lock lock(target->mutex);
          target->completions.push_back(
              {connection, request_id, std::move(result)});
        }
        target->wake();
      });
  if (!ticket) {
    ack.status = ticket.status();
    send_frame(conn, encode_submit_ack(ack));
    return true;  // an admission failure is an answer, not a protocol error
  }

  ack.job_id = ticket->id;
  ack.content_hash = ticket->content_hash;
  ack.deduplicated = ticket->deduplicated;
  conn.pending.emplace(request_id, ticket->id);
  send_frame(conn, encode_submit_ack(ack));
  return true;
}

void Server::ship_results() {
  // Reset the signal before taking the inbox: a result queued after the
  // swap signals again, so the next poll wakes for it.
  eventfd_t signals = 0;
  (void)::eventfd_read(inbox_->fd, &signals);
  std::vector<Inbox::Completion> done;
  {
    std::scoped_lock lock(inbox_->mutex);
    done.swap(inbox_->completions);
  }
  for (auto& [connection, request_id, result] : done) {
    auto it = connections_.find(connection);
    if (it == connections_.end()) continue;  // the peer vanished: dropped
    Connection& conn = it->second;
    // Stream the anytime curve in bounded chunks, then the terminal frame.
    for (std::size_t offset = 0; offset < result.anytime.size();
         offset += kMaxAnytimeSamplesPerEvent) {
      JobEvent event;
      event.request_id = request_id;
      const std::size_t end = std::min(result.anytime.size(),
                                       offset + kMaxAnytimeSamplesPerEvent);
      event.anytime.assign(result.anytime.begin() + offset,
                           result.anytime.begin() + end);
      send_frame(conn, encode_job_event(event));
    }
    JobResultFrame terminal;
    terminal.request_id = request_id;
    terminal.status = result.status;
    terminal.origin = result.origin;
    terminal.best_value = result.best_value;
    terminal.best = std::move(result.best);
    terminal.total_moves = result.total_moves;
    terminal.reached_target = result.reached_target;
    terminal.slave_faults = result.slave_faults;
    terminal.queue_seconds = result.queue_seconds;
    terminal.run_seconds = result.run_seconds;
    terminal.start_sequence = result.start_sequence;
    terminal.tenant = std::move(result.tenant);
    terminal.content_hash = result.content_hash;
    terminal.deduplicated = result.deduplicated;
    terminal.warm_started = result.warm_started;
    send_frame(conn, encode_job_result(terminal));
    conn.pending.erase(request_id);
    conn.idle.restart();
  }
}

int Server::sweep_connections() {
  const bool draining = draining_.load(std::memory_order_acquire);
  const bool say_goodbye = draining && !std::exchange(goodbye_sent_, true);
  const double timeout = config_.idle_timeout_seconds;
  double wait = std::numeric_limits<double>::infinity();
  bool owed = false;
  for (auto it = connections_.begin(); it != connections_.end();) {
    Connection& conn = it->second;
    if (say_goodbye) send_frame(conn, encode_goodbye({"server is draining"}));
    // Never reap a connection that is owed a result: a client blocked in
    // wait() is legitimately silent for the whole solve.
    if (!conn.closed && timeout > 0 && conn.pending.empty()) {
      const double silent = conn.idle.elapsed_seconds();
      if (silent >= timeout) {
        connections_reaped_.fetch_add(1);
        obs::metrics().counter("net_idle_reaps_total").add();
        PTS_LOG_WARN("net: reaping idle connection (%.1fs silent)", silent);
        conn.closed = true;
      } else {
        wait = std::min(wait, timeout - silent);
      }
    }
    if (conn.closed) {
      abandon_connection(conn);
      it = connections_.erase(it);
      continue;
    }
    owed = owed || !conn.pending.empty() || !conn.tx.empty();
    ++it;
  }
  if (draining) {
    {
      std::scoped_lock lock(drain_mutex_);
      drained_ = !owed;
    }
    if (!owed) drain_cv_.notify_all();
  }
  // Capped at a day so the milliseconds fit an int; a later wake re-sweeps.
  return std::isinf(wait) ? -1
                          : static_cast<int>(std::ceil(std::min(wait, 86400.0) * 1000.0));
}

void Server::abandon_connection(Connection& conn) {
  const bool stopping = stopped_.load(std::memory_order_acquire);
  for (const auto& [request_id, job_id] : conn.pending) {
    // Cancel exactly this connection's stake: on a deduplicated solve the
    // service detaches one waiter and the run continues for everyone else.
    if (gateway_.cancel(job_id) && !stopping) {
      disconnect_cancels_.fetch_add(1);
      obs::metrics().counter("net_disconnect_cancels_total").add();
    }
  }
  conn.pending.clear();
  conn.closed = true;
}

void Server::send_frame(Connection& conn, std::vector<std::uint8_t> frame) {
  if (conn.closed) return;
  if (chaos_corrupt_ppm_ != 0 &&
      conn.chaos_rng.next_below(1'000'000) < chaos_corrupt_ppm_) {
    // Prefer flipping a payload byte (exercises the payload decoders);
    // header-only frames get their header flipped instead.
    const std::size_t lo =
        frame.size() > parallel::wire::kHeaderBytes ? parallel::wire::kHeaderBytes : 0;
    const std::size_t index = lo + conn.chaos_rng.index(frame.size() - lo);
    frame[index] ^= static_cast<std::uint8_t>(1u << conn.chaos_rng.index(8));
    chaos_injections_.fetch_add(1);
    obs::metrics().counter("net_chaos_injections_total").add();
  }
  conn.tx.push_back(std::move(frame));
  if (conn.tx.size() == 1) flush(conn);
}

void Server::flush(Connection& conn) {
  while (!conn.closed && !conn.tx.empty()) {
    const auto& front = conn.tx.front();
    // MSG_NOSIGNAL: a vanished peer surfaces as EPIPE, not as SIGPIPE.
    const ssize_t n = ::send(conn.socket.fd(), front.data() + conn.tx_sent,
                             front.size() - conn.tx_sent,
                             MSG_DONTWAIT | MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) conn.closed = true;
      return;
    }
    conn.tx_sent += static_cast<std::size_t>(n);
    if (conn.tx_sent < front.size()) return;  // full: wait for POLLOUT
    conn.tx.pop_front();
    conn.tx_sent = 0;
  }
}

}  // namespace pts::net
