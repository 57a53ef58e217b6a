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
#include <cstring>
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

/// Per-connection state. The reader thread owns the socket's read side and
/// sends every frame but drain()'s Goodbye; `write_mutex` serializes the
/// two, plus the chaos RNG it feeds. `pending` and `outbox` are shared with
/// the gateway's completion callbacks and drain() under `mutex`.
struct Server::Connection {
  Connection(int fd, std::uint64_t chaos_seed)
      : socket(fd),
        wake_fd(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)),
        chaos_rng(chaos_seed) {}
  ~Connection() { ::close(wake_fd); }

  /// Ends the reader's current wait (a result landed, or stop()).
  void wake() const { (void)::eventfd_write(wake_fd, 1); }

  parallel::FrameSocket socket;
  /// eventfd the reader polls next to the socket. Should it fail to open,
  /// poll() skips the -1 and results still ship within one wait slice.
  const int wake_fd;

  std::mutex write_mutex;
  Rng chaos_rng;  // guarded by write_mutex

  std::mutex mutex;
  /// Accepted submissions whose result frame has not shipped yet:
  /// request_id -> the gateway-side job to cancel if the peer vanishes.
  std::map<std::uint64_t, service::JobId> pending;
  /// Results the gateway delivered, in arrival order, for the reader to ship.
  std::vector<std::pair<std::uint64_t, service::JobResult>> outbox;
  /// Sticky tenant tag: the last non-empty tenant this connection submitted
  /// under. Empty-tenant submissions inherit it, so a client can state its
  /// identity once and stay terse afterwards.
  service::TenantId tenant_tag;

  std::atomic<bool> closed{false};       ///< no further sends
  std::atomic<bool> reader_done{false};  ///< reader exited

  std::thread reader;  // joined by accept-loop reap or stop()
};

Expected<std::unique_ptr<Server>> Server::start(service::JobGateway& gateway,
                                                ServerConfig config) {
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
  return std::unique_ptr<Server>(
      new Server(gateway, std::move(config), fd, ntohs(bound.sin_port)));
}

Server::Server(service::JobGateway& gateway, ServerConfig config, int listen_fd,
               std::uint16_t port)
    : gateway_(gateway),
      config_(std::move(config)),
      listen_fd_(listen_fd),
      port_(port),
      chaos_corrupt_ppm_(env_u32("PTS_CHAOS_NET_CORRUPT_PPM")),
      chaos_drop_ppm_(env_u32("PTS_CHAOS_NET_DROP_PPM")) {
  if (chaos_corrupt_ppm_ != 0 || chaos_drop_ppm_ != 0) {
    PTS_LOG_WARN("net: chaos enabled (corrupt_ppm=%u drop_ppm=%u)",
                 chaos_corrupt_ppm_, chaos_drop_ppm_);
  }
  acceptor_ = std::thread([this] { accept_loop(); });
}

Server::~Server() { stop(); }

std::size_t Server::active_connections() const {
  std::scoped_lock lock(connections_mutex_);
  std::size_t live = 0;
  for (const auto& conn : connections_) {
    if (!conn->reader_done.load(std::memory_order_acquire)) ++live;
  }
  return live;
}

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

std::size_t Server::outstanding_submissions() const {
  std::vector<std::shared_ptr<Connection>> conns;
  {
    std::scoped_lock lock(connections_mutex_);
    conns = connections_;
  }
  std::size_t outstanding = 0;
  for (const auto& conn : conns) {
    std::scoped_lock lock(conn->mutex);
    outstanding += conn->pending.size();
  }
  return outstanding;
}

bool Server::drain(double timeout_seconds) {
  draining_.store(true, std::memory_order_release);
  std::vector<std::shared_ptr<Connection>> conns;
  {
    std::scoped_lock lock(connections_mutex_);
    conns = connections_;
  }
  for (const auto& conn : conns) {
    if (!conn->reader_done.load(std::memory_order_acquire)) {
      send_frame(conn, encode_goodbye({"server is draining"}));
    }
  }
  const Deadline deadline = Deadline::after_seconds(timeout_seconds);
  while (outstanding_submissions() != 0) {
    if (deadline.expired()) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return true;
}

void Server::stop() {
  if (stopped_.exchange(true)) return;
  draining_.store(true, std::memory_order_release);
  stop_source_.request_cancel();
  if (acceptor_.joinable()) acceptor_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  std::vector<std::shared_ptr<Connection>> conns;
  {
    std::scoped_lock lock(connections_mutex_);
    conns.swap(connections_);
  }
  // Each woken reader sees the cancelled token, cancels its outstanding
  // submissions and exits; results the gateway delivers later find the
  // connection closed and are dropped.
  for (const auto& conn : conns) conn->wake();
  for (const auto& conn : conns) {
    if (conn->reader.joinable()) conn->reader.join();
  }
}

void Server::accept_loop() {
  const CancelToken stop = stop_source_.token();
  std::uint64_t accept_seq = 0;
  while (!stop.cancel_requested()) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (stop.cancel_requested()) break;
    if (rc <= 0) continue;
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == ECONNABORTED) continue;
      PTS_LOG_ERROR("net: accept failed: %s", std::strerror(errno));
      break;
    }
    ++accept_seq;
    // Kernel-level liveness probing backs up the application-level idle
    // reap: a peer that is gone (not merely quiet) eventually errors the fd.
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_KEEPALIVE, &one, sizeof(one));

    // Reap connections whose reader finished, so a long-lived server does
    // not accrete dead Connection records.
    {
      std::scoped_lock lock(connections_mutex_);
      std::erase_if(connections_, [](const std::shared_ptr<Connection>& conn) {
        if (!conn->reader_done.load(std::memory_order_acquire)) return false;
        if (conn->reader.joinable()) conn->reader.join();
        return true;
      });
    }

    const bool over_cap = active_connections() >= config_.max_connections;
    if (draining_.load(std::memory_order_acquire) || over_cap) {
      // Accept-then-refuse: the peer gets an explicit verdict instead of a
      // connection parked forever in the kernel backlog.
      parallel::FrameSocket refused(fd);
      (void)refused.send_frame(encode_goodbye(
          {over_cap ? "server at connection capacity" : "server is draining"}));
      connections_turned_away_.fetch_add(1);
      continue;
    }

    std::uint64_t mix = accept_seq;
    auto conn = std::make_shared<Connection>(
        fd, splitmix64(mix) ^ static_cast<std::uint64_t>(fd));
    connections_accepted_.fetch_add(1);
    obs::metrics().counter("net_connections_total").add();
    {
      std::scoped_lock lock(connections_mutex_);
      connections_.push_back(conn);
    }
    conn->reader = std::thread([this, conn] { reader_loop(conn); });
  }
}

void Server::reader_loop(const std::shared_ptr<Connection>& conn) {
  const CancelToken stop = stop_source_.token();
  // Waits for bytes or results run in bounded slices so a byte-silent peer
  // cannot park this thread forever: each slice re-checks the idle clock.
  // The slice is a quarter of the timeout (capped) so short test timeouts
  // stay responsive without spinning production readers.
  const double idle_timeout = config_.idle_timeout_seconds;
  const int slice_ms =
      idle_timeout > 0 ? std::clamp(static_cast<int>(idle_timeout * 250.0), 1, 100)
                       : 100;
  Stopwatch idle;
  // A fired token wins even over bytes already waiting: a stopped server
  // must not pick up a request after its stop.
  while (!stop.cancel_requested()) {
    // Silence only counts once nothing is owed: the clock restarts when the
    // last result ships, as it does when a frame arrives.
    if (ship_results(conn)) idle.restart();
    auto polled = conn->socket.poll_frame();
    if (!polled) {
      // kUnavailable = peer gone. kInvalidArgument is a malformed header —
      // a protocol error, same disconnect outcome.
      if (polled.status().code() == StatusCode::kInvalidArgument) {
        protocol_errors_.fetch_add(1);
        obs::metrics().counter("net_protocol_errors_total").add();
      }
      break;
    }
    if (!*polled) {
      if (idle_timeout > 0 && idle.elapsed_seconds() >= idle_timeout) {
        bool quiescent;
        {
          std::scoped_lock lock(conn->mutex);
          quiescent = conn->pending.empty();
        }
        // Never reap a connection that is owed a result: a client blocked
        // in wait() is legitimately silent for the whole solve.
        if (quiescent) {
          connections_reaped_.fetch_add(1);
          obs::metrics().counter("net_idle_reaps_total").add();
          PTS_LOG_WARN("net: reaping idle connection (%.1fs silent)",
                       idle.elapsed_seconds());
          break;
        }
      }
      pollfd fds[2] = {{conn->socket.fd(), POLLIN, 0},
                       {conn->wake_fd, POLLIN, 0}};
      (void)::poll(fds, 2, slice_ms);
      continue;
    }
    const parallel::wire::Frame& frame = **polled;
    idle.restart();
    if (chaos_drop_ppm_ != 0) {
      std::scoped_lock lock(conn->write_mutex);
      if (conn->chaos_rng.next_below(1'000'000) < chaos_drop_ppm_) {
        chaos_injections_.fetch_add(1);
        PTS_LOG_WARN("net: chaos dropping connection");
        break;
      }
    }
    bool ok = false;
    if (is_peer_type(frame.type)) {
      // The peer range exists only on servers fronting a cluster node; a
      // plain pts_serve treats it like any other out-of-place frame.
      if (config_.peer_handler != nullptr) {
        peer_frames_.fetch_add(1);
        auto replies =
            config_.peer_handler->on_peer_frame(frame.type, frame.payload);
        if (replies) {
          for (auto& reply : *replies) send_frame(conn, std::move(reply));
          ok = true;
        }
      }
    } else {
      switch (frame.type) {
        case parallel::wire::MessageType::kSubmitJob:
          ok = handle_submit(conn, frame.payload);
          break;
        case parallel::wire::MessageType::kCancelJob: {
          auto cancel = decode_cancel_job(frame.payload);
          if (cancel) {
            service::JobId id = 0;
            {
              std::scoped_lock lock(conn->mutex);
              auto it = conn->pending.find(cancel->request_id);
              if (it != conn->pending.end()) id = it->second;
            }
            // Unknown / already-resolved ids are ignored by contract; the
            // result frame (kCancelled or the natural outcome) settles it.
            if (id != 0) (void)gateway_.cancel(id);
            ok = true;
          }
          break;
        }
        default:
          break;  // a client has no business sending any other type
      }
    }
    if (!ok) {
      protocol_errors_.fetch_add(1);
      obs::metrics().counter("net_protocol_errors_total").add();
      break;
    }
  }
  abandon_connection(conn);
  conn->reader_done.store(true, std::memory_order_release);
}

bool Server::handle_submit(const std::shared_ptr<Connection>& conn,
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

  {
    std::scoped_lock lock(conn->mutex);
    if (m.tenant.empty()) {
      m.tenant = conn->tenant_tag;
    } else {
      conn->tenant_tag = m.tenant;
    }
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
  // the callback only queues the result for this connection's reader, which
  // sends it after the ack below.
  const std::uint64_t request_id = m.request_id;
  auto ticket = gateway_.submit(
      std::move(request),
      [weak = std::weak_ptr<Connection>(conn),
       request_id](service::JobResult result) {
        const auto target = weak.lock();
        if (!target || target->closed.load(std::memory_order_acquire)) return;
        {
          std::scoped_lock lock(target->mutex);
          target->outbox.emplace_back(request_id, std::move(result));
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
  {
    std::scoped_lock lock(conn->mutex);
    conn->pending.emplace(request_id, ticket->id);
  }
  send_frame(conn, encode_submit_ack(ack));
  return true;
}

bool Server::ship_results(const std::shared_ptr<Connection>& conn) {
  // Reset the signal before taking the outbox: a result queued after the
  // swap signals again, so the next poll wakes for it.
  eventfd_t signals = 0;
  (void)::eventfd_read(conn->wake_fd, &signals);
  std::vector<std::pair<std::uint64_t, service::JobResult>> done;
  {
    std::scoped_lock lock(conn->mutex);
    done.swap(conn->outbox);
  }
  for (auto& [request_id, result] : done) {
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
    // Retired only once shipped: drain() waits on `pending`.
    std::scoped_lock lock(conn->mutex);
    conn->pending.erase(request_id);
  }
  return !done.empty();
}

void Server::abandon_connection(const std::shared_ptr<Connection>& conn) {
  std::vector<service::JobId> orphans;
  {
    std::scoped_lock lock(conn->mutex);
    orphans.reserve(conn->pending.size());
    for (const auto& [request_id, job_id] : conn->pending) {
      orphans.push_back(job_id);
    }
    conn->pending.clear();
  }
  conn->closed.store(true, std::memory_order_release);
  const bool stopping = stop_source_.token().cancel_requested();
  for (const auto id : orphans) {
    // Cancel exactly this connection's stake: on a deduplicated solve the
    // service detaches one waiter and the run continues for everyone else.
    if (gateway_.cancel(id) && !stopping) {
      disconnect_cancels_.fetch_add(1);
      obs::metrics().counter("net_disconnect_cancels_total").add();
    }
  }
  // Wake anything blocked on the fd; the fd itself stays allocated until the
  // Connection (and with it the FrameSocket) is destroyed, so concurrent
  // sends cannot race a reused descriptor.
  if (conn->socket.valid()) ::shutdown(conn->socket.fd(), SHUT_RDWR);
}

void Server::send_frame(const std::shared_ptr<Connection>& conn,
                        std::vector<std::uint8_t> frame) {
  std::scoped_lock lock(conn->write_mutex);
  if (conn->closed.load(std::memory_order_acquire)) return;
  if (chaos_corrupt_ppm_ != 0 &&
      conn->chaos_rng.next_below(1'000'000) < chaos_corrupt_ppm_) {
    // Prefer flipping a payload byte (exercises the payload decoders);
    // header-only frames get their header flipped instead.
    const std::size_t lo =
        frame.size() > parallel::wire::kHeaderBytes ? parallel::wire::kHeaderBytes : 0;
    const std::size_t index = lo + conn->chaos_rng.index(frame.size() - lo);
    frame[index] ^= static_cast<std::uint8_t>(1u << conn->chaos_rng.index(8));
    chaos_injections_.fetch_add(1);
    obs::metrics().counter("net_chaos_injections_total").add();
  }
  if (!conn->socket.send_frame(frame).ok()) {
    conn->closed.store(true, std::memory_order_release);
  }
}

}  // namespace pts::net
