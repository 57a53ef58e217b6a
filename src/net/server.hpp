#pragma once
// Network front-end of the solver service (DESIGN.md §10): a TCP listener
// that turns every accepted connection into a FrameSocket speaking the
// client range of the wire protocol (net/protocol.hpp) and bridges it onto
// a service::JobGateway — the in-process SolverService for pts_serve, or
// the cluster coordinator (cluster/coordinator.hpp) for pts_cluster, which
// shards the same submissions across peer nodes (DESIGN.md §11).
//
// Threading model. One accept thread and one reader thread per connection;
// no thread per submission. Each accepted submission hands the gateway a
// completion callback that queues the JobResult on its connection's outbox
// and signals the connection's eventfd (it holds the connection only as a
// weak_ptr). The reader polls the socket and the eventfd together, and it
// alone sends SubmitAck, JobEvent and JobResult frames, so a request's ack
// always precedes its events and result. The gateway calls every accepted
// submission's callback exactly once, so every owed result ships and
// drain() terminates.
//
// Disconnect semantics. A connection that hits EOF, a socket error or a
// malformed frame cancels exactly the waiters it created (gateway cancel per
// outstanding submission): a deduplicated solve shared with other
// connections keeps running for them — the vanished peer loses only its own
// stake. Results that arrive after the disconnect find the connection
// closed (or gone) and are dropped, never blocked on.
//
// Half-open reaping. Readers never block forever on a silent peer: accepted
// sockets run with TCP keepalive, and a connection that stays byte-silent
// for ServerConfig::idle_timeout_seconds with NO outstanding submissions is
// reaped (a client blocked in wait() has outstanding work, so it is never
// reaped while a result is owed — and cluster peer links ping well inside
// any sane timeout). This is what keeps a dead NAT entry or a kill -9'd
// client from pinning a reader thread and a connection slot forever.
//
// Drain. drain(timeout) stops accepting, sends every connected client a
// Goodbye frame, and waits up to the timeout for outstanding submissions to
// resolve and ship. stop() then (or directly, for an immediate shutdown)
// cancels whatever is still outstanding and joins every thread; it does not
// wait for the gateway to resolve those cancels. Jobs the service journals
// stay open across a cancel-by-shutdown, so a pts_serve restarted with the
// same --journal re-enqueues them (DESIGN.md §9).
//
// Chaos. Two env knobs extend the PTS_CHAOS_* family across the client
// boundary, exercised by tests/net/:
//
//   PTS_CHAOS_NET_CORRUPT_PPM  flip one byte of an outbound frame with this
//                              per-frame probability (parts per million)
//   PTS_CHAOS_NET_DROP_PPM     per inbound frame, drop the connection as if
//                              the peer vanished mid-conversation

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "parallel/wire.hpp"
#include "service/gateway.hpp"
#include "util/cancel.hpp"
#include "util/status.hpp"

namespace pts::net {

/// Server-side handler for the cluster peer range (kPeerHello..
/// kPeerReplicateAck). Installed via ServerConfig::peer_handler; a server
/// without one treats peer frames as protocol errors (the connection is
/// dropped). cluster::WorkerNode implements it (DESIGN.md §11).
class PeerHandler {
 public:
  virtual ~PeerHandler() = default;

  /// Handles one inbound peer frame; returned frames are sent back on the
  /// same connection, in order (an empty vector is a valid answer — e.g. a
  /// partition-chaos window swallowing a ping). A non-OK status is a
  /// protocol error: the server drops the connection. Called from the
  /// connection's reader thread; implementations synchronize their own
  /// state.
  [[nodiscard]] virtual Expected<std::vector<std::vector<std::uint8_t>>>
  on_peer_frame(parallel::wire::MessageType type,
                std::span<const std::uint8_t> payload) = 0;
};

struct ServerConfig {
  /// Interface to bind. Keep the loopback default unless you mean to expose
  /// the service: the protocol has no authentication layer yet.
  std::string bind_address = "127.0.0.1";
  /// 0 = ephemeral; the bound port is Server::port() either way.
  std::uint16_t port = 0;
  /// listen(2) backlog: connections the kernel may hold un-accepted.
  int accept_backlog = 16;
  /// Connections served concurrently; one past the cap is accepted, told
  /// Goodbye ("at capacity") and closed, so the peer gets a verdict instead
  /// of a kernel-queue stall.
  std::size_t max_connections = 64;
  /// pts_worker binary for proc-backend submissions. Applied to EVERY
  /// submission (a client-sent worker path names a binary on the wrong
  /// machine — never trusted). Empty = the server host's default discovery
  /// (parallel::default_worker_path()).
  std::string worker_path;
  /// Reap a connection that has been byte-silent this long with no
  /// outstanding submissions (half-open peer, dead NAT entry, vanished
  /// client). A connection that is owed a result is never reaped. 0 turns
  /// reaping off (readers still honour stop()).
  double idle_timeout_seconds = 300.0;
  /// Non-null: this server answers cluster peer frames through the handler
  /// (it is a worker node's front door). Null: peer frames are protocol
  /// errors. The handler must outlive the Server.
  PeerHandler* peer_handler = nullptr;
};

/// Monotone counters for tests and ops; net_* metrics mirror them.
struct NetStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_turned_away = 0;  ///< over max_connections
  std::uint64_t connections_reaped = 0;       ///< idle-timeout reaps
  std::uint64_t submissions = 0;              ///< SubmitJob frames admitted to submit()
  std::uint64_t protocol_errors = 0;          ///< malformed/unexpected frames
  std::uint64_t disconnect_cancels = 0;       ///< waiters cancelled by a vanish
  std::uint64_t peer_frames = 0;              ///< frames routed to the PeerHandler
  std::uint64_t chaos_injections = 0;         ///< PTS_CHAOS_NET_* activations
};

class Server {
 public:
  /// Binds, listens (port() is final on return) and starts accepting.
  /// The gateway must outlive the Server.
  [[nodiscard]] static Expected<std::unique_ptr<Server>> start(
      service::JobGateway& gateway, ServerConfig config);

  ~Server();  ///< stop()

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] std::size_t active_connections() const;
  [[nodiscard]] NetStats stats() const;

  /// Graceful wind-down: stops accepting, sends Goodbye to every client,
  /// waits up to `timeout_seconds` for outstanding submissions to resolve
  /// and ship their results. Returns true when everything drained in time.
  bool drain(double timeout_seconds);

  /// Stops accepting, cancels every outstanding submission, closes all
  /// connections and joins every thread. Idempotent; the destructor calls it.
  void stop();

 private:
  struct Connection;

  Server(service::JobGateway& gateway, ServerConfig config, int listen_fd,
         std::uint16_t port);

  void accept_loop();
  void reader_loop(const std::shared_ptr<Connection>& conn);
  /// Returns false on an undecodable submission (the reader drops the
  /// connection); admission failures are answered with a non-OK ack.
  bool handle_submit(const std::shared_ptr<Connection>& conn,
                     std::span<const std::uint8_t> payload);
  /// Sends every result queued on the outbox (anytime chunks, then the
  /// terminal frame) and retires its pending entry. Returns whether any
  /// shipped. Reader thread only.
  bool ship_results(const std::shared_ptr<Connection>& conn);
  /// Cancels every submission the connection still has outstanding
  /// (disconnect => waiter cancel) and marks it closed.
  void abandon_connection(const std::shared_ptr<Connection>& conn);
  /// Sends one frame under the connection's write lock, applying the
  /// corrupt-chaos knob. A failed send marks the connection closed.
  void send_frame(const std::shared_ptr<Connection>& conn,
                  std::vector<std::uint8_t> frame);
  std::size_t outstanding_submissions() const;

  service::JobGateway& gateway_;
  ServerConfig config_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  CancelSource stop_source_;  ///< fires in stop(): unblocks every reader
  std::atomic<bool> draining_{false};
  std::atomic<bool> stopped_{false};
  std::uint32_t chaos_corrupt_ppm_ = 0;
  std::uint32_t chaos_drop_ppm_ = 0;

  mutable std::mutex connections_mutex_;
  std::vector<std::shared_ptr<Connection>> connections_;

  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> connections_turned_away_{0};
  std::atomic<std::uint64_t> connections_reaped_{0};
  std::atomic<std::uint64_t> submissions_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> disconnect_cancels_{0};
  std::atomic<std::uint64_t> peer_frames_{0};
  std::atomic<std::uint64_t> chaos_injections_{0};

  std::thread acceptor_;  // started last, joined by stop()
};

}  // namespace pts::net
