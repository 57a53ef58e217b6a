#pragma once
// Network front-end of the solver service (DESIGN.md §10): a TCP listener
// that turns every accepted connection into a FrameSocket speaking the
// client range of the wire protocol (net/protocol.hpp) and bridges it onto
// a service::JobGateway — the in-process SolverService for pts_serve, or
// the cluster coordinator (cluster/coordinator.hpp) for pts_cluster, which
// shards the same submissions across peer nodes (DESIGN.md §11).
//
// Threading model. One loop thread per Server polls the listen socket, one
// eventfd and every connection; it accepts, handles every frame inline (the
// gateway's submit and cancel and the PeerHandler run on it) and alone
// sends. An accepted submission's completion callback queues its result on
// the server's inbox and writes the eventfd; it holds the inbox as a
// weak_ptr, so one that fires inside submit() or after stop() only queues.
// The loop ships the inbox after the ack it sent from the submit, so a
// request's ack always precedes its events and result. Each frame goes out
// with one non-blocking send; what the socket does not take waits on the
// connection's tx queue, and until it drains the connection is polled for
// writability only and not read: a peer that stops reading stalls only
// itself, and what it is owed stops growing once its socket is full. The
// gateway calls every accepted submission's callback exactly once, so
// every owed result ships and drain() terminates.
//
// Disconnect semantics. A connection that hits EOF, a socket error or a
// malformed frame cancels exactly the waiters it created (gateway cancel per
// outstanding submission): a deduplicated solve shared with other
// connections keeps running for them — the vanished peer loses only its own
// stake. Results that arrive after the disconnect find the connection gone
// and are dropped.
//
// Half-open reaping. Accepted sockets run with TCP keepalive (and
// TCP_NODELAY; net/protocol.hpp), and a connection that stays byte-silent for
// ServerConfig::idle_timeout_seconds with NO outstanding submissions is
// reaped (a client blocked in wait() has outstanding work, so it is never
// reaped while a result is owed — and cluster peer links ping well inside
// any sane timeout). The loop sleeps until the nearest reap deadline. This
// is what keeps a dead NAT entry or a kill -9'd client from pinning a
// connection slot forever.
//
// Drain. drain(timeout) stops accepting, has the loop send every client a
// Goodbye frame, and waits up to the timeout for outstanding submissions to
// resolve and their frames to leave. stop() then (or directly, for an
// immediate shutdown) has the loop cancel whatever is still outstanding and
// close every connection, and joins it; it does not wait for the gateway to
// resolve those cancels. Jobs the service journals stay open across a
// cancel-by-shutdown, so a pts_serve restarted with the same --journal
// re-enqueues them (DESIGN.md §9).
//
// Chaos. Two env knobs extend the PTS_CHAOS_* family across the client
// boundary, exercised by tests/net/:
//
//   PTS_CHAOS_NET_CORRUPT_PPM  flip one byte of an outbound frame with this
//                              per-frame probability (parts per million)
//   PTS_CHAOS_NET_DROP_PPM     per inbound frame, drop the connection as if
//                              the peer vanished mid-conversation

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "parallel/wire.hpp"
#include "service/gateway.hpp"
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
  /// protocol error: the server drops the connection. Called on the
  /// server's loop thread, which serves every connection, so a slow handler
  /// stalls the whole front door (PTS_CHAOS_NODE_STALL_MS does this on
  /// purpose: a stalled node). Implementations synchronize their own state.
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
  /// reaping off.
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
  /// Binds, listens (port() is final on return) and starts the loop.
  /// The gateway must outlive the Server.
  [[nodiscard]] static Expected<std::unique_ptr<Server>> start(
      service::JobGateway& gateway, ServerConfig config);

  ~Server();  ///< stop()

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] NetStats stats() const;

  /// Graceful wind-down: stops accepting, sends Goodbye to every client,
  /// waits up to `timeout_seconds` for outstanding submissions to resolve
  /// and ship their results. Returns true when everything drained in time.
  bool drain(double timeout_seconds);

  /// Stops accepting, cancels every outstanding submission, closes all
  /// connections and joins the loop. Idempotent; the destructor calls it.
  void stop();

 private:
  struct Connection;
  struct Inbox;

  Server(service::JobGateway& gateway, ServerConfig config, int listen_fd,
         std::uint16_t port, std::shared_ptr<Inbox> inbox);

  // Everything below runs on the loop thread.
  void loop();
  void accept_connection();
  /// Handles whole frames while nothing is left unsent; an error closes.
  void read_frames(Connection& conn);
  /// Both return false on a protocol error (an admission failure is
  /// answered with a non-OK ack).
  bool handle_frame(Connection& conn, const parallel::wire::Frame& frame);
  bool handle_submit(Connection& conn, std::span<const std::uint8_t> payload);
  /// Sends each inbox result (anytime chunks, then the terminal frame).
  void ship_results();
  /// Drops closed and idle connections and, once draining, says Goodbye
  /// (once) and tells drain() whether anything is still owed. Returns the
  /// poll timeout in ms to the nearest reap deadline (-1: none).
  int sweep_connections();
  /// Cancels every submission the connection still has outstanding
  /// (disconnect => waiter cancel) and marks it closed.
  void abandon_connection(Connection& conn);
  /// Queues one frame (after the corrupt-chaos knob); sends it at once if
  /// nothing is queued ahead of it.
  void send_frame(Connection& conn, std::vector<std::uint8_t> frame);
  /// Sends queued frames until the socket is full; a send error closes.
  void flush(Connection& conn);

  service::JobGateway& gateway_;
  ServerConfig config_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::uint32_t chaos_corrupt_ppm_ = 0;
  std::uint32_t chaos_drop_ppm_ = 0;
  const std::shared_ptr<Inbox> inbox_;
  std::atomic<bool> draining_{false};
  std::atomic<bool> stopped_{false};

  // Loop thread only.
  std::map<std::uint64_t, Connection> connections_;
  bool goodbye_sent_ = false;

  std::mutex drain_mutex_;
  std::condition_variable drain_cv_;
  bool drained_ = false;      ///< guarded by drain_mutex_
  bool loop_exited_ = false;  ///< guarded by drain_mutex_

  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> connections_turned_away_{0};
  std::atomic<std::uint64_t> connections_reaped_{0};
  std::atomic<std::uint64_t> submissions_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> disconnect_cancels_{0};
  std::atomic<std::uint64_t> peer_frames_{0};
  std::atomic<std::uint64_t> chaos_injections_{0};

  std::thread loop_;  // started last, joined by stop()
};

}  // namespace pts::net
