#pragma once
// Cluster coordinator (DESIGN.md §11): the node that owns client-facing job
// identity and shards the work across worker nodes. It implements
// service::JobGateway, so the SAME net::Server that fronts a single
// SolverService in pts_serve fronts a whole cluster in pts_cluster — clients
// keep the exact pts_client protocol and cannot tell the difference.
//
// Ownership and identity. Every accepted submission gets a coordinator-side
// JobId and a completion callback the coordinator calls exactly once —
// through node death, resubmission, cancel, deadline and shutdown. It calls
// it under its own mutex (from a submitter or the tick thread), which the
// JobGateway contract allows. Waiters, dedup, cancel, deadlines and the
// journal live in a service::JobTable, the same book SolverService keeps, so
// both gateways share one dedup rule: content hash, solve-shape options,
// then the canonical instance bytes, tenants not included. Identical
// submissions coalesce into one ClusterJob with many waiters: ONE remote
// solve, every waiter answered from its result. A request with
// allow_dedup=false never attaches to an existing job.
//
// Threading. One thread, the tick thread, owns every peer link: it dials,
// polls all peer sockets at once and handles each frame inline under the
// mutex, the way ProcSupervisor's master polls its worker links. Between
// 20 ms ticks (heartbeat, replication, dispatch, deadline sweep) it waits in
// that poll. Dials are non-blocking and their completion is one more event
// in the poll, so neither a connect that hangs nor a peer that never
// answers its handshake holds up anyone.
//
// Failover. Peer liveness is heartbeat-based (PeerPing every interval; a
// node that misses `heartbeat_misses` intervals is declared dead — kill -9,
// partition and stall-past-budget all look identical from here). A dead
// node's in-flight ClusterJobs return to the pending queue and are
// redispatched to a surviving node after a jittered exponential backoff,
// at-most-once per failure (`attempts` is bumped per failover, never per
// waiter; a coalesced job resubmits as ONE remote solve no matter how many
// waiters ride it). A job that exhausts `max_resubmits` resolves every
// waiter kUnavailable. The engine is deterministic, so a resubmitted job
// reproduces the trajectory the dead node was computing — failover costs
// wall-clock, never result quality.
//
// Replication. The coordinator journals every waiter to its own PTSJ job
// journal (crash safety for itself; the table compacts it at runtime) and
// mirrors the same records — numbered by a monotone sequence — to every
// worker node over the peer sockets (kPeerReplicate). Workers apply them to
// replica journals in the same format, so ANY node's replica can boot a
// replacement coordinator: point a new Coordinator's journal_path at the
// replica and take_recovered() hands back the still-open jobs. The log drops
// a resolved job's records once no peer sits between its kSubmitted and its
// kResolved; a rejoining worker reports its applied-through cursor in
// PeerWelcome and receives the surviving records past it (a truncated
// replica reports 0 and receives the full live image).
//
// Shutdown resolves the remaining waiters kUnavailable WITHOUT striking
// their journal records — the same contract as SolverService::shutdown() —
// so a restarted (or promoted) coordinator recovers them.

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cluster/peer_protocol.hpp"
#include "parallel/transport.hpp"
#include "service/gateway.hpp"
#include "service/job_table.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace pts::cluster {

struct PeerAddress {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

struct CoordinatorConfig {
  std::string cluster_name = "pts";
  /// The worker-node endpoints. Fixed membership for now: nodes may die and
  /// rejoin, but the roster is set at start.
  std::vector<PeerAddress> peers;
  /// Incarnation number, bumped by whoever promotes a replacement
  /// coordinator; workers use it to tell a successor from a reconnect.
  std::uint64_t epoch = 1;
  double heartbeat_interval_seconds = 0.1;
  /// Dead after this many silent intervals. The product must comfortably
  /// exceed any PTS_CHAOS_NODE_STALL_MS a test runs with — slow is not dead.
  int heartbeat_misses = 5;
  /// Failovers per ClusterJob before its waiters resolve kUnavailable.
  int max_resubmits = 3;
  /// Resubmission backoff: initial * 2^k, jittered to [0.5, 1.0]x, capped.
  double resubmit_backoff_seconds = 0.05;
  double max_backoff_seconds = 2.0;
  double connect_timeout_seconds = 0.5;
  /// Non-empty: the coordinator's own job journal. Point it at a worker's
  /// replica file to promote that replica into a live coordinator.
  std::string journal_path;
};

/// Monotone counters (tests and the failover bench read these).
struct CoordinatorStats {
  std::uint64_t submitted = 0;
  std::uint64_t dedup_hits = 0;       ///< waiters attached to an existing job
  std::uint64_t dispatched = 0;       ///< remote submissions sent (incl. retries)
  std::uint64_t failovers = 0;        ///< jobs pulled off a dead node
  std::uint64_t exhausted = 0;        ///< jobs that ran out of resubmits
  std::uint64_t nodes_lost = 0;
  std::uint64_t nodes_connected = 0;  ///< successful handshakes (incl. rejoins)
  std::uint64_t records_replicated = 0;
  std::uint64_t resolved = 0;         ///< waiters resolved, any status
};

class Coordinator final : public service::JobGateway {
 public:
  /// Validates the config, replays journal_path (the promotion path), opens
  /// the journal fresh and starts the tick thread. Peers connect
  /// asynchronously — poll alive_peers() to wait for the mesh.
  [[nodiscard]] static Expected<std::unique_ptr<Coordinator>> start(
      CoordinatorConfig config);
  ~Coordinator();  ///< stop()

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  // -- service::JobGateway. --
  [[nodiscard]] Expected<service::JobTicket> submit(
      service::SubmitRequest request, service::JobCallback on_done) override;
  using JobGateway::submit;
  bool cancel(service::JobId id) override;

  /// Jobs replayed from journal_path at start, already re-submitted through
  /// the normal path (so they re-coalesce and re-journal). Single-shot.
  [[nodiscard]] std::vector<service::JobHandle> take_recovered();

  [[nodiscard]] std::size_t alive_peers() const;
  [[nodiscard]] CoordinatorStats stats() const;

  /// Resolves every outstanding waiter kUnavailable (journal records left
  /// open — recovery picks them up), joins the tick thread, closes peer links.
  void stop();

 private:
  struct ClusterJob;
  struct Peer;

  explicit Coordinator(CoordinatorConfig config);

  [[nodiscard]] double now_seconds() const { return clock_.elapsed_seconds(); }
  [[nodiscard]] double jittered_backoff_locked(double base, int attempts);

  /// The open job with this id, or null.
  [[nodiscard]] std::shared_ptr<ClusterJob> job_locked(service::JobId id) const;
  Expected<service::JobTicket> submit_locked(service::SubmitRequest request,
                                             service::JobCallback on_done,
                                             service::JobOrigin origin);
  /// The table's tap: mirrors each journal record into the replication log.
  void log_append_locked(service::journal::RecordType type,
                         const service::JobTable::Waiter& waiter);
  void compact_log_locked();
  /// A job whose last waiter left: drops it if pending, or tells its node
  /// to stop it (the job stays until the remote result anchors the
  /// request id).
  void release_if_abandoned_locked(ClusterJob& job);

  void tick_loop();
  /// Starts a non-blocking dial to every peer due a (re)connect, outside the
  /// lock; the connect's end and then the PeerWelcome arrive through
  /// poll_peers.
  void connect_peers();
  /// One poll() over every dialing, connecting and live peer socket, for at
  /// most `timeout_seconds`; under the lock, finishes each dial that ended
  /// and drains each readable link.
  void poll_peers(double timeout_seconds);
  /// The connect ended: sends the PeerHello, or fails the join.
  void finish_dial_locked(Peer& peer);
  void drain_peer_locked(Peer& peer);
  void join_locked(Peer& peer, const parallel::wire::Frame& frame);
  void handle_frame_locked(Peer& peer, parallel::wire::Frame frame);
  void heartbeat_locked();
  void replicate_locked();
  void dispatch_locked();
  void sweep_deadlines_locked();
  void on_peer_down_locked(Peer& peer);
  /// The job's remote attempt is lost (node death, corrupt result): true if
  /// it is queued for a redispatch after a backoff; false if it was dropped
  /// (no waiters left) or failed with `exhausted` (out of resubmits).
  bool requeue_locked(ClusterJob& job, const Status& exhausted);
  /// Closes the link and schedules the next dial after a jittered backoff.
  void reconnect_later_locked(Peer& peer);
  void handle_result_locked(Peer& peer, std::uint64_t request_id,
                            std::vector<std::uint8_t> payload);
  /// Sends one frame on the peer socket. Failure is left for the poll or
  /// the heartbeat to notice — sends are fire-and-forget here.
  void send_to_peer_locked(Peer& peer, const std::vector<std::uint8_t>& frame);

  CoordinatorConfig config_;
  Stopwatch clock_;  ///< coordinator-relative monotonic time
  std::atomic<bool> stopping_{false};

  mutable std::mutex mutex_;
  Rng rng_{0x636f6f7264ull};  // backoff jitter; guarded by mutex_

  std::uint64_t next_seq_ = 1;  ///< replication sequence
  std::deque<ReplicateRecord> log_;  ///< replication log (compacted in place)
  /// log_ compacts once it holds more than this many records: twice what
  /// survived its last compaction, and at least kLogCompactFloor.
  static constexpr std::size_t kLogCompactFloor = 512;
  std::size_t log_compact_at_ = kLogCompactFloor;
  /// Every open ClusterJob and waiter, dedup and the journal; its tap feeds
  /// log_. Declared after log_, which the tap appends to.
  service::JobTable table_;

  std::vector<std::unique_ptr<Peer>> peers_;

  CoordinatorStats stats_;

  std::thread tick_;  // started last, joined by stop()
};

}  // namespace pts::cluster
