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
// it under its own mutex (from a submitter, the tick thread or a peer
// reader), which the JobGateway contract allows. Identical submissions
// (instance content hash + solve-shape options, the PR 8 dedup key) coalesce
// into one ClusterJob with many waiters: ONE remote solve, every waiter
// answered from its result. A request with allow_dedup=false gets a
// private key and never coalesces.
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
// journal (crash safety for itself) and mirrors the same records — numbered
// by a monotone sequence — to every worker node over the peer sockets
// (kPeerReplicate). Workers apply them to replica journals in the same
// format, so ANY node's replica can boot a replacement coordinator: point a
// new Coordinator's journal_path at the replica and take_recovered() hands
// back the still-open jobs. A rejoining worker reports its applied-through
// cursor in PeerWelcome and receives exactly the records it missed (a
// truncated replica reports 0 and receives the full live image).
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
#include "service/journal.hpp"
#include "util/cancel.hpp"
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
  /// open — recovery picks them up), closes peer links, joins all threads.
  void stop();

 private:
  struct Waiter;
  struct ClusterJob;
  struct Peer;

  explicit Coordinator(CoordinatorConfig config);

  [[nodiscard]] double now_seconds() const { return clock_.elapsed_seconds(); }
  [[nodiscard]] double jittered_backoff_locked(double base, int attempts);

  /// The coalescing key: content hash + solve-shape options + tenant (or a
  /// private nonce when dedup is off).
  [[nodiscard]] std::string make_key_locked(const service::SubmitRequest& request,
                                            std::uint64_t content_hash);

  Expected<service::JobTicket> submit_locked(service::SubmitRequest request,
                                             service::JobCallback on_done);
  void log_append_locked(ReplicateRecord record);
  void compact_log_locked();
  void resolve_waiter_locked(Waiter& waiter, service::JobResult result,
                             bool strike_journal);
  /// Resolves every waiter of `job` with `status` (no solution) and erases
  /// the job. `strike_journal` false only on the shutdown path.
  void fail_job_locked(const std::string& key, const Status& status,
                       bool strike_journal);

  void tick_loop();
  void connect_peers();  ///< dials outside the lock; installs under it
  void heartbeat_locked();
  void replicate_locked();
  void dispatch_locked();
  void sweep_deadlines_locked();
  void reader_loop(Peer& peer);
  void on_peer_down_locked(Peer& peer);
  void handle_result_locked(Peer& peer, std::uint64_t request_id,
                            std::vector<std::uint8_t> payload);
  /// Sends one frame on the peer socket (write mutex). Failure is left for
  /// the reader/heartbeat to notice — sends are fire-and-forget here.
  void send_to_peer_locked(Peer& peer, const std::vector<std::uint8_t>& frame);

  CoordinatorConfig config_;
  Stopwatch clock_;  ///< coordinator-relative monotonic time
  CancelSource stop_source_;
  std::atomic<bool> stopping_{false};

  mutable std::mutex mutex_;
  Rng rng_{0x636f6f7264ull};  // backoff jitter; guarded by mutex_

  service::JobId next_id_ = 1;
  std::uint64_t next_seq_ = 1;  ///< replication sequence
  std::map<std::string, std::unique_ptr<ClusterJob>> jobs_;  // by dedup key
  std::map<service::JobId, std::string> waiter_index_;       // waiter -> key
  std::uint64_t dedup_nonce_ = 1;  ///< private keys for allow_dedup=false

  std::deque<ReplicateRecord> log_;  ///< replication log (compacted in place)
  std::unique_ptr<service::journal::JobJournal> journal_;
  std::vector<service::JobHandle> recovered_;

  std::vector<std::unique_ptr<Peer>> peers_;

  CoordinatorStats stats_;

  std::thread tick_;  // started last, joined by stop()
};

}  // namespace pts::cluster
