#pragma once
// The multi-process backend (`--backend=proc`): the paper's PVM farm, for
// real. A ProcSupervisor spawns one pts_worker process per slave over a Unix
// socketpair and is itself run_master's MasterTransport, so the master thread
// drives every link: it writes each assignment onto the worker's socket and
// gathers by polling the sockets that still owe a reply. P workers add P
// processes and no threads. Per worker slot:
//
//   idle ──Assignment──▶ write frame ──▶ owes reply (heartbeat-bounded)
//     ▲   (dead slot: respawn   │                │
//     │    or fault fast)    write fails   reply / timeout / EOF /
//     │                         ▼           corrupt / foreign identity
//     │                ┌────────◀────────────────┘ (non-reply outcomes)
//     └──reply─────────┤ fault: SIGKILL + reap, SlaveFault to the gather,
//        to the gather │ deferred respawn (jittered exponential backoff +
//                      └──▶ idle          breaker)
//
// Fault mapping is the point: a worker that is killed (EOF), hangs past the
// heartbeat timeout, or emits garbage becomes a SlaveFault for exactly the
// round it owed — the same message a throwing in-thread slave produces — so
// the rendezvous completes with P-1 reports and the master reseeds the
// record, while the supervisor respawns the process. The heartbeat bounds
// whole frames, and each link reassembles its frames from non-blocking reads,
// so a worker that stalls or trickles mid-frame never hangs the round nor
// delays the other links. Determinism: each round's search derives its rng
// from (seed, slave, round) and doubles travel bit-exact, so a fault-free
// proc run reproduces the thread backend's results on a fixed seed.

#include <poll.h>
#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "mkp/instance.hpp"
#include "parallel/comm.hpp"
#include "parallel/transport.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace pts::parallel {

namespace wire {
struct TelemetryChunk;
}  // namespace wire

/// A chaos schedule read from <prefix>CRASH_PPM, CORRUPT_PPM, STALL_MS and
/// SLOW_WRITE, so the chaos harness can misbehave either end of a real worker
/// link without a special build (DESIGN.md §9). All off by default.
struct ChaosSchedule {
  std::uint32_t crash_ppm = 0;    ///< P(_exit(9)) per assignment * 1e6; workers
  std::uint32_t corrupt_ppm = 0;  ///< P(flip one payload byte) per frame * 1e6
  std::uint32_t stall_ms = 0;     ///< sleep before every frame sent
  bool slow_write = false;        ///< trickle frames in 7-byte pieces

  [[nodiscard]] static ChaosSchedule from_env(const std::string& prefix);
  [[nodiscard]] bool any() const {
    return crash_ppm > 0 || corrupt_ppm > 0 || stall_ms > 0 || slow_write;
  }
};

struct ProcOptions {
  /// pts_worker binary to exec; empty means default_worker_path().
  std::string worker_path;
  /// Heartbeat bound: a worker that owes a reply and completes no frame for
  /// this long (a half-written frame does not count) is declared hung,
  /// killed, and mapped to a SlaveFault. Size it well above the per-round
  /// work budget.
  double worker_timeout_seconds = 120.0;
  /// Respawn budget per slave slot; a slot that exhausts it stays dead and
  /// faults every subsequent round (the master keeps degrading to P-1).
  std::size_t max_respawns_per_slave = 8;

  // -- Recovery policy (DESIGN.md §9). Respawns are deferred, not eager: a
  //    fault schedules the earliest next respawn attempt with jittered
  //    exponential backoff, and assignments that arrive before then fault
  //    immediately WITHOUT consuming the respawn budget — a worker dying
  //    three times in 100ms costs backoff skips, not three respawns. --

  /// Backoff for the SECOND consecutive fault (an isolated death respawns
  /// at the next assignment); doubles per further fault up to the cap.
  /// A deterministic jitter in [0, base) (splitmix64 of seed, slot and fault
  /// count) decorrelates a storm of slots all dying at once.
  double respawn_backoff_base_seconds = 0.05;
  double respawn_backoff_cap_seconds = 2.0;

  /// Circuit breaker: this many faults, each within `breaker_window_seconds`
  /// of the previous one, open the breaker for `breaker_cooloff_seconds` —
  /// no respawn attempts at all until it half-opens. 0 disables the breaker.
  std::size_t breaker_threshold = 3;
  double breaker_window_seconds = 1.0;
  double breaker_cooloff_seconds = 5.0;
};

/// Supervisor-side counters (the master-side fault/respawn counters live in
/// MasterResult; these add the process-level view).
struct ProcStats {
  std::size_t workers_spawned = 0;   ///< initial spawns + respawns
  std::size_t worker_respawns = 0;   ///< replacements after a fault
  /// Assignments faulted fast because the slot was in backoff or breaker
  /// cooloff — rounds that did NOT consume respawn budget.
  std::size_t respawn_backoff_skips = 0;
  std::size_t breaker_opens = 0;     ///< circuit-breaker trips
  /// Master-side chaos schedule activations (PTS_CHAOS_MASTER_*).
  std::size_t chaos_injections = 0;
  /// TelemetryChunk frames folded into the master's tracer/registry.
  std::size_t telemetry_chunks = 0;
};

/// Resolution order: $PTS_WORKER_BIN, then pts_worker next to the current
/// executable (/proc/self/exe), then "pts_worker" on PATH.
[[nodiscard]] std::string default_worker_path();

/// Owns the worker processes and is run_master's transport to them.
/// Lifecycle: construct → start() → run_master(*this) → shutdown() or
/// destroy, which reaps every worker (one still mid-round, as a cancelled run
/// leaves it, is SIGKILLed). Only the thread running run_master may call the
/// members, except worker_pid().
class ProcSupervisor final : public MasterTransport {
 public:
  ProcSupervisor(const mkp::Instance& inst, std::size_t num_slaves,
                 std::uint64_t seed, ProcOptions options);
  ~ProcSupervisor() override { shutdown(); }

  ProcSupervisor(const ProcSupervisor&) = delete;
  ProcSupervisor& operator=(const ProcSupervisor&) = delete;

  /// Spawns every worker and performs the Hello handshake. On error the
  /// supervisor is left stopped (safe to destroy).
  [[nodiscard]] Status start();

  /// Ends every worker (kStop and a closed socket for an idle one, SIGKILL
  /// for one still mid-round) and reaps it, so a caller can read final
  /// stats() before the object goes away. Idempotent.
  void shutdown();

  [[nodiscard]] ProcStats stats() const { return stats_; }

  /// Test hook (kill -9 fault injection), callable from any thread: pid of
  /// slave i's current worker, -1 while dead/respawning.
  [[nodiscard]] pid_t worker_pid(std::size_t i) const;

  [[nodiscard]] std::size_t num_slaves() const override { return num_slaves_; }
  /// Respawns a dead slot under the recovery policy and writes the
  /// assignment frame; an outcome that is not a write becomes the round's
  /// SlaveFault for receive().
  [[nodiscard]] bool send(std::size_t slave, Assignment assignment) override;
  /// One poll() over the sockets that owe a reply, folding telemetry chunks
  /// inline; wakes every kPollSliceMs at most to check `token`.
  [[nodiscard]] std::optional<FromSlave> receive(const CancelToken& token) override;

 private:
  using Clock = std::chrono::steady_clock;

  struct WorkerSlot {
    FrameSocket socket;
    std::atomic<pid_t> pid{-1};  ///< atomic: the worker_pid hook reads it
    std::size_t respawns = 0;
    bool process_named = false;  ///< merged pid labelled in the trace yet?
    Rng chaos_rng;               ///< master chaos schedule, slot-local stream
    std::optional<std::size_t> owed_round;  ///< the reply in flight
    Clock::time_point sent_at{};             ///< its assignment write
    Clock::time_point heartbeat_deadline{};  ///< next whole frame due
    // Recovery-policy bookkeeping.
    std::size_t consecutive_faults = 0;  ///< reset by a completed round
    std::size_t fault_serial = 0;        ///< total faults (jitter stream index)
    Clock::time_point last_fault_at{};
    Clock::time_point respawn_not_before{};
    bool breaker_open = false;
    Clock::time_point breaker_until{};
  };

  [[nodiscard]] Status spawn_worker(std::size_t i);
  /// Publishes slot i's pid (the worker_pid hook) and the alive gauge.
  void set_pid(std::size_t i, pid_t pid);
  /// Closes slot i's link after a kStop frame (orderly) or a SIGKILL, and
  /// leaves the process to reap_released().
  void release_worker(std::size_t i, bool orderly);
  /// Reaps every released worker under one short grace, then SIGKILLs.
  void reap_released();
  /// Kills and reaps slot i's worker, schedules its respawn, and returns the
  /// SlaveFault the gather hands to the master for `round`.
  [[nodiscard]] SlaveFault record_fault(std::size_t i, std::size_t round,
                                        const std::string& why);
  /// Dead-slot policy decision at assignment time: respawn now (half-open
  /// probe / backoff elapsed), or fault fast with `reason` set.
  [[nodiscard]] bool may_respawn_now(std::size_t i, std::string& reason);
  /// Assignment send with the master chaos schedule applied.
  [[nodiscard]] Status send_assignment(std::size_t i,
                                       std::vector<std::uint8_t> frame);
  /// Reads slot i's socket: folds telemetry chunks and returns the round's
  /// reply or fault once decided (nullopt: a frame is still incomplete).
  [[nodiscard]] std::optional<FromSlave> drain(std::size_t i);
  /// Folds one worker TelemetryChunk into the master's tracer (pid/tid remap
  /// + clock offset) and metrics registry (counter deltas).
  void merge_telemetry_chunk(std::size_t i, const wire::TelemetryChunk& chunk);

  const mkp::Instance& inst_;
  const std::size_t num_slaves_;
  const std::uint64_t seed_;
  const ProcOptions options_;
  const Clock::duration heartbeat_;  ///< options_.worker_timeout_seconds
  /// PTS_CHAOS_MASTER_*: the worker-side knobs applied to assignment sends.
  /// A corrupted assignment fails the worker's decoder, the worker exits,
  /// and the round completes degraded via the SlaveFault + respawn path.
  const ChaosSchedule master_chaos_;

  std::vector<WorkerSlot> slots_;  ///< sized once: WorkerSlot cannot move
  std::deque<FromSlave> ready_;   ///< decided messages receive() hands out
  std::vector<pid_t> released_;   ///< stopped workers not yet reaped
  std::vector<pollfd> poll_fds_;  ///< receive() scratch, one per slot
  ProcStats stats_;
  bool started_ = false;
};

/// The pts_worker entry body: Hello handshake on `fd`, then slave_loop over
/// a SocketTransport until the link closes (EOF, or a kStop or any other
/// frame that is not an assignment). Returns the process exit code
/// (0 = orderly stop, 2 = handshake/protocol failure).
int run_worker(int fd);

}  // namespace pts::parallel
