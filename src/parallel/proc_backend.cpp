#include "parallel/proc_backend.hpp"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <span>
#include <thread>
#include <utility>
#include <variant>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/slave.hpp"
#include "parallel/wire.hpp"
#include "util/check.hpp"
#include "util/env.hpp"
#include "util/rng.hpp"

extern char** environ;

namespace pts::parallel {

namespace {

/// The fd number a worker finds its socket on; pts_worker receives it as
/// `--fd=3`. Fixed so the spawn can dup2 onto it, which clears CLOEXEC on
/// exactly the one descriptor the child is meant to keep.
constexpr int kWorkerFd = 3;

Status errno_status(const char* op) {
  return Status::unavailable(std::string(op) + " failed: " +
                             std::strerror(errno));
}

/// Moves an fd above the low range (keeping CLOEXEC) so it can never collide
/// with the dup2 target kWorkerFd — dup2(fd, fd) would leave CLOEXEC set and
/// the child would exec with its socket already closed.
Expected<int> raise_fd(int fd) {
  if (fd > kWorkerFd + 1) return fd;
  const int raised = ::fcntl(fd, F_DUPFD_CLOEXEC, 10);
  const int saved_errno = errno;
  ::close(fd);
  if (raised < 0) {
    errno = saved_errno;
    return errno_status("fcntl(F_DUPFD_CLOEXEC)");
  }
  return raised;
}

ProcOptions resolve_options(ProcOptions options) {
  if (options.worker_path.empty()) options.worker_path = default_worker_path();
  return options;
}

/// Chaos: flips one payload byte. The header stays valid, so the frame
/// passes header checks and dies in the payload decoder — the hard case.
void flip_payload_byte(std::vector<std::uint8_t>& frame, Rng& rng) {
  if (frame.size() <= wire::kHeaderBytes) return;
  frame[wire::kHeaderBytes + rng.index(frame.size() - wire::kHeaderBytes)] ^=
      0x5A;
}

/// Chaos: writes a frame in 7-byte pieces 1 ms apart, so the reader has to
/// reassemble it.
Status send_trickled(FrameSocket& socket, std::span<const std::uint8_t> frame) {
  while (!frame.empty()) {
    const std::size_t n = std::min<std::size_t>(frame.size(), 7);
    if (auto status = socket.send_frame(frame.first(n)); !status.ok()) {
      return status;
    }
    frame = frame.subspan(n);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return Status{};
}

}  // namespace

ChaosSchedule ChaosSchedule::from_env(const std::string& prefix) {
  const auto read = [&prefix](const char* knob) {
    return env_u32((prefix + knob).c_str());
  };
  return {read("CORRUPT_PPM"), read("STALL_MS"), read("SLOW_WRITE") != 0};
}

std::string default_worker_path() {
  if (const char* env = std::getenv("PTS_WORKER_BIN"); env && *env) return env;
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) {
    buf[n] = '\0';
    std::string self(buf);
    if (const auto slash = self.rfind('/'); slash != std::string::npos) {
      std::string sibling = self.substr(0, slash + 1) + "pts_worker";
      if (::access(sibling.c_str(), X_OK) == 0) return sibling;
    }
  }
  return "pts_worker";  // last resort: let $PATH resolve it
}

ProcSupervisor::ProcSupervisor(const mkp::Instance& inst,
                               std::size_t num_slaves, std::uint64_t seed,
                               ProcOptions options)
    : inst_(inst),
      num_slaves_(num_slaves),
      seed_(seed),
      options_(resolve_options(std::move(options))),
      heartbeat_(std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(options_.worker_timeout_seconds))),
      master_chaos_(ChaosSchedule::from_env("PTS_CHAOS_MASTER_")),
      slots_(num_slaves),
      poll_fds_(num_slaves) {
  PTS_CHECK(num_slaves_ > 0);
  for (std::size_t i = 0; i < num_slaves_; ++i) {
    // Separated from the worker-side chaos constant so the two schedules
    // decorrelate.
    slots_[i].chaos_rng = Rng(seed_ ^ 0x3A57E25C4A05ULL).derive(i);
  }
}

void ProcSupervisor::shutdown() {
  for (std::size_t i = 0; i < num_slaves_; ++i) {
    release_worker(i, /*orderly=*/!slots_[i].owed_round);
  }
  reap_released();
}

Status ProcSupervisor::start() {
  PTS_CHECK(!started_);
  if (options_.worker_path.find('/') != std::string::npos &&
      ::access(options_.worker_path.c_str(), X_OK) != 0) {
    return Status::invalid_argument("worker binary not executable: " +
                                    options_.worker_path);
  }
  for (std::size_t i = 0; i < num_slaves_; ++i) {
    if (auto status = spawn_worker(i); !status.ok()) {
      shutdown();
      return status;
    }
  }
  started_ = true;
  return Status{};
}

pid_t ProcSupervisor::worker_pid(std::size_t i) const {
  PTS_CHECK(i < num_slaves_);
  return slots_[i].pid;
}

void ProcSupervisor::set_pid(std::size_t i, pid_t pid) {
  slots_[i].pid = pid;
  const auto alive = std::count_if(slots_.begin(), slots_.end(),
                                   [](const WorkerSlot& s) { return s.pid > 0; });
  obs::metrics().gauge("proc_workers_alive").set(static_cast<double>(alive));
}

Status ProcSupervisor::spawn_worker(std::size_t i) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, fds) != 0) {
    return errno_status("socketpair");
  }
  // Both ends carry CLOEXEC, so a later spawn cannot leak this pair into its
  // own child — a leaked parent end would mask the EOF that detects this
  // worker's death. The dup2 below un-CLOEXECs only the child's end, only
  // in the child.
  auto parent_fd = raise_fd(fds[0]);
  auto child_fd = raise_fd(fds[1]);
  if (!parent_fd || !child_fd) {
    if (parent_fd) ::close(*parent_fd);
    if (child_fd) ::close(*child_fd);
    return parent_fd ? child_fd.status() : parent_fd.status();
  }

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, *child_fd, kWorkerFd);

  std::string fd_arg = "--fd=" + std::to_string(kWorkerFd);
  char* argv[] = {const_cast<char*>(options_.worker_path.c_str()),
                  fd_arg.data(), nullptr};
  pid_t pid = -1;
  // posix_spawnp (not fork): safe however many threads the host process
  // runs, and exec failure (missing binary) is reported here as an error
  // code.
  const int rc = ::posix_spawnp(&pid, options_.worker_path.c_str(), &actions,
                                nullptr, argv, environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(*child_fd);
  if (rc != 0) {
    ::close(*parent_fd);
    return Status::unavailable("posix_spawn " + options_.worker_path +
                               " failed: " + std::strerror(rc));
  }

  FrameSocket socket(*parent_fd);
  // Handshake: identity, seed, and the problem data — the paper's "send
  // problem data to the slaves" step, repeated on every respawn so a fresh
  // worker is indistinguishable from the one it replaces. The flags byte
  // tells the worker whether to run its own telemetry session and ship
  // TelemetryChunks back (DESIGN.md §6).
  wire::Hello hello{static_cast<std::uint32_t>(i), seed_, inst_};
  if (obs::tracer().enabled()) hello.flags |= wire::kHelloFlagTrace;
  if (obs::telemetry_enabled()) hello.flags |= wire::kHelloFlagMetrics;
  if (auto status = socket.send_frame(wire::encode_hello(hello));
      !status.ok()) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
    return status;
  }

  obs::metrics().counter("proc_workers_spawned_total").add();
  slots_[i].socket = std::move(socket);
  ++stats_.workers_spawned;
  set_pid(i, pid);
  return Status{};
}

void ProcSupervisor::release_worker(std::size_t i, bool orderly) {
  auto& slot = slots_[i];
  const pid_t pid = slot.pid;
  if (pid <= 0) return;
  set_pid(i, -1);
  if (orderly) {
    (void)slot.socket.send_frame(wire::encode_stop());
  } else {
    // It failed us, or it is mid-round in a cancelled run: its reply is
    // moot, so it does not get to finish.
    ::kill(pid, SIGKILL);
  }
  slot.socket.close();  // a worker blocked in read sees EOF even if kStop raced
  slot.owed_round.reset();
  released_.push_back(pid);
}

void ProcSupervisor::reap_released() {
  // Short grace for an orderly exit, then SIGKILL. An idle worker exits on
  // kStop/EOF within milliseconds; only a wedged one eats the kill. The
  // grace is shared, so stopping P workers costs one wait, not P.
  const auto deadline = Clock::now() + std::chrono::seconds(2);
  for (;;) {
    std::erase_if(released_, [](pid_t pid) {
      const pid_t reaped = ::waitpid(pid, nullptr, WNOHANG);
      return reaped == pid || (reaped < 0 && errno == ECHILD);
    });
    if (released_.empty()) return;
    if (Clock::now() >= deadline) {
      for (const pid_t pid : released_) ::kill(pid, SIGKILL);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

SlaveFault ProcSupervisor::record_fault(std::size_t i, std::size_t round,
                                        const std::string& why) {
  if (obs::tracer().enabled()) {
    obs::tracer().instant("worker_fault",
                          {{"slave", static_cast<double>(i)},
                           {"round", static_cast<double>(round)}});
  }
  obs::metrics().counter("proc_worker_faults_total").add();
  release_worker(i, /*orderly=*/false);  // it already failed us: kill + reap
  reap_released();
  // No respawn here — that is the policy. The fault only schedules the
  // earliest next attempt; send() decides at the next assignment.
  const auto now = Clock::now();
  auto& slot = slots_[i];
  const auto window = std::chrono::duration<double>(
      options_.breaker_window_seconds);
  if (slot.consecutive_faults > 0 && now - slot.last_fault_at > window) {
    slot.consecutive_faults = 0;  // slow-burn faults are not a storm
  }
  ++slot.consecutive_faults;
  ++slot.fault_serial;
  slot.last_fault_at = now;

  // Exponential backoff with deterministic jitter. An isolated death (k=1)
  // respawns at the very next assignment — a single OOM kill must not idle
  // the slot — while a streak backs off base * 2^(k-2) capped, plus a
  // [0, base) jitter derived from (seed, slot, fault serial) so co-dying
  // slots never thunder back in lockstep yet tests can reason about the
  // schedule.
  double delay = 0.0;
  if (slot.consecutive_faults > 1) {
    delay = options_.respawn_backoff_base_seconds;
    for (std::size_t k = 2; k < slot.consecutive_faults; ++k) {
      delay *= 2.0;
      if (delay >= options_.respawn_backoff_cap_seconds) break;
    }
    delay = std::min(delay, options_.respawn_backoff_cap_seconds);
    std::uint64_t jitter_state = seed_ ^
                                 (static_cast<std::uint64_t>(i) << 32) ^
                                 slot.fault_serial;
    const double jitter01 =
        static_cast<double>(splitmix64(jitter_state) >> 11) * 0x1.0p-53;
    delay += jitter01 * options_.respawn_backoff_base_seconds;
  }
  slot.respawn_not_before =
      now + std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(delay));

  if (options_.breaker_threshold > 0 && !slot.breaker_open &&
      slot.consecutive_faults >= options_.breaker_threshold) {
    slot.breaker_open = true;
    slot.breaker_until =
        now + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(
                      options_.breaker_cooloff_seconds));
    ++stats_.breaker_opens;
    obs::metrics().counter("proc_breaker_opens_total").add();
    if (obs::tracer().enabled()) {
      obs::tracer().instant("breaker_open",
                            {{"slave", static_cast<double>(i)},
                             {"faults",
                              static_cast<double>(slot.consecutive_faults)}});
    }
  }
  // The fault message is what keeps the master's rendezvous alive: one
  // message per (slave, round), dead worker or not.
  return SlaveFault{i, round, why};
}

bool ProcSupervisor::may_respawn_now(std::size_t i, std::string& reason) {
  const auto now = Clock::now();
  auto& slot = slots_[i];
  if (slot.respawns >= options_.max_respawns_per_slave) {
    reason = "worker process unavailable (respawn budget exhausted)";
    return false;
  }
  if (slot.breaker_open) {
    if (now < slot.breaker_until) {
      reason = "worker in circuit-breaker cooloff";
      ++stats_.respawn_backoff_skips;
      obs::metrics().counter("proc_backoff_skips_total").add();
      return false;
    }
    // Half-open: one probe respawn is allowed; success closes the breaker
    // only when the worker later completes a round (see drain).
  }
  if (now < slot.respawn_not_before) {
    reason = "worker in respawn backoff";
    ++stats_.respawn_backoff_skips;
    obs::metrics().counter("proc_backoff_skips_total").add();
    return false;
  }
  return true;
}

Status ProcSupervisor::send_assignment(std::size_t i,
                                       std::vector<std::uint8_t> frame) {
  auto& slot = slots_[i];
  if (!master_chaos_.any()) return slot.socket.send_frame(frame);
  bool injected = false;
  if (master_chaos_.stall_ms > 0) {
    injected = true;
    std::this_thread::sleep_for(
        std::chrono::milliseconds(master_chaos_.stall_ms));
  }
  if (master_chaos_.corrupt_ppm > 0 &&
      slot.chaos_rng.next_below(1'000'000) < master_chaos_.corrupt_ppm &&
      frame.size() > wire::kHeaderBytes) {
    // The worker's total decoder rejects the assignment, the worker exits,
    // the gather sees EOF, and the round completes degraded via SlaveFault +
    // respawn.
    injected = true;
    flip_payload_byte(frame, slot.chaos_rng);
  }
  if (injected || master_chaos_.slow_write) {
    obs::metrics().counter("proc_chaos_injections_total").add();
    ++stats_.chaos_injections;
  }
  return master_chaos_.slow_write ? send_trickled(slot.socket, frame)
                                  : slot.socket.send_frame(frame);
}

void ProcSupervisor::merge_telemetry_chunk(std::size_t i,
                                           const wire::TelemetryChunk& chunk) {
  ++stats_.telemetry_chunks;
  auto& registry = obs::metrics();
  registry.counter("proc_telemetry_chunks_total").add();
  for (const auto& [name, delta] : chunk.counter_deltas) {
    registry.apply_counter_delta(name, delta);
  }
  auto& tr = obs::tracer();
  if (!tr.enabled() || chunk.events.empty()) return;
  registry.counter("proc_telemetry_events_total").add(chunk.events.size());
  const auto pid = static_cast<std::uint32_t>(2 + i);  // master keeps pid 1
  if (!slots_[i].process_named) {
    slots_[i].process_named = true;
    tr.name_process(pid, "pts_worker " + std::to_string(i));
  }
  // Clock offset: the chunk carries the worker's tracer clock as of encode
  // time; sampling ours at merge time aligns the two timelines to within the
  // frame's transit latency (microseconds on a socketpair). Offsets are
  // per-chunk, so drift across a long run is re-anchored every round.
  const std::int64_t offset = tr.now_us() - chunk.worker_now_us;
  for (const auto& incoming : chunk.events) {
    obs::TraceEvent event;
    event.name = obs::intern_name(incoming.name);
    event.phase = incoming.phase;
    event.pid = pid;
    event.tid = incoming.tid;
    event.ts_us = incoming.phase == 'M'
                      ? incoming.ts_us  // metadata is timeless
                      : std::max<std::int64_t>(0, incoming.ts_us + offset);
    event.dur_us = incoming.dur_us;
    event.args.reserve(incoming.args.size());
    for (const auto& [key, value] : incoming.args) {
      event.args.push_back({obs::intern_name(key), value});
    }
    if (incoming.has_detail) {
      event.detail_key = obs::intern_name(incoming.detail_key);
      event.detail = incoming.detail;
    }
    tr.record_event(std::move(event));
  }
}

bool ProcSupervisor::send(std::size_t i, Assignment assignment) {
  PTS_CHECK(i < num_slaves_);
  auto& slot = slots_[i];
  const std::size_t round = assignment.round;
  PTS_CHECK_MSG(!slot.owed_round, "assignment to a worker that owes a reply");
  if (slot.pid <= 0) {
    // Dead slot: the recovery policy decides between respawning now and
    // faulting fast. Either way the rendezvous never waits on a ghost —
    // a backoff/breaker fault is immediate and burns no respawn budget.
    std::string reason;
    if (!may_respawn_now(i, reason)) {
      ready_.push_back(SlaveFault{i, round, std::move(reason)});
      return true;
    }
    if (auto status = spawn_worker(i); !status.ok()) {
      ready_.push_back(
          SlaveFault{i, round, "worker respawn failed: " + status.message()});
      return true;
    }
    obs::metrics().counter("proc_worker_respawns_total").add();
    ++slot.respawns;
    ++stats_.worker_respawns;
  }
  slot.sent_at = Clock::now();
  if (auto status = send_assignment(i, wire::encode_assignment(assignment));
      !status.ok()) {
    ready_.push_back(record_fault(
        i, round, "assignment write failed: " + status.message()));
    return true;
  }
  slot.owed_round = round;
  slot.heartbeat_deadline = Clock::now() + heartbeat_;
  return true;
}

std::optional<FromSlave> ProcSupervisor::drain(std::size_t i) {
  auto& slot = slots_[i];
  const std::size_t round = *slot.owed_round;
  // EOF here is a dead worker (kill -9 lands on this branch); a malformed
  // frame is a corrupt one. Both map onto the same SlaveFault -> respawn
  // path a throwing in-thread slave takes. TelemetryChunk frames precede
  // the reply: each is folded into the master's tracer/registry.
  for (;;) {
    auto frame = slot.socket.poll_frame();
    if (!frame) return record_fault(i, round, frame.status().message());
    if (!*frame) return std::nullopt;  // the rest is still in flight
    // A whole frame is a heartbeat.
    slot.heartbeat_deadline = Clock::now() + heartbeat_;
    if ((*frame)->type == wire::MessageType::kTelemetry) {
      auto chunk = wire::decode_telemetry_chunk((*frame)->payload);
      if (!chunk) {
        // A corrupt chunk is a corrupt worker: same fault path as a corrupt
        // report, and crucially only ONE fault for the round.
        return record_fault(i, round,
                            "telemetry chunk: " + chunk.status().message());
      }
      merge_telemetry_chunk(i, *chunk);
      continue;
    }
    auto reply = wire::decode_from_slave((*frame)->type, (*frame)->payload, inst_);
    if (!reply) return record_fault(i, round, reply.status().message());
    // A frame that decodes but claims a foreign identity is still corruption
    // (a flipped byte lands in the slave_id/round fields as easily as in a
    // payload double). Handing it on would poison the master's rendezvous
    // accounting — or trip its slave_id range check — so it maps onto the
    // same fault path as a frame that fails to decode.
    const auto [claimed_slave, claimed_round] = std::visit(
        [](const auto& m) { return std::make_pair(m.slave_id, m.round); },
        *reply);
    if (claimed_slave != i || claimed_round != round) {
      return record_fault(i, round,
                          "frame claims foreign (slave, round) identity");
    }
    // A completed round is the real health signal: it clears the fault
    // streak and closes a half-open breaker.
    slot.owed_round.reset();
    slot.consecutive_faults = 0;
    slot.breaker_open = false;
    // Frame round trip: assignment write through reply decode. The gauge is
    // the freshness signal ("age of the newest heartbeat"); the histogram
    // is the distribution the efficiency accounting wants.
    const double rtt =
        std::chrono::duration<double>(Clock::now() - slot.sent_at).count();
    obs::metrics().histogram("proc_frame_rtt_seconds").record(rtt);
    obs::metrics().gauge("proc_heartbeat_age_seconds").set(rtt);
    return *std::move(reply);
  }
}

std::optional<FromSlave> ProcSupervisor::receive(const CancelToken& token) {
  for (;;) {
    if (!ready_.empty()) {
      FromSlave message = std::move(ready_.front());
      ready_.pop_front();
      return message;
    }
    if (token.stop_requested()) return std::nullopt;

    // One poll over every link that owes this round a reply (poll skips
    // the negative fds of the others). The wait is cut at the earliest
    // heartbeat deadline and at one slice, so neither a hung worker nor a
    // fired token waits longer than it must.
    const auto now = Clock::now();
    auto wait = std::chrono::milliseconds(kPollSliceMs);
    bool owed = false;
    for (std::size_t i = 0; i < num_slaves_; ++i) {
      const auto& slot = slots_[i];
      poll_fds_[i] = {-1, POLLIN, 0};
      if (!slot.owed_round) continue;
      if (now >= slot.heartbeat_deadline) {
        ready_.push_back(record_fault(
            i, *slot.owed_round, "no whole frame within the heartbeat timeout"));
        continue;
      }
      owed = true;
      wait = std::min(wait, std::chrono::ceil<std::chrono::milliseconds>(
                                slot.heartbeat_deadline - now));
      poll_fds_[i].fd = slot.socket.fd();
    }
    if (!ready_.empty()) continue;
    PTS_CHECK_MSG(owed, "gather waits on a round no worker owes a reply to");
    if (::poll(poll_fds_.data(), poll_fds_.size(), static_cast<int>(wait.count())) < 0) {
      PTS_CHECK_MSG(errno == EINTR, "poll over the worker links failed");
      continue;
    }
    for (std::size_t i = 0; i < num_slaves_; ++i) {
      if (poll_fds_[i].revents == 0) continue;
      if (auto message = drain(i)) ready_.push_back(*std::move(message));
    }
  }
}

namespace {

/// Decorates the worker's transport with scheduled misbehavior. Every fault
/// mode lands on a supervisor path the production code must already handle:
/// crash -> EOF, corrupt frame -> decode failure, stall -> heartbeat
/// timeout, slow write -> incremental frame reassembly in the gather.
class ChaosTransport final : public Transport {
 public:
  ChaosTransport(SocketTransport inner, FrameSocket& socket,
                 ChaosSchedule settings, std::uint32_t crash_ppm, Rng rng)
      : inner_(inner),
        socket_(&socket),
        settings_(settings),
        crash_ppm_(crash_ppm),
        rng_(rng) {}

  [[nodiscard]] std::optional<Assignment> receive() override {
    auto assignment = inner_.receive();
    if (assignment && roll(crash_ppm_)) {
      // The scheduled "kill": from the supervisor's side indistinguishable
      // from an OOM kill or a kernel-delivered SIGKILL mid-round.
      std::_Exit(9);
    }
    return assignment;
  }

  [[nodiscard]] bool send(FromSlave message) override {
    if (settings_.stall_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(settings_.stall_ms));
    }
    const bool corrupt = roll(settings_.corrupt_ppm);
    if (!corrupt && !settings_.slow_write) return inner_.send(std::move(message));
    auto frame = wire::encode_from_slave(message);
    if (corrupt) flip_payload_byte(frame, rng_);
    return (settings_.slow_write ? send_trickled(*socket_, frame)
                                 : socket_->send_frame(frame))
        .ok();
  }

 private:
  [[nodiscard]] bool roll(std::uint32_t ppm) {
    if (ppm == 0) return false;
    return rng_.next_below(1'000'000) < ppm;
  }

  SocketTransport inner_;
  FrameSocket* socket_;
  ChaosSchedule settings_;
  std::uint32_t crash_ppm_;  ///< P(_exit(9)) per assignment * 1e6
  Rng rng_;
};

/// Worker-side half of the cross-process aggregation: before every outgoing
/// report/fault, drain the worker's tracer and metrics registry and ship the
/// batch as a kTelemetry frame. Wraps OUTERMOST (outside chaos), so the
/// chunk goes out clean before a possibly chaos-mangled report — telemetry
/// must observe the chaos, not be destroyed by it.
class TelemetryChunkTransport final : public Transport {
 public:
  TelemetryChunkTransport(Transport& inner, FrameSocket& socket,
                          std::uint32_t slave_id)
      : inner_(&inner), socket_(&socket), slave_id_(slave_id) {}

  [[nodiscard]] std::optional<Assignment> receive() override {
    return inner_->receive();
  }

  [[nodiscard]] bool send(FromSlave message) override {
    obs::metrics().counter("worker_reports_total").add();
    ship_chunk();
    return inner_->send(std::move(message));
  }

 private:
  void ship_chunk() {
    wire::TelemetryChunk chunk;
    chunk.slave_id = slave_id_;
    auto& tr = obs::tracer();
    chunk.worker_now_us = tr.now_us();
    if (tr.enabled()) {
      for (auto& event : tr.drain()) {
        wire::ChunkEvent out;
        out.name = event.name;
        out.phase = event.phase;
        out.tid = event.tid;
        out.ts_us = event.ts_us;
        out.dur_us = event.dur_us;
        out.args.reserve(event.args.size());
        for (const auto& arg : event.args) {
          out.args.emplace_back(arg.key, arg.value);
        }
        if (event.detail_key != nullptr) {
          out.has_detail = true;
          out.detail_key = event.detail_key;
          out.detail = std::move(event.detail);
        }
        chunk.events.push_back(std::move(out));
      }
    }
    for (auto& delta : obs::metrics().drain_counter_deltas()) {
      chunk.counter_deltas.emplace_back(std::move(delta.name), delta.delta);
    }
    if (chunk.events.empty() && chunk.counter_deltas.empty()) return;
    // Best-effort: on a dying link the report send right after fails too,
    // and the supervisor maps that to a fault from its own side.
    (void)socket_->send_frame(wire::encode_telemetry_chunk(chunk));
  }

  Transport* inner_;
  FrameSocket* socket_;
  std::uint32_t slave_id_;
};

}  // namespace

int run_worker(int fd) {
  FrameSocket socket(fd);
  auto frame = socket.read_frame(std::nullopt);
  if (!frame || frame->type != wire::MessageType::kHello) return 2;
  auto hello = wire::decode_hello(frame->payload);
  if (!hello) return 2;
  // The Hello flags mirror the master's telemetry state into this process:
  // the kill switch tracks the master's, and tracing starts a worker-side
  // timeline whose events ship back in TelemetryChunks.
  const bool want_trace = (hello->flags & wire::kHelloFlagTrace) != 0;
  const bool want_metrics = (hello->flags & wire::kHelloFlagMetrics) != 0;
  obs::set_telemetry_enabled(want_metrics || want_trace);
  if (want_trace) obs::tracer().set_enabled(true);
  // Decorators stack inside out: chaos on the socket, telemetry outermost.
  SocketTransport socket_transport(socket, hello->instance);
  Transport* transport = &socket_transport;
  std::optional<ChaosTransport> chaotic;
  const auto chaos = ChaosSchedule::from_env("PTS_CHAOS_");
  const auto crash_ppm = env_u32("PTS_CHAOS_CRASH_PPM");
  if (chaos.any() || crash_ppm > 0) {
    chaotic.emplace(socket_transport, socket, chaos, crash_ppm,
                    Rng(hello->seed ^ 0xC4A05C4A05ULL).derive(hello->slave_id));
    transport = &*chaotic;
  }
  std::optional<TelemetryChunkTransport> shipping;
  if (want_trace || want_metrics) {
    shipping.emplace(*transport, socket, hello->slave_id);
    transport = &*shipping;
  }
  // Drops counted by the loop have nowhere to go from a dying link; the
  // supervisor observes the same event from its side of the socket.
  (void)slave_loop(hello->instance, hello->slave_id, hello->seed, *transport);
  return 0;
}

}  // namespace pts::parallel
