#pragma once
// Request/response protocol of the network front-end (DESIGN.md §10): the
// client-facing half of the wire format. A pts_client (or the embedded
// net::Client library) speaks these frames to a pts_serve daemon over a TCP
// FrameSocket — the same 8-byte header, version byte and 64MiB payload
// ceiling as the worker protocol (parallel/wire.hpp), with the frame types
// of the v3 client range (kSubmitJob..kGoodbye).
//
// Multiplexing. One connection carries many submissions concurrently. The
// client stamps every SubmitJob with a connection-local `request_id`; the
// server echoes it on the ack, on every streamed event and on the terminal
// result, so responses demultiplex without any ordering assumption (a result
// for request 3 may arrive before the ack for request 5).
//
// Total decoders. Every decoder here follows the wire discipline: truncated
// payloads, absurd counts, unknown enum bytes and over-long strings come
// back as a Status — never a crash, never an unbounded allocation. The
// frames cross a machine boundary, so the server trusts nothing a client
// sends and vice versa.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "mkp/instance.hpp"
#include "obs/anytime.hpp"
#include "parallel/wire.hpp"
#include "service/job.hpp"
#include "util/status.hpp"

namespace pts::net {

/// Sets TCP_NODELAY and SO_KEEPALIVE on a connected TCP socket (DESIGN.md
/// §10). Both ends of every TCP connection the front end and the cluster
/// make pass here, from Server::accept_connection or from the connect that
/// PendingDial::finish completes; the proc backend's AF_UNIX socketpairs
/// never do.
///
/// TCP_NODELAY: every frame goes out whole in one send, so Nagle can only
/// hold one back, and it does: a small frame written while the previous one
/// is unacknowledged (a JobEvent, then the JobResult) waits for the peer's
/// delayed ACK, up to 40 ms on Linux. SO_KEEPALIVE: kernel liveness probing
/// backs up the idle reap and the heartbeats, so a peer that is gone (not
/// merely quiet) eventually errors the fd.
void configure_tcp_connection(int fd);

/// Ceiling on anytime samples per kJobEvent frame: long runs stream their
/// curve in chunks instead of one outsized frame.
inline constexpr std::size_t kMaxAnytimeSamplesPerEvent = 4096;

/// client -> server: one submission. Everything SolverService::submit needs,
/// flattened for the wire: the instance (wire::put_instance bytes — the
/// server's content address is computed over exactly these), the tenant and
/// per-caller urgency, the warm-start policy, the dedup opt-out and the full
/// JobOptions (journal codec). The server overrides options.proc.worker_path
/// with its own configuration — a client-side path names a binary on the
/// wrong machine.
struct SubmitJob {
  std::uint64_t request_id = 0;
  service::TenantId tenant;
  int priority = 0;
  std::optional<double> deadline_seconds;
  service::WarmStartPolicy warm_start = service::WarmStartPolicy::kDisabled;
  bool allow_dedup = true;
  service::JobOptions options;
  mkp::Instance instance;
};

/// server -> client: the admission verdict for one SubmitJob. A non-OK
/// status is the submit() Status (invalid options, backpressure, shutdown) —
/// no further frames follow for that request. An OK ack promises exactly one
/// terminal kJobResult (possibly preceded by kJobEvent frames).
struct SubmitAck {
  std::uint64_t request_id = 0;
  Status status;
  service::JobId job_id = 0;       ///< server-side id (cancel/journal identity)
  std::uint64_t content_hash = 0;  ///< instance content address
  bool deduplicated = false;       ///< attached to an identical in-flight solve
};

/// server -> client: streamed progress for one accepted submission. Today
/// the one event kind is a chunk of the run's anytime curve (streamed after
/// the run, before the result frame, in kMaxAnytimeSamplesPerEvent slices);
/// the kind byte keeps room for richer mid-run events.
struct JobEvent {
  std::uint64_t request_id = 0;
  enum class Kind : std::uint8_t { kAnytimeChunk = 1 };
  Kind kind = Kind::kAnytimeChunk;
  std::vector<obs::AnytimeSample> anytime;
};

/// server -> client: the terminal result of one accepted submission — the
/// wire image of service::JobResult minus the fields the client already owns
/// (the instance) or that do not cross processes (the counters block). The
/// solution decodes against the client's own copy of the instance.
struct JobResultFrame {
  std::uint64_t request_id = 0;
  Status status;
  service::JobOrigin origin = service::JobOrigin::kFresh;
  double best_value = 0.0;
  std::optional<mkp::Solution> best;
  std::uint64_t total_moves = 0;
  bool reached_target = false;
  std::uint64_t slave_faults = 0;
  double queue_seconds = 0.0;
  double run_seconds = 0.0;
  std::uint64_t start_sequence = 0;
  service::TenantId tenant;
  std::uint64_t content_hash = 0;
  bool deduplicated = false;
  bool warm_started = false;
};

/// client -> server: cancel one accepted submission (this waiter only — a
/// deduplicated solve keeps running for everyone else). Unknown or already
/// resolved ids are ignored; the result frame is the authoritative outcome.
struct CancelJob {
  std::uint64_t request_id = 0;
};

/// server -> client: the server will accept no further submissions on this
/// connection (graceful drain, or the connection cap). In-flight work still
/// resolves; the server closes the connection after the last result.
struct Goodbye {
  std::string reason;
};

// -- Encoders. Each returns a complete frame, header included. --

[[nodiscard]] std::vector<std::uint8_t> encode_submit_job(const SubmitJob& m);
[[nodiscard]] std::vector<std::uint8_t> encode_submit_ack(const SubmitAck& m);
[[nodiscard]] std::vector<std::uint8_t> encode_job_event(const JobEvent& m);
[[nodiscard]] std::vector<std::uint8_t> encode_job_result(const JobResultFrame& m);
[[nodiscard]] std::vector<std::uint8_t> encode_cancel_job(const CancelJob& m);
[[nodiscard]] std::vector<std::uint8_t> encode_goodbye(const Goodbye& m);

// -- Payload decoders (payload only — the header is consumed by the frame
//    reader). All total. decode_job_result rebuilds the solution against
//    `inst`, the submitter's own copy of the instance. --

[[nodiscard]] Expected<SubmitJob> decode_submit_job(
    std::span<const std::uint8_t> payload);
[[nodiscard]] Expected<SubmitAck> decode_submit_ack(
    std::span<const std::uint8_t> payload);
[[nodiscard]] Expected<JobEvent> decode_job_event(
    std::span<const std::uint8_t> payload);
[[nodiscard]] Expected<JobResultFrame> decode_job_result(
    std::span<const std::uint8_t> payload, const mkp::Instance& inst);
[[nodiscard]] Expected<CancelJob> decode_cancel_job(
    std::span<const std::uint8_t> payload);
[[nodiscard]] Expected<Goodbye> decode_goodbye(
    std::span<const std::uint8_t> payload);

}  // namespace pts::net
