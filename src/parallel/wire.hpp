#pragma once
// Wire format of the distributed backend (DESIGN.md §8): length-prefixed
// binary frames carrying the Section-4 protocol between the master's
// supervisor and a pts_worker process.
//
// Frame layout (all integers little-endian):
//
//   offset 0  u16  magic   0x5054 ("PT")
//   offset 2  u8   version kVersion — bumped on any payload layout change
//   offset 3  u8   type    MessageType
//   offset 4  u32  size    payload byte count (<= kMaxPayloadBytes)
//   offset 8  ...  payload
//
// Doubles travel as IEEE-754 bit patterns (bit-exact round trip), which is
// what makes `--backend=proc` reproduce `--backend=thread` result-for-result
// on a fixed seed: the worker computes on exactly the numbers the master
// serialized, not on a formatted approximation.
//
// Every decoder is total: truncated payloads, bad magic, unsupported
// versions, oversized or inconsistent length prefixes and absurd element
// counts all come back as a Status — never a crash, never an unbounded
// allocation. The frames originate from a child process we spawned, but the
// decoder trusts nothing: a crashing worker can hand us half a frame.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "bounds/reduction.hpp"
#include "mkp/instance.hpp"
#include "parallel/codec.hpp"
#include "parallel/comm.hpp"
#include "util/status.hpp"

namespace pts::parallel::wire {

inline constexpr std::uint16_t kMagic = 0x5054;  // "PT"
/// v2: Hello carries a trailing flags byte (telemetry opt-in) and the
/// worker->master direction gains the kTelemetry chunk message.
/// v3: the client/server frame range (kSubmitJob..kGoodbye) joins the
/// protocol — the network front-end (src/net/) speaks the same framed
/// header, so FrameSocket serves both the worker farm and remote clients.
inline constexpr std::uint8_t kVersion = 3;
inline constexpr std::size_t kHeaderBytes = 8;

/// Ceiling on one payload. A corrupt length prefix must be rejected before
/// any allocation happens, so a dying worker cannot OOM the supervisor.
inline constexpr std::uint32_t kMaxPayloadBytes = 64u << 20;

enum class MessageType : std::uint8_t {
  kHello = 1,       ///< master -> worker: identity + problem data
  kAssignment = 2,  ///< master -> worker: one round of work
  kStop = 3,        ///< master -> worker: shut down
  kReport = 4,      ///< worker -> master: round outcome
  kFault = 5,       ///< worker -> master: round died; SlaveFault payload
  kTelemetry = 6,   ///< worker -> master: TelemetryChunk (trace + metrics)

  // -- Client/server range (v3): the network front-end's request/response
  //    protocol. Payload layouts and codecs live in net/protocol.hpp; the
  //    types are registered here so decode_header stays the single
  //    total-decoder gate for every frame a FrameSocket can carry. --
  kSubmitJob = 16,  ///< client -> server: one submission (instance + options)
  kSubmitAck = 17,  ///< server -> client: admission verdict for a submission
  kJobEvent = 18,   ///< server -> client: streamed progress (anytime chunks)
  kJobResult = 19,  ///< server -> client: terminal result of a submission
  kCancelJob = 20,  ///< client -> server: cancel one accepted submission
  kGoodbye = 21,    ///< server -> client: draining / at capacity; no new work

  // -- Cluster peer range (v3): the coordinator/worker-node control
  //    protocol of src/cluster/ (DESIGN.md §11). Payload layouts and codecs
  //    live in cluster/peer_protocol.hpp; registered here so decode_header
  //    stays the single total-decoder gate for every frame a FrameSocket
  //    can carry. Job traffic between nodes rides the client range above —
  //    the peer range carries only membership, heartbeats and journal
  //    replication. --
  kPeerHello = 32,         ///< coordinator -> worker: join handshake
  kPeerWelcome = 33,       ///< worker -> coordinator: identity + applied seq
  kPeerPing = 34,          ///< coordinator -> worker: liveness probe
  kPeerPong = 35,          ///< worker -> coordinator: probe echo + load
  kPeerReplicate = 36,     ///< coordinator -> worker: journal record batch
  kPeerReplicateAck = 37,  ///< worker -> coordinator: applied-through seq
};

/// Validated header fields of one frame.
struct FrameHeader {
  std::uint8_t version = 0;
  MessageType type = MessageType::kStop;
  std::uint32_t payload_size = 0;
};

/// One frame after header validation: its type plus the raw payload.
struct Frame {
  MessageType type = MessageType::kStop;
  std::vector<std::uint8_t> payload;
};

/// Hello.flags bit: the master is tracing — enable the worker's tracer and
/// ship its drained trace events in TelemetryChunks before each report.
inline constexpr std::uint8_t kHelloFlagTrace = 1;
/// Hello.flags bit: the master's telemetry kill switch is on — keep the
/// worker's switch on too and ship its metrics-counter deltas in
/// TelemetryChunks. Cleared when the master runs with telemetry off, so the
/// kill-switch-off baseline pays zero chunk traffic.
inline constexpr std::uint8_t kHelloFlagMetrics = 2;

/// The proc backend's handshake — the paper's "read and send problem data
/// to the slaves" step, performed once per spawned worker (and again on
/// every respawn).
struct Hello {
  std::uint32_t slave_id = 0;
  std::uint64_t seed = 0;
  mkp::Instance instance;
  std::uint8_t flags = 0;
};

/// One trace event in transit inside a TelemetryChunk. Mirrors
/// obs::TraceEvent, but strings are owned — the receiving supervisor interns
/// names back into stable pointers before recording into its tracer.
struct ChunkEvent {
  std::string name;
  char phase = 'i';
  std::uint32_t tid = 0;
  std::int64_t ts_us = 0;
  std::int64_t dur_us = 0;
  std::vector<std::pair<std::string, double>> args;
  bool has_detail = false;
  std::string detail_key;
  std::string detail;
};

/// Worker -> master telemetry batch (DESIGN.md §6): the trace events the
/// worker recorded since its previous chunk plus the growth of its metrics
/// counters, stamped with the worker's current tracer clock so the
/// supervisor can offset timestamps onto the master timeline.
struct TelemetryChunk {
  std::uint32_t slave_id = 0;
  std::int64_t worker_now_us = 0;  ///< worker tracer clock at encode time
  std::vector<ChunkEvent> events;
  std::vector<std::pair<std::string, std::uint64_t>> counter_deltas;
};

/// Rejects bad magic, unsupported version, and a payload_size beyond
/// kMaxPayloadBytes. `bytes` must hold at least kHeaderBytes.
[[nodiscard]] Expected<FrameHeader> decode_header(
    std::span<const std::uint8_t> bytes);

/// One frame: the header, then `message`'s field list (parallel/codec.hpp),
/// then the payload size patched into the header. Every frame encoder of all
/// three ranges is this call; one buffer, no copy.
template <class M>
[[nodiscard]] std::vector<std::uint8_t> frame(MessageType type, const M& message) {
  codec::Writer w;
  w.u16(kMagic);
  w.u8(kVersion);
  w.u8(static_cast<std::uint8_t>(type));
  w.u32(0);  // payload size, patched below
  fields(w, message);
  const std::size_t payload = w.size() - kHeaderBytes;
  PTS_CHECK_MSG(payload <= kMaxPayloadBytes,
                "outgoing frame exceeds kMaxPayloadBytes");
  w.patch_u32(4, static_cast<std::uint32_t>(payload));
  return w.take();
}

// -- Encoders. Each returns a complete frame, header included. --

[[nodiscard]] std::vector<std::uint8_t> encode_hello(const Hello& hello);
[[nodiscard]] std::vector<std::uint8_t> encode_assignment(const Assignment& assignment);
/// Header only: a kStop frame has no payload.
[[nodiscard]] std::vector<std::uint8_t> encode_stop();
[[nodiscard]] std::vector<std::uint8_t> encode_from_slave(const FromSlave& message);
[[nodiscard]] std::vector<std::uint8_t> encode_telemetry_chunk(
    const TelemetryChunk& chunk);

// -- Payload decoders (payload only — the header is consumed by the frame
//    reader). Solutions are rebuilt against `inst`, whose item count must
//    match what was serialized. --

[[nodiscard]] Expected<Hello> decode_hello(std::span<const std::uint8_t> payload);
[[nodiscard]] Expected<Assignment> decode_assignment(
    std::span<const std::uint8_t> payload, const mkp::Instance& inst);
[[nodiscard]] Expected<FromSlave> decode_from_slave(
    MessageType type, std::span<const std::uint8_t> payload,
    const mkp::Instance& inst);
[[nodiscard]] Expected<TelemetryChunk> decode_telemetry_chunk(
    std::span<const std::uint8_t> payload);

// -- Standalone sub-codecs for the two structured value types the protocol
//    nests (tests and tooling drive these directly). Decoding requires the
//    buffer to be fully consumed. --

[[nodiscard]] std::vector<std::uint8_t> encode_solution(
    const mkp::Solution& solution);
[[nodiscard]] Expected<mkp::Solution> decode_solution(
    std::span<const std::uint8_t> bytes, const mkp::Instance& inst);

[[nodiscard]] std::vector<std::uint8_t> encode_strategy(
    const tabu::Strategy& strategy);
[[nodiscard]] Expected<tabu::Strategy> decode_strategy(
    std::span<const std::uint8_t> bytes);

// -- Open-stream sub-codecs over the shared codec (parallel/codec.hpp), for
//    callers that hold a Writer/Reader mid-stream. get_* latch failures in
//    the reader (or return a Status where rebuilding needs an instance);
//    callers check once, per the total-decoder convention. --

void put_solution(codec::Writer& w, const mkp::Solution& solution);
[[nodiscard]] Expected<mkp::Solution> get_solution(codec::Reader& r,
                                                   const mkp::Instance& inst);

void put_strategy(codec::Writer& w, const tabu::Strategy& strategy);
[[nodiscard]] tabu::Strategy get_strategy(codec::Reader& r);

/// The instance section of the Hello handshake (name, sizes, profits,
/// weights, capacities, known optimum), reusable standalone: the journal
/// persists submitted jobs' instances with it, and the snapshot fingerprints
/// the running instance by hashing these bytes.
void put_instance(codec::Writer& w, const mkp::Instance& inst);
[[nodiscard]] Expected<mkp::Instance> get_instance(codec::Reader& r);

/// Core-reduction fixing status (bounds::FixedValue per original variable),
/// one byte each behind a count. The v2 snapshot embeds it so a resumed
/// run can verify its rederived reduction matches the checkpointed one.
/// Rejects counts that cannot fit the remaining buffer and any byte that is
/// not a FixedValue enumerator.
void put_fixed_status(codec::Writer& w, std::span<const bounds::FixedValue> status);
[[nodiscard]] Expected<std::vector<bounds::FixedValue>> get_fixed_status(
    codec::Reader& r);

/// The fewest bytes one encoded solution can occupy (its bitvec words): the
/// min_bytes annotation of every solution list. Writers never need it.
inline std::size_t solution_min_bytes(const codec::Writer& /*w*/) { return 0; }
inline std::size_t solution_min_bytes(const codec::Reader& r) {
  return 8 + r.instance().num_items() / 8;
}

}  // namespace pts::parallel::wire

// -- Field lists of the values every format nests (parallel/codec.hpp). Each
//    lives in its type's namespace so `fields(v, x)` finds it by ADL. --

namespace pts::mkp {

// Solutions and instances are leaves: they are built through validating
// constructors, and a solution's decode re-checks its value against its
// bits, so both codecs are explicit code (wire.cpp). Layouts:
//   Solution: u32 items | u32 words | words x u64 | f64 value
//   Instance: str name | u32 n | u32 m | n profits | n*m weights (row-major)
//             | m capacities | u8 has_optimum | f64 optimum
void fields(parallel::codec::Writer& w, const Solution& solution);
void fields(parallel::codec::Reader& r, Solution& solution);
void fields(parallel::codec::Writer& w, const Instance& inst);
void fields(parallel::codec::Reader& r, Instance& inst);

}  // namespace pts::mkp

namespace pts::tabu {

template <class V, parallel::codec::Of<Strategy> M>
void fields(V& v, M& s) {
  v.u64(s.tabu_tenure);
  v.u64(s.nb_drop);
  v.u64(s.nb_local);
  v.u64(s.nb_candidates);
}

}  // namespace pts::tabu

namespace pts::obs {

template <class V, parallel::codec::Of<AnytimeSample> M>
void fields(V& v, M& s) {
  v.i32(s.source);
  v.f64(s.seconds);
  v.u64(s.work_units);
  v.f64(s.value);
}
/// Bytes per encoded AnytimeSample (the min_bytes of sample lists).
inline constexpr std::size_t kAnytimeSampleBytes = 28;

}  // namespace pts::obs

namespace pts::bounds {

template <class V, parallel::codec::Of<FixedValue> M>
void fields(V& v, M& value) {
  v.enumeration(value, FixedValue::kFree, FixedValue::kOne);
}

}  // namespace pts::bounds
