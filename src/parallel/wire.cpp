#include "parallel/wire.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace pts::parallel::wire {

using codec::Reader;
using codec::Writer;

namespace {

Status truncated(const char* what) {
  return Status::invalid_argument(std::string("wire: truncated or corrupt ") +
                                  what + " payload");
}

/// Reads a solution's bits into `solution`, which must be empty (the
/// decoder's blank over the expected instance).
Status read_solution(Reader& r, mkp::Solution& solution) {
  PTS_DCHECK(solution.cardinality() == 0);
  const auto& inst = solution.instance();
  const auto n_bits = r.u32();
  const auto n_words = r.u32();
  if (!r.ok()) return truncated("solution");
  if (n_bits != inst.num_items()) {
    return Status::invalid_argument(
        "wire: solution is over " + std::to_string(n_bits) +
        " items but the instance has " + std::to_string(inst.num_items()));
  }
  if (n_words != (n_bits + 63) / 64 || !r.plausible_count(n_words, 8)) {
    return truncated("solution bitvec");
  }
  for (std::uint32_t k = 0; k < n_words; ++k) {
    std::uint64_t word = r.u64();
    if (!r.ok()) return truncated("solution bitvec");
    while (word != 0) {
      const auto bit = static_cast<std::size_t>(std::countr_zero(word));
      const std::size_t j = k * 64 + bit;
      if (j >= inst.num_items()) {
        return Status::invalid_argument("wire: solution has bits past item count");
      }
      solution.add(j);
      word &= word - 1;
    }
  }
  const double claimed = r.f64();
  if (!r.ok()) return truncated("solution");
  // Integrity check: the serialized value must match what the bits imply.
  // A mismatch means the frame was corrupted in flight (or the peer runs a
  // different objective) — poisoning the master's incumbent would be silent
  // and permanent, so reject the message instead.
  const double rebuilt = solution.value();
  const double tol = 1e-6 * std::max(1.0, std::abs(rebuilt));
  if (!(std::abs(claimed - rebuilt) <= tol)) {
    return Status::invalid_argument("wire: solution value does not match its bits");
  }
  return Status{};
}

}  // namespace

// ---------------------------------------------------------------------------
// Open-stream sub-codecs: thin shells over the field lists.
// ---------------------------------------------------------------------------

void put_solution(Writer& w, const mkp::Solution& solution) {
  fields(w, solution);
}

Expected<mkp::Solution> get_solution(Reader& r, const mkp::Instance& inst) {
  mkp::Solution solution(inst);
  if (auto status = read_solution(r, solution); !status.ok()) return status;
  return solution;
}

void put_strategy(Writer& w, const tabu::Strategy& strategy) {
  fields(w, strategy);
}

tabu::Strategy get_strategy(Reader& r) {
  tabu::Strategy strategy;
  fields(r, strategy);
  return strategy;
}

void put_instance(Writer& w, const mkp::Instance& inst) {
  fields(w, inst);
}

Expected<mkp::Instance> get_instance(Reader& r) {
  auto name = r.str(/*max_len=*/4096);
  const auto n = r.u32();
  const auto m = r.u32();
  if (!r.ok()) return truncated("instance");
  if (n == 0 || m == 0) {
    return Status::invalid_argument("wire: serialized instance is empty");
  }
  // Every matrix entry still has to fit in the remaining payload.
  if (!r.plausible_count(static_cast<std::uint64_t>(n) * m + n + m, 8)) {
    return truncated("instance matrix");
  }
  auto profits = r.f64_vec(n);
  auto weights = r.f64_vec(static_cast<std::size_t>(n) * m);
  auto capacities = r.f64_vec(m);
  const bool has_opt = r.u8() != 0;
  const double opt = r.f64();
  if (!r.ok()) return truncated("instance");
  mkp::Instance inst(std::move(name), std::move(profits), std::move(weights),
                     std::move(capacities));
  if (has_opt) inst.set_known_optimum(opt);
  return inst;
}

void put_fixed_status(Writer& w, std::span<const bounds::FixedValue> status) {
  w.seq(status, 1);
}

Expected<std::vector<bounds::FixedValue>> get_fixed_status(Reader& r) {
  std::vector<bounds::FixedValue> status;
  r.seq(status, 1);
  if (auto verdict = r.status("fixing status"); !verdict.ok()) return verdict;
  return status;
}

}  // namespace pts::parallel::wire

namespace pts::parallel::codec {

const mkp::Instance& blank_instance() {
  static const mkp::Instance blank("", {0.0}, {0.0}, {0.0});
  return blank;
}

}  // namespace pts::parallel::codec

namespace pts::mkp {

void fields(parallel::codec::Writer& w, const Solution& solution) {
  w.u32(static_cast<std::uint32_t>(solution.num_items()));
  const auto& words = solution.bits().words();
  w.u32(static_cast<std::uint32_t>(words.size()));
  for (const auto word : words) w.u64(word);
  w.f64(solution.value());
}

void fields(parallel::codec::Reader& r, Solution& solution) {
  if (!r.ok()) return;
  if (auto status = parallel::wire::read_solution(r, solution); !status.ok()) {
    r.fail(std::move(status));
  }
}

void fields(parallel::codec::Writer& w, const Instance& inst) {
  w.str(inst.name());
  w.u32(static_cast<std::uint32_t>(inst.num_items()));
  w.u32(static_cast<std::uint32_t>(inst.num_constraints()));
  w.f64_span(inst.profits());
  for (std::size_t i = 0; i < inst.num_constraints(); ++i) {
    w.f64_span(inst.weights_row(i));
  }
  w.f64_span(inst.capacities());
  w.u8(inst.known_optimum().has_value() ? 1 : 0);
  w.f64(inst.known_optimum().value_or(0.0));
}

void fields(parallel::codec::Reader& r, Instance& inst) {
  if (!r.ok()) return;
  auto decoded = parallel::wire::get_instance(r);
  if (!decoded) return r.fail(decoded.status());
  inst = std::move(*decoded);
}

}  // namespace pts::mkp

// ---------------------------------------------------------------------------
// Field lists of the worker range (DESIGN.md §8).
// ---------------------------------------------------------------------------

namespace pts::tabu {

template <class V, parallel::codec::Of<TsParams> M>
void fields(V& v, M& p) {
  fields(v, p.strategy);
  v.u64(p.nb_div);
  v.u64(p.nb_int);
  v.u64(p.b_best);
  v.enumeration(p.intensification, IntensificationKind::kNone,
                IntensificationKind::kStrategicOscillation);
  v.u64(p.oscillation_depth);
  v.enumeration(p.tenure_control, TenureControl::kFixed,
                TenureControl::kReactive);
  v.f64(p.high_frequency);
  v.f64(p.low_frequency);
  v.u64(p.diversify_hold);
  v.u64(p.max_moves);
  v.f64(p.time_limit_seconds);
  v.optional_f64(p.target_value);
  v.flag(p.run_to_budget);
  // TsParams::cancel deliberately does not travel: a process boundary has no
  // shared stop flag. The proc backend ends an idle worker by closing its
  // socket and one still mid-round by SIGKILL (see proc_backend.hpp).
}

}  // namespace pts::tabu

namespace pts::obs {

template <class V, parallel::codec::Of<Counters> M>
void fields(V& v, M& counters) {
  std::uint32_t count = kCounterCount;
  v.u32(count);
  // Strict: both ends are built from the same taxonomy; a mismatch means a
  // version skew the header byte should have caught.
  v.check(count == kCounterCount, "counter block does not match the taxonomy");
  for (auto& slot : counters.slots) v.u64(slot);
}

}  // namespace pts::obs

namespace pts::parallel {

template <class V, codec::Of<Assignment> M>
void fields(V& v, M& m) {
  v.u64(m.round);
  fields(v, m.initial);
  fields(v, m.params);
}

template <class V, codec::Of<Report> M>
void fields(V& v, M& m) {
  v.u32(m.slave_id);
  v.u64(m.round);
  v.f64(m.initial_value);
  v.f64(m.final_value);
  v.seq(m.elite, wire::solution_min_bytes(v));
  v.u64(m.moves);
  v.f64(m.seconds);
  v.flag(m.reached_target);
  fields(v, m.counters);
  v.seq(m.anytime, obs::kAnytimeSampleBytes);
}

template <class V, codec::Of<SlaveFault> M>
void fields(V& v, M& m) {
  v.u32(m.slave_id);
  v.u64(m.round);
  v.str(m.what, /*max_len=*/65536);
}

}  // namespace pts::parallel

namespace pts::parallel::wire {

template <class V, codec::Of<Hello> M>
void fields(V& v, M& m) {
  v.u32(m.slave_id);
  v.u64(m.seed);
  fields(v, m.instance);
  v.u8(m.flags);
}

template <class V, codec::Of<ChunkEvent> M>
void fields(V& v, M& e) {
  v.str(e.name, /*max_len=*/256);
  v.u8(e.phase);
  // The tracer only ever emits these phases; anything else is corruption.
  v.check(e.phase == 'X' || e.phase == 'i' || e.phase == 'C' || e.phase == 'M',
          "telemetry event has unknown phase");
  v.u32(e.tid);
  v.u64(e.ts_us);
  v.u64(e.dur_us);
  v.seq(e.args, /*min_bytes=*/10, /*max_count=*/64, [](auto& sub, auto& arg) {
    sub.str(arg.first, /*max_len=*/256);
    sub.f64(arg.second);
  });
  v.flag(e.has_detail);
  if (e.has_detail) {
    v.str(e.detail_key, /*max_len=*/256);
    v.str(e.detail, /*max_len=*/4096);
  }
}

template <class V, codec::Of<TelemetryChunk> M>
void fields(V& v, M& m) {
  v.u32(m.slave_id);
  v.u64(m.worker_now_us);
  // A serialized event costs at least name-length + fixed fields.
  v.seq(m.events, /*min_bytes=*/24);
  v.seq(m.counter_deltas, /*min_bytes=*/10, codec::kUncapped,
        [](auto& sub, auto& delta) {
          sub.str(delta.first, /*max_len=*/256);
          sub.u64(delta.second);
        });
}

Expected<FrameHeader> decode_header(std::span<const std::uint8_t> bytes) {
  Reader r(bytes);
  FrameHeader header;
  const auto magic = r.u16();
  header.version = r.u8();
  const auto type = r.u8();
  header.payload_size = r.u32();
  if (!r.ok()) return Status::invalid_argument("wire: short frame header");
  if (magic != kMagic) return Status::invalid_argument("wire: bad frame magic");
  if (header.version != kVersion) {
    return Status::invalid_argument("wire: unsupported version " +
                                    std::to_string(header.version) +
                                    " (expected " + std::to_string(kVersion) + ")");
  }
  const bool worker_range =
      type >= static_cast<std::uint8_t>(MessageType::kHello) &&
      type <= static_cast<std::uint8_t>(MessageType::kTelemetry);
  const bool client_range =
      type >= static_cast<std::uint8_t>(MessageType::kSubmitJob) &&
      type <= static_cast<std::uint8_t>(MessageType::kGoodbye);
  const bool peer_range =
      type >= static_cast<std::uint8_t>(MessageType::kPeerHello) &&
      type <= static_cast<std::uint8_t>(MessageType::kPeerReplicateAck);
  if (!worker_range && !client_range && !peer_range) {
    return Status::invalid_argument("wire: unknown message type " +
                                    std::to_string(type));
  }
  header.type = static_cast<MessageType>(type);
  if (header.payload_size > kMaxPayloadBytes) {
    return Status::invalid_argument("wire: payload length " +
                                    std::to_string(header.payload_size) +
                                    " exceeds the frame ceiling");
  }
  return header;
}

std::vector<std::uint8_t> encode_hello(const Hello& hello) {
  return frame(MessageType::kHello, hello);
}

Expected<Hello> decode_hello(std::span<const std::uint8_t> payload) {
  return codec::decode(payload, Hello{0, 0, codec::blank_instance(), 0}, "hello");
}

std::vector<std::uint8_t> encode_telemetry_chunk(const TelemetryChunk& chunk) {
  return frame(MessageType::kTelemetry, chunk);
}

Expected<TelemetryChunk> decode_telemetry_chunk(
    std::span<const std::uint8_t> payload) {
  return codec::decode(payload, TelemetryChunk{}, "telemetry chunk");
}

std::vector<std::uint8_t> encode_assignment(const Assignment& assignment) {
  return frame(MessageType::kAssignment, assignment);
}

namespace {

/// The kStop frame's body: none, the header is the whole message.
struct NoPayload {};

template <class V, codec::Of<NoPayload> M>
void fields(V& /*v*/, M& /*m*/) {}

}  // namespace

std::vector<std::uint8_t> encode_stop() {
  return frame(MessageType::kStop, NoPayload{});
}

Expected<Assignment> decode_assignment(std::span<const std::uint8_t> payload,
                                       const mkp::Instance& inst) {
  return codec::decode(payload, Assignment{0, mkp::Solution(inst), {}},
                       "assignment", &inst);
}

namespace {

/// Decodes one alternative `M` of the message variant `Variant`.
template <class Variant, class M>
Expected<Variant> decode_as(std::span<const std::uint8_t> payload, M blank,
                            const char* what, const mkp::Instance& inst) {
  auto message = codec::decode(payload, std::move(blank), what, &inst);
  if (!message) return message.status();
  return Variant{std::move(*message)};
}

}  // namespace

std::vector<std::uint8_t> encode_from_slave(const FromSlave& message) {
  if (const auto* fault = std::get_if<SlaveFault>(&message)) {
    return frame(MessageType::kFault, *fault);
  }
  return frame(MessageType::kReport, std::get<Report>(message));
}

Expected<FromSlave> decode_from_slave(MessageType type,
                                      std::span<const std::uint8_t> payload,
                                      const mkp::Instance& inst) {
  if (type == MessageType::kFault) {
    return decode_as<FromSlave>(payload, SlaveFault{}, "fault", inst);
  }
  if (type == MessageType::kReport) {
    return decode_as<FromSlave>(payload, Report{}, "report", inst);
  }
  return Status::invalid_argument("wire: unexpected slave->master type " +
                                  std::to_string(static_cast<int>(type)));
}

std::vector<std::uint8_t> encode_solution(const mkp::Solution& solution) {
  return codec::encode(solution);
}

Expected<mkp::Solution> decode_solution(std::span<const std::uint8_t> bytes,
                                        const mkp::Instance& inst) {
  return codec::decode(bytes, mkp::Solution(inst), "solution", &inst);
}

std::vector<std::uint8_t> encode_strategy(const tabu::Strategy& strategy) {
  return codec::encode(strategy);
}

Expected<tabu::Strategy> decode_strategy(std::span<const std::uint8_t> bytes) {
  return codec::decode(bytes, tabu::Strategy{}, "strategy");
}

}  // namespace pts::parallel::wire
