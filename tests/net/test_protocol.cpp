// Client-protocol codec tests (DESIGN.md §10): every frame of the v3 client
// range round-trips bit-exactly, and every decoder is total — corrupt
// headers, absurd length prefixes, unknown enum bytes and trailing garbage
// come back as a Status, never a crash or an unbounded allocation. These
// frames cross a machine boundary; the truncation and bit-flip sweeps over
// them live in the codec harness (tests/codec/test_codec_harness.cpp).
#include "net/protocol.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "bounds/greedy.hpp"
#include "mkp/generator.hpp"
#include "util/rng.hpp"

namespace pts::net {
namespace {

namespace wire = parallel::wire;

mkp::Instance make_instance(std::uint64_t seed = 1) {
  return mkp::generate_gk({.num_items = 40, .num_constraints = 5}, seed);
}

mkp::Solution make_solution(const mkp::Instance& inst) {
  Rng rng(17);
  return bounds::greedy_randomized(inst, rng);
}

SubmitJob make_submit(const mkp::Instance& inst) {
  service::JobOptions options;
  options.preset = "thorough";
  options.time_budget_seconds = 0.625;
  options.seed = 99;
  options.target_value = 1234.5;
  options.mode = parallel::CooperationMode::kCooperativeAdaptive;
  options.backend = parallel::Backend::kProcess;
  options.proc.worker_path = "/does/not/matter";
  options.core_reduction = true;
  return SubmitJob{/*request_id=*/7,
                   /*tenant=*/"prod",
                   /*priority=*/3,
                   /*deadline_seconds=*/2.5,
                   service::WarmStartPolicy::kSimilar,
                   /*allow_dedup=*/false,
                   std::move(options),
                   mkp::Instance(inst)};
}

/// Splits an encoded frame into its validated header and payload view.
std::span<const std::uint8_t> payload_of(const std::vector<std::uint8_t>& frame,
                                         wire::MessageType expected) {
  auto header = wire::decode_header(frame);
  EXPECT_TRUE(header) << header.status().to_string();
  if (header) {
    EXPECT_EQ(header->type, expected);
  }
  return std::span<const std::uint8_t>(frame).subspan(wire::kHeaderBytes);
}

TEST(NetProtocol, SubmitJobRoundTrip) {
  const auto inst = make_instance();
  const auto m = make_submit(inst);
  const auto frame = encode_submit_job(m);
  const auto decoded =
      decode_submit_job(payload_of(frame, wire::MessageType::kSubmitJob));
  ASSERT_TRUE(decoded) << decoded.status().to_string();
  EXPECT_EQ(decoded->request_id, 7u);
  EXPECT_EQ(decoded->tenant, "prod");
  EXPECT_EQ(decoded->priority, 3);
  ASSERT_TRUE(decoded->deadline_seconds.has_value());
  EXPECT_EQ(*decoded->deadline_seconds, 2.5);
  EXPECT_EQ(decoded->warm_start, service::WarmStartPolicy::kSimilar);
  EXPECT_FALSE(decoded->allow_dedup);
  EXPECT_EQ(decoded->options.preset, "thorough");
  EXPECT_EQ(decoded->options.time_budget_seconds, 0.625);
  EXPECT_EQ(decoded->options.seed, 99u);
  ASSERT_TRUE(decoded->options.target_value.has_value());
  EXPECT_EQ(*decoded->options.target_value, 1234.5);
  ASSERT_TRUE(decoded->options.mode.has_value());
  EXPECT_EQ(*decoded->options.mode, parallel::CooperationMode::kCooperativeAdaptive);
  ASSERT_TRUE(decoded->options.backend.has_value());
  EXPECT_EQ(*decoded->options.backend, parallel::Backend::kProcess);
  EXPECT_TRUE(decoded->options.core_reduction);
  // The instance survives bit-exactly — the server's content address is
  // computed over these bytes, so any drift would fragment dedup.
  EXPECT_EQ(decoded->instance.num_items(), inst.num_items());
  EXPECT_EQ(decoded->instance.num_constraints(), inst.num_constraints());
  for (std::size_t j = 0; j < inst.num_items(); ++j) {
    EXPECT_EQ(decoded->instance.profit(j), inst.profit(j));
  }
}

TEST(NetProtocol, SubmitJobWithoutDeadlineRoundTrips) {
  const auto inst = make_instance();
  auto m = make_submit(inst);
  m.deadline_seconds.reset();
  const auto frame = encode_submit_job(m);
  const auto decoded =
      decode_submit_job(payload_of(frame, wire::MessageType::kSubmitJob));
  ASSERT_TRUE(decoded) << decoded.status().to_string();
  EXPECT_FALSE(decoded->deadline_seconds.has_value());
}

TEST(NetProtocol, SubmitAckRoundTrip) {
  SubmitAck m;
  m.request_id = 11;
  m.status = Status::resource_exhausted("queue full");
  m.job_id = 42;
  m.content_hash = 0xDEADBEEFCAFEF00Dull;
  m.deduplicated = true;
  const auto frame = encode_submit_ack(m);
  const auto decoded =
      decode_submit_ack(payload_of(frame, wire::MessageType::kSubmitAck));
  ASSERT_TRUE(decoded) << decoded.status().to_string();
  EXPECT_EQ(decoded->request_id, 11u);
  EXPECT_EQ(decoded->status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(decoded->status.message(), "queue full");
  EXPECT_EQ(decoded->job_id, 42u);
  EXPECT_EQ(decoded->content_hash, 0xDEADBEEFCAFEF00Dull);
  EXPECT_TRUE(decoded->deduplicated);
}

TEST(NetProtocol, JobEventRoundTripIsBitExact) {
  JobEvent m;
  m.request_id = 5;
  m.anytime = {{obs::kGlobalSource, 0.125, 100, 17.5},
               {/*source=*/2, 1.75, 900, 42.0}};
  const auto frame = encode_job_event(m);
  const auto decoded =
      decode_job_event(payload_of(frame, wire::MessageType::kJobEvent));
  ASSERT_TRUE(decoded) << decoded.status().to_string();
  EXPECT_EQ(decoded->request_id, 5u);
  ASSERT_EQ(decoded->anytime.size(), 2u);
  EXPECT_EQ(decoded->anytime[0].source, obs::kGlobalSource);
  const double seconds = decoded->anytime[1].seconds;
  const double expected = 1.75;
  EXPECT_EQ(std::memcmp(&seconds, &expected, sizeof(double)), 0);
  EXPECT_EQ(decoded->anytime[1].work_units, 900u);
}

TEST(NetProtocol, JobResultRoundTrip) {
  const auto inst = make_instance();
  JobResultFrame m;
  m.request_id = 13;
  m.status = Status::deadline_exceeded("missed it");
  m.origin = service::JobOrigin::kResumed;
  m.best = make_solution(inst);
  m.best_value = m.best->value();
  m.total_moves = 123456;
  m.reached_target = true;
  m.slave_faults = 2;
  m.queue_seconds = 0.25;
  m.run_seconds = 1.5;
  m.start_sequence = 9;
  m.tenant = "batch";
  m.content_hash = 0x1122334455667788ull;
  m.deduplicated = true;
  m.warm_started = true;
  const auto frame = encode_job_result(m);
  const auto decoded = decode_job_result(
      payload_of(frame, wire::MessageType::kJobResult), inst);
  ASSERT_TRUE(decoded) << decoded.status().to_string();
  EXPECT_EQ(decoded->request_id, 13u);
  EXPECT_EQ(decoded->status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(decoded->origin, service::JobOrigin::kResumed);
  ASSERT_TRUE(decoded->best.has_value());
  EXPECT_EQ(*decoded->best, *m.best);
  const double got = decoded->best_value;
  EXPECT_EQ(std::memcmp(&got, &m.best_value, sizeof(double)), 0);
  EXPECT_EQ(decoded->total_moves, 123456u);
  EXPECT_TRUE(decoded->reached_target);
  EXPECT_EQ(decoded->slave_faults, 2u);
  EXPECT_EQ(decoded->start_sequence, 9u);
  EXPECT_EQ(decoded->tenant, "batch");
  EXPECT_EQ(decoded->content_hash, 0x1122334455667788ull);
  EXPECT_TRUE(decoded->deduplicated);
  EXPECT_TRUE(decoded->warm_started);
}

TEST(NetProtocol, JobResultWithoutSolutionRoundTrips) {
  const auto inst = make_instance();
  JobResultFrame m;
  m.request_id = 1;
  m.status = Status::invalid_argument("unknown preset 'warp-speed'");
  const auto frame = encode_job_result(m);
  const auto decoded = decode_job_result(
      payload_of(frame, wire::MessageType::kJobResult), inst);
  ASSERT_TRUE(decoded) << decoded.status().to_string();
  EXPECT_FALSE(decoded->best.has_value());
  EXPECT_EQ(decoded->status.code(), StatusCode::kInvalidArgument);
}

TEST(NetProtocol, CancelAndGoodbyeRoundTrip) {
  const auto cancel_frame = encode_cancel_job({/*request_id=*/21});
  const auto cancel = decode_cancel_job(
      payload_of(cancel_frame, wire::MessageType::kCancelJob));
  ASSERT_TRUE(cancel) << cancel.status().to_string();
  EXPECT_EQ(cancel->request_id, 21u);

  const auto goodbye_frame = encode_goodbye({"draining for restart"});
  const auto goodbye = decode_goodbye(
      payload_of(goodbye_frame, wire::MessageType::kGoodbye));
  ASSERT_TRUE(goodbye) << goodbye.status().to_string();
  EXPECT_EQ(goodbye->reason, "draining for restart");
}

// -- Header hardening for the client range. --

TEST(NetProtocolHeader, RejectsBadMagic) {
  auto frame = encode_cancel_job({1});
  frame[0] ^= 0xFF;
  const auto header = wire::decode_header(frame);
  ASSERT_FALSE(header);
  EXPECT_EQ(header.status().code(), StatusCode::kInvalidArgument);
}

TEST(NetProtocolHeader, RejectsBadVersion) {
  auto frame = encode_cancel_job({1});
  frame[2] = wire::kVersion + 1;
  EXPECT_FALSE(wire::decode_header(frame));
}

TEST(NetProtocolHeader, RejectsTypeBetweenWorkerAndClientRanges) {
  // The gap between kTelemetry and kSubmitJob is unassigned; a byte there
  // must be refused even though both ranges around it are valid.
  auto frame = encode_cancel_job({1});
  frame[3] = static_cast<std::uint8_t>(wire::MessageType::kSubmitJob) - 1;
  EXPECT_FALSE(wire::decode_header(frame));
}

TEST(NetProtocolHeader, RejectsOversizedLengthPrefix) {
  // A corrupt length prefix must be refused BEFORE any allocation: claim a
  // ~4 GiB payload and expect a clean Status.
  auto frame = encode_goodbye({"x"});
  const std::uint32_t huge = 0xFFFFFFFFu;
  std::memcpy(frame.data() + 4, &huge, sizeof(huge));
  const auto header = wire::decode_header(frame);
  ASSERT_FALSE(header);
  EXPECT_EQ(header.status().code(), StatusCode::kInvalidArgument);
}

TEST(NetProtocolFuzz, TrailingGarbageIsRejected) {
  // Decoders are exact, not prefix-tolerant: extra bytes after a valid
  // image mean a framing bug (or an attack) and must be refused.
  auto frame = encode_cancel_job({9});
  std::vector<std::uint8_t> payload(frame.begin() + wire::kHeaderBytes,
                                    frame.end());
  payload.push_back(0x00);
  EXPECT_FALSE(decode_cancel_job(payload));
}

TEST(NetProtocolFuzz, UnknownEnumBytesAreRejected) {
  const auto inst = make_instance();
  {  // warm-start policy byte past kSimilar
    auto m = make_submit(inst);
    auto frame = encode_submit_job(m);
    // The policy byte sits right after request_id (8) + tenant (4 + len) +
    // priority (4) + deadline flag+value (1 + 8) in the payload.
    const std::size_t offset =
        wire::kHeaderBytes + 8 + 4 + m.tenant.size() + 4 + 1 + 8;
    ASSERT_LT(offset, frame.size());
    frame[offset] = 0x7F;
    EXPECT_FALSE(decode_submit_job(
        std::span<const std::uint8_t>(frame).subspan(wire::kHeaderBytes)));
  }
  {  // status code byte past kInternal
    SubmitAck ack;
    ack.request_id = 1;
    auto frame = encode_submit_ack(ack);
    frame[wire::kHeaderBytes + 8] = 0x7F;  // code byte follows request_id
    EXPECT_FALSE(decode_submit_ack(
        std::span<const std::uint8_t>(frame).subspan(wire::kHeaderBytes)));
  }
}

TEST(NetProtocolFuzz, ImplausibleSampleCountIsRejectedWithoutAllocation) {
  JobEvent m;
  m.request_id = 1;
  m.anytime = {{/*source=*/0, 0.5, 10, 1.0}};
  auto frame = encode_job_event(m);
  // The sample count is the u32 after request_id (8) + kind (1).
  const std::uint32_t absurd = 0x7FFFFFFFu;
  std::memcpy(frame.data() + wire::kHeaderBytes + 9, &absurd, sizeof(absurd));
  EXPECT_FALSE(decode_job_event(
      std::span<const std::uint8_t>(frame).subspan(wire::kHeaderBytes)));
}

}  // namespace
}  // namespace pts::net
