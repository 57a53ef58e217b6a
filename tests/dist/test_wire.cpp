// Wire-format tests (DESIGN.md §8): every message round-trips bit-exactly,
// and every decoder is total — corrupt headers, absurd length prefixes and
// out-of-range enum bytes must come back as a Status, never a crash or an
// unbounded allocation. The truncation and bit-flip sweeps over every frame
// type live in the codec harness (tests/codec/test_codec_harness.cpp).
#include "parallel/wire.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <variant>

#include "bounds/greedy.hpp"
#include "mkp/generator.hpp"
#include "util/rng.hpp"

namespace pts::parallel {
namespace {

mkp::Instance make_instance(std::uint64_t seed = 1) {
  return mkp::generate_gk({.num_items = 40, .num_constraints = 5}, seed);
}

/// Splits an encoded frame into its validated header and payload view.
struct Split {
  wire::FrameHeader header;
  std::span<const std::uint8_t> payload;
};

Split split_frame(const std::vector<std::uint8_t>& frame) {
  auto header = wire::decode_header(frame);
  EXPECT_TRUE(header) << header.status().to_string();
  EXPECT_EQ(frame.size(), wire::kHeaderBytes + header->payload_size);
  return {*header,
          std::span<const std::uint8_t>(frame).subspan(wire::kHeaderBytes)};
}

Assignment make_assignment(const mkp::Instance& inst) {
  Rng rng(42);
  Assignment a{7, bounds::greedy_randomized(inst, rng), tabu::TsParams{}};
  a.params.strategy = {11, 3, 77, 16};
  a.params.nb_div = 5;
  a.params.nb_int = 2;
  a.params.b_best = 4;
  a.params.intensification = tabu::IntensificationKind::kStrategicOscillation;
  a.params.oscillation_depth = 9;
  a.params.tenure_control = tabu::TenureControl::kReactive;
  a.params.high_frequency = 0.7321;
  a.params.low_frequency = 0.1234;
  a.params.diversify_hold = 31;
  a.params.max_moves = 12345;
  a.params.time_limit_seconds = 0.375;
  a.params.target_value = 9876.5;
  a.params.run_to_budget = true;
  return a;
}

TEST(Wire, SolutionRoundTripIsBitExact) {
  const auto inst = make_instance();
  Rng rng(3);
  const auto solution = bounds::greedy_randomized(inst, rng);
  const auto bytes = wire::encode_solution(solution);
  const auto decoded = wire::decode_solution(bytes, inst);
  ASSERT_TRUE(decoded) << decoded.status().to_string();
  EXPECT_EQ(*decoded, solution);
  // Bit-exact, not approximately equal: proc == thread determinism rests on
  // the value surviving serialization unchanged.
  const double decoded_value = decoded->value();
  const double original_value = solution.value();
  EXPECT_EQ(std::memcmp(&decoded_value, &original_value, sizeof(double)), 0);
}

TEST(Wire, SolutionRejectsWrongInstance) {
  const auto inst = make_instance(1);
  const auto other = mkp::generate_gk({.num_items = 60, .num_constraints = 5}, 2);
  Rng rng(3);
  const auto bytes = wire::encode_solution(bounds::greedy_randomized(inst, rng));
  EXPECT_FALSE(wire::decode_solution(bytes, other));
}

TEST(Wire, StrategyRoundTrip) {
  const tabu::Strategy strategy{13, 4, 150, 32};
  const auto decoded = wire::decode_strategy(wire::encode_strategy(strategy));
  ASSERT_TRUE(decoded);
  EXPECT_EQ(*decoded, strategy);
}

TEST(Wire, AssignmentRoundTripCarriesEveryParam) {
  const auto inst = make_instance();
  const auto assignment = make_assignment(inst);
  const auto frame = wire::encode_assignment(assignment);
  const auto [header, payload] = split_frame(frame);
  EXPECT_EQ(header.type, wire::MessageType::kAssignment);

  const auto decoded = wire::decode_assignment(payload, inst);
  ASSERT_TRUE(decoded) << decoded.status().to_string();
  EXPECT_EQ(decoded->round, assignment.round);
  EXPECT_EQ(decoded->initial, assignment.initial);
  const auto& p = decoded->params;
  const auto& q = assignment.params;
  EXPECT_EQ(p.strategy, q.strategy);
  EXPECT_EQ(p.nb_div, q.nb_div);
  EXPECT_EQ(p.nb_int, q.nb_int);
  EXPECT_EQ(p.b_best, q.b_best);
  EXPECT_EQ(p.intensification, q.intensification);
  EXPECT_EQ(p.oscillation_depth, q.oscillation_depth);
  EXPECT_EQ(p.tenure_control, q.tenure_control);
  EXPECT_DOUBLE_EQ(p.high_frequency, q.high_frequency);
  EXPECT_DOUBLE_EQ(p.low_frequency, q.low_frequency);
  EXPECT_EQ(p.diversify_hold, q.diversify_hold);
  EXPECT_EQ(p.max_moves, q.max_moves);
  EXPECT_DOUBLE_EQ(p.time_limit_seconds, q.time_limit_seconds);
  ASSERT_TRUE(p.target_value.has_value());
  EXPECT_DOUBLE_EQ(*p.target_value, *q.target_value);
  EXPECT_EQ(p.run_to_budget, q.run_to_budget);
}

TEST(Wire, AssignmentRejectsUnknownParamEnumBytes) {
  // Regression: the intensification and tenure-control bytes were cast into
  // their enums unchecked, so a byte of 7 decoded and the engine then
  // skipped intensification while still counting it.
  const auto inst = make_instance();
  const auto assignment = make_assignment(inst);
  const auto frame = wire::encode_assignment(assignment);
  // Payload: u64 round, the solution, the strategy (4 x u64), then nb_div,
  // nb_int and b_best (u64 each) before the intensification byte; the
  // tenure-control byte follows oscillation_depth (u64).
  const std::size_t solution_bytes =
      wire::encode_solution(assignment.initial).size();
  const std::size_t intensification =
      wire::kHeaderBytes + 8 + solution_bytes + 4 * 8 + 3 * 8;
  const std::size_t tenure = intensification + 1 + 8;
  for (const std::size_t offset : {intensification, tenure}) {
    auto corrupt = frame;
    ASSERT_LT(corrupt[offset], 3) << "offset " << offset << " is no enum byte";
    corrupt[offset] = 7;
    const auto payload =
        std::span<const std::uint8_t>(corrupt).subspan(wire::kHeaderBytes);
    const auto decoded = wire::decode_assignment(payload, inst);
    ASSERT_FALSE(decoded) << "enum byte 7 at frame offset " << offset;
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(Wire, StopRoundTripHasEmptyPayload) {
  const auto frame = wire::encode_stop();
  const auto [header, payload] = split_frame(frame);
  EXPECT_EQ(header.type, wire::MessageType::kStop);
  EXPECT_TRUE(payload.empty());
}

TEST(Wire, ReportRoundTrip) {
  const auto inst = make_instance();
  Rng rng(5);
  Report report;
  report.slave_id = 3;
  report.round = 12;
  report.initial_value = 101.25;
  report.final_value = 222.75;
  report.elite.push_back(bounds::greedy_randomized(inst, rng));
  report.elite.push_back(bounds::greedy_randomized(inst, rng));
  report.moves = 4242;
  report.seconds = 0.0625;
  report.reached_target = true;
  report.counters[obs::Counter::kMovesTried] = 4242;
  report.counters[obs::Counter::kDroppedMessages] = 1;
  report.anytime.push_back({3, 0.5, 100, 150.0});
  report.anytime.push_back({3, 0.75, 200, 222.75});

  const auto frame = wire::encode_from_slave(report);
  const auto [header, payload] = split_frame(frame);
  EXPECT_EQ(header.type, wire::MessageType::kReport);
  const auto decoded = wire::decode_from_slave(header.type, payload, inst);
  ASSERT_TRUE(decoded) << decoded.status().to_string();
  const auto* got = std::get_if<Report>(&*decoded);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->slave_id, report.slave_id);
  EXPECT_EQ(got->round, report.round);
  EXPECT_DOUBLE_EQ(got->initial_value, report.initial_value);
  EXPECT_DOUBLE_EQ(got->final_value, report.final_value);
  ASSERT_EQ(got->elite.size(), 2U);
  EXPECT_EQ(got->elite[0], report.elite[0]);
  EXPECT_EQ(got->elite[1], report.elite[1]);
  EXPECT_EQ(got->moves, report.moves);
  EXPECT_DOUBLE_EQ(got->seconds, report.seconds);
  EXPECT_TRUE(got->reached_target);
  EXPECT_EQ(got->counters[obs::Counter::kMovesTried], 4242U);
  ASSERT_EQ(got->anytime.size(), 2U);
  EXPECT_EQ(got->anytime[1].work_units, 200U);
  EXPECT_DOUBLE_EQ(got->anytime[1].value, 222.75);
}

TEST(Wire, FaultRoundTrip) {
  const auto inst = make_instance();
  const SlaveFault fault{5, 9, "std::bad_alloc in the inner loop"};
  const auto frame = wire::encode_from_slave(fault);
  const auto [header, payload] = split_frame(frame);
  EXPECT_EQ(header.type, wire::MessageType::kFault);
  const auto decoded = wire::decode_from_slave(header.type, payload, inst);
  ASSERT_TRUE(decoded);
  const auto* got = std::get_if<SlaveFault>(&*decoded);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->slave_id, 5U);
  EXPECT_EQ(got->round, 9U);
  EXPECT_EQ(got->what, fault.what);
}

TEST(Wire, HelloRoundTripRebuildsTheInstance) {
  auto inst = make_instance(4);
  inst.set_known_optimum(31337.0);
  const auto frame = wire::encode_hello({2, 99, inst});
  const auto [header, payload] = split_frame(frame);
  EXPECT_EQ(header.type, wire::MessageType::kHello);
  const auto hello = wire::decode_hello(payload);
  ASSERT_TRUE(hello) << hello.status().to_string();
  EXPECT_EQ(hello->slave_id, 2U);
  EXPECT_EQ(hello->seed, 99U);
  const auto& got = hello->instance;
  EXPECT_EQ(got.name(), inst.name());
  ASSERT_EQ(got.num_items(), inst.num_items());
  ASSERT_EQ(got.num_constraints(), inst.num_constraints());
  for (std::size_t j = 0; j < inst.num_items(); ++j) {
    EXPECT_EQ(got.profit(j), inst.profit(j));
  }
  for (std::size_t i = 0; i < inst.num_constraints(); ++i) {
    EXPECT_EQ(got.capacity(i), inst.capacity(i));
    for (std::size_t j = 0; j < inst.num_items(); ++j) {
      EXPECT_EQ(got.weight(i, j), inst.weight(i, j));
    }
  }
  ASSERT_TRUE(got.known_optimum().has_value());
  EXPECT_DOUBLE_EQ(*got.known_optimum(), 31337.0);
}

TEST(WireHeader, RejectsBadMagic) {
  auto frame = wire::encode_stop();
  frame[0] ^= 0xFF;
  const auto header = wire::decode_header(frame);
  ASSERT_FALSE(header);
  EXPECT_EQ(header.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireHeader, RejectsBadVersion) {
  auto frame = wire::encode_stop();
  frame[2] = wire::kVersion + 1;
  const auto header = wire::decode_header(frame);
  ASSERT_FALSE(header);
  EXPECT_EQ(header.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireHeader, RejectsUnknownType) {
  auto frame = wire::encode_stop();
  frame[3] = 0xEE;
  EXPECT_FALSE(wire::decode_header(frame));
}

TEST(WireHeader, RejectsOversizedLengthPrefix) {
  // A corrupt length prefix must be refused BEFORE any allocation: claim a
  // ~4 GiB payload and expect a clean Status.
  auto frame = wire::encode_stop();
  const std::uint32_t huge = 0xFFFFFFFFu;
  std::memcpy(frame.data() + 4, &huge, sizeof(huge));
  const auto header = wire::decode_header(frame);
  ASSERT_FALSE(header);
  EXPECT_EQ(header.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireHeader, RejectsShortBuffer) {
  const std::vector<std::uint8_t> stub(wire::kHeaderBytes - 1, 0);
  EXPECT_FALSE(wire::decode_header(stub));
}

TEST(WireFuzz, AbsurdElementCountIsRejectedWithoutAllocating) {
  // Hand-craft a fault payload claiming a 2^32-ish string length; the
  // decoder must bound-check against the remaining bytes, not trust it.
  const auto inst = make_instance();
  const auto frame = wire::encode_from_slave(SlaveFault{1, 2, "x"});
  auto [header, payload_view] = split_frame(frame);
  std::vector<std::uint8_t> payload(payload_view.begin(), payload_view.end());
  // Layout: u32 slave, u64 round, u32 len, bytes. Blow up the length field.
  ASSERT_GE(payload.size(), 16U + 1U);
  const std::uint32_t huge = 0x7FFFFFFFu;
  std::memcpy(payload.data() + 12, &huge, sizeof(huge));
  const auto decoded = wire::decode_from_slave(header.type, payload, inst);
  ASSERT_FALSE(decoded);
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireFixedStatus, RoundTripsEveryValue) {
  const std::vector<bounds::FixedValue> status = {
      bounds::FixedValue::kFree, bounds::FixedValue::kZero,
      bounds::FixedValue::kOne,  bounds::FixedValue::kFree,
      bounds::FixedValue::kOne};
  codec::Writer w;
  wire::put_fixed_status(w, status);
  const auto bytes = w.take();
  codec::Reader r(bytes);
  const auto decoded = wire::get_fixed_status(r);
  ASSERT_TRUE(decoded) << decoded.status().to_string();
  EXPECT_TRUE(r.done());
  EXPECT_EQ(*decoded, status);
}

TEST(WireFixedStatus, RejectsOutOfRangeByte) {
  codec::Writer w;
  w.u32(2);
  w.u8(0);
  w.u8(3);  // no FixedValue has this encoding
  const auto bytes = w.take();
  codec::Reader r(bytes);
  const auto decoded = wire::get_fixed_status(r);
  ASSERT_FALSE(decoded);
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
}

TEST(WireFixedStatus, TruncationReturnsStatusNotGarbage) {
  std::vector<bounds::FixedValue> status(9, bounds::FixedValue::kZero);
  codec::Writer w;
  wire::put_fixed_status(w, status);
  auto bytes = w.take();
  for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
    codec::Reader r(std::span<const std::uint8_t>(bytes.data(), keep));
    const auto decoded = wire::get_fixed_status(r);
    EXPECT_FALSE(decoded) << "decoded from " << keep << " of " << bytes.size()
                          << " bytes";
  }
}

}  // namespace
}  // namespace pts::parallel
