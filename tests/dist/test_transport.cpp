// FrameSocket / SocketTransport behaviour over a real socketpair: framed
// round trips, the heartbeat timeout (over whole frames), incremental
// reassembly, EOF-as-dead-peer, and cancel.
#include "parallel/transport.hpp"

#include <gtest/gtest.h>

#include <sys/socket.h>

#include <chrono>
#include <thread>
#include <variant>

#include "bounds/greedy.hpp"
#include "mkp/generator.hpp"
#include "parallel/wire.hpp"
#include "util/rng.hpp"

namespace pts::parallel {
namespace {

struct SocketPair {
  FrameSocket a;
  FrameSocket b;
};

SocketPair make_pair_sockets() {
  int fds[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  return {FrameSocket(fds[0]), FrameSocket(fds[1])};
}

mkp::Instance make_instance() {
  return mkp::generate_gk({.num_items = 30, .num_constraints = 4}, 1);
}

TEST(FrameSocket, FrameRoundTripAcrossThePair) {
  auto [a, b] = make_pair_sockets();
  ASSERT_TRUE(a.send_frame(wire::encode_to_slave(Stop{})).ok());
  auto frame = b.read_frame(/*timeout_seconds=*/5.0);
  ASSERT_TRUE(frame) << frame.status().to_string();
  EXPECT_EQ(frame->type, wire::MessageType::kStop);
  EXPECT_TRUE(frame->payload.empty());
}

TEST(FrameSocket, LargePayloadArrivesWhole) {
  const auto inst = mkp::generate_gk({.num_items = 400, .num_constraints = 30}, 2);
  auto [a, b] = make_pair_sockets();
  const auto sent = wire::encode_hello({1, 2, inst});
  // Writer thread: a large frame can exceed the socketpair buffer, so the
  // write must be concurrent with the read, as in a worker handshake.
  std::jthread writer([&a, &sent] { ASSERT_TRUE(a.send_frame(sent).ok()); });
  auto frame = b.read_frame(10.0);
  ASSERT_TRUE(frame) << frame.status().to_string();
  ASSERT_EQ(frame->type, wire::MessageType::kHello);
  const auto hello = wire::decode_hello(frame->payload);
  ASSERT_TRUE(hello);
  EXPECT_EQ(hello->instance.num_items(), 400U);
}

TEST(FrameSocket, TimeoutIsDeadlineExceeded) {
  auto [a, b] = make_pair_sockets();
  const auto frame = b.read_frame(/*timeout_seconds=*/0.15);
  ASSERT_FALSE(frame);
  EXPECT_EQ(frame.status().code(), StatusCode::kDeadlineExceeded);
}

/// Seconds a read_frame call took, with its result.
template <typename Read>
std::pair<Expected<wire::Frame>, double> timed_read(Read read) {
  const auto start = std::chrono::steady_clock::now();
  auto frame = read();
  return {std::move(frame), std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - start)
                                .count()};
}

TEST(FrameSocket, StallMidHeaderTimesOutWithinTheBound) {
  // Regression: the timeout used to bound only the wait for the FIRST byte,
  // after which the read blocked without limit — a peer that wrote half a
  // header and went silent hung the reader forever. The bound now covers
  // the whole frame.
  auto [a, b] = make_pair_sockets();
  const auto full = wire::encode_to_slave(Stop{});
  ASSERT_TRUE(a.send_frame({full.data(), wire::kHeaderBytes / 2}).ok());
  const auto [frame, waited] = timed_read([&b] { return b.read_frame(0.2); });
  ASSERT_FALSE(frame);
  EXPECT_EQ(frame.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(waited, 0.19);
  EXPECT_LT(waited, 0.2 + 10 * kPollSliceMs / 1000.0);
}

TEST(FrameSocket, StallMidPayloadTimesOutWithinTheBound) {
  auto [a, b] = make_pair_sockets();
  const auto full = wire::encode_from_slave(SlaveFault{0, 1, "stalled words"});
  ASSERT_TRUE(a.send_frame({full.data(), wire::kHeaderBytes + 3}).ok());
  const auto [frame, waited] = timed_read([&b] { return b.read_frame(0.2); });
  ASSERT_FALSE(frame);
  EXPECT_EQ(frame.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_LT(waited, 0.2 + 10 * kPollSliceMs / 1000.0);
}

TEST(FrameSocket, PollFrameReassemblesAFrameSentByteByByte) {
  auto [a, b] = make_pair_sockets();
  const auto full = wire::encode_from_slave(SlaveFault{2, 7, "piecewise"});
  for (std::size_t k = 0; k + 1 < full.size(); ++k) {
    ASSERT_TRUE(a.send_frame({&full[k], 1}).ok());
    const auto partial = b.poll_frame();  // never blocks on the missing rest
    ASSERT_TRUE(partial) << partial.status().to_string();
    EXPECT_FALSE(partial->has_value()) << "frame complete after " << k + 1;
  }
  ASSERT_TRUE(a.send_frame({&full.back(), 1}).ok());
  auto frame = b.poll_frame();
  ASSERT_TRUE(frame);
  ASSERT_TRUE(frame->has_value());
  const auto inst = make_instance();
  const auto decoded =
      wire::decode_from_slave((*frame)->type, (*frame)->payload, inst);
  ASSERT_TRUE(decoded);
  const auto& fault = std::get<SlaveFault>(*decoded);
  EXPECT_EQ(fault.slave_id, 2U);
  EXPECT_EQ(fault.round, 7U);
  EXPECT_EQ(fault.what, "piecewise");
}

TEST(FrameSocket, PollFrameSplitsBackToBackFrames) {
  auto [a, b] = make_pair_sockets();
  auto both = wire::encode_to_slave(Stop{});
  const auto second = wire::encode_from_slave(SlaveFault{1, 3, "second"});
  both.insert(both.end(), second.begin(), second.end());
  ASSERT_TRUE(a.send_frame(both).ok());
  auto first = b.poll_frame();
  ASSERT_TRUE(first && first->has_value());
  EXPECT_EQ((*first)->type, wire::MessageType::kStop);
  a.close();  // the second frame is already buffered: EOF must not shadow it
  auto next = b.poll_frame();
  ASSERT_TRUE(next && next->has_value()) << next.status().to_string();
  EXPECT_EQ((*next)->type, wire::MessageType::kFault);
  const auto eof = b.poll_frame();
  ASSERT_FALSE(eof);
  EXPECT_EQ(eof.status().code(), StatusCode::kUnavailable);
}

TEST(FrameSocket, PeerCloseIsUnavailable) {
  auto [a, b] = make_pair_sockets();
  a.close();
  const auto frame = b.read_frame(5.0);
  ASSERT_FALSE(frame);
  EXPECT_EQ(frame.status().code(), StatusCode::kUnavailable);
}

TEST(FrameSocket, TruncatedFrameIsUnavailableNotHang) {
  // A peer that dies mid-frame leaves a short read; the reader must surface
  // a dead-peer Status once EOF lands, never block forever.
  auto [a, b] = make_pair_sockets();
  const auto full = wire::encode_from_slave(SlaveFault{0, 1, "dying words"});
  const std::size_t cut = wire::kHeaderBytes + 3;
  ASSERT_TRUE(a.send_frame({full.data(), cut}).ok());
  a.close();
  const auto frame = b.read_frame(5.0);
  ASSERT_FALSE(frame);
  EXPECT_EQ(frame.status().code(), StatusCode::kUnavailable);
}

TEST(FrameSocket, CorruptHeaderIsInvalidArgument) {
  auto [a, b] = make_pair_sockets();
  auto bad = wire::encode_to_slave(Stop{});
  bad[0] ^= 0xFF;  // break the magic
  ASSERT_TRUE(a.send_frame(bad).ok());
  const auto frame = b.read_frame(5.0);
  ASSERT_FALSE(frame);
  EXPECT_EQ(frame.status().code(), StatusCode::kInvalidArgument);
}

TEST(FrameSocket, CancelAbortsTheWait) {
  auto [a, b] = make_pair_sockets();
  CancelSource cancel;
  std::jthread firer([&cancel] {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    cancel.request_cancel();
  });
  const auto frame = b.read_frame(/*timeout_seconds=*/30.0, cancel.token());
  ASSERT_FALSE(frame);
  EXPECT_EQ(frame.status().code(), StatusCode::kCancelled);
}

TEST(SocketTransport, DeliversDirectivesAndOutcomes) {
  const auto inst = make_instance();
  auto [master_side, worker_side] = make_pair_sockets();
  SocketTransport transport(worker_side, inst);

  Rng rng(7);
  Assignment assignment{4, bounds::greedy_randomized(inst, rng), {}};
  assignment.params.max_moves = 50;
  ASSERT_TRUE(
      master_side.send_frame(wire::encode_to_slave(assignment)).ok());

  auto received = transport.receive({});
  ASSERT_TRUE(received.has_value());
  const auto* got = std::get_if<Assignment>(&*received);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->round, 4U);

  Report report;
  report.slave_id = 0;
  report.round = 4;
  report.final_value = 123.0;
  ASSERT_TRUE(transport.send(report));
  auto frame = master_side.read_frame(5.0);
  ASSERT_TRUE(frame);
  const auto decoded = wire::decode_from_slave(frame->type, frame->payload, inst);
  ASSERT_TRUE(decoded);
  EXPECT_DOUBLE_EQ(std::get<Report>(*decoded).final_value, 123.0);
}

TEST(SocketTransport, EofReadsAsClosedLink) {
  const auto inst = make_instance();
  auto [master_side, worker_side] = make_pair_sockets();
  SocketTransport transport(worker_side, inst);
  master_side.close();
  EXPECT_FALSE(transport.receive({}).has_value());
}

TEST(SocketTransport, SendOnDeadPeerReturnsFalse) {
  const auto inst = make_instance();
  auto [master_side, worker_side] = make_pair_sockets();
  SocketTransport transport(worker_side, inst);
  master_side.close();
  // First write may succeed into the kernel buffer; the second must fail
  // with EPIPE. Either way no crash (SIGPIPE must not fire).
  Report report;
  const bool first = transport.send(report);
  const bool second = transport.send(report);
  EXPECT_FALSE(first && second);
}

}  // namespace
}  // namespace pts::parallel
