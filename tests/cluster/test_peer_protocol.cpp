// Peer-protocol codec tests (DESIGN.md §11): every frame of the cluster
// peer range round-trips bit-exactly, and every decoder is total — unknown
// enum bytes, implausible record counts and trailing garbage come back as a
// Status, never a crash or an unbounded allocation. Peer frames cross a
// machine boundary between nodes that may be mid-crash; the truncation and
// bit-flip sweeps over them live in the codec harness
// (tests/codec/test_codec_harness.cpp).
#include "cluster/peer_protocol.hpp"

#include <gtest/gtest.h>

#include "mkp/generator.hpp"
#include "parallel/wire.hpp"

namespace pts::cluster {
namespace {

namespace wire = parallel::wire;

mkp::Instance make_instance(std::uint64_t seed = 1) {
  return mkp::generate_gk({.num_items = 30, .num_constraints = 4}, seed);
}

ReplicateRecord make_submitted(std::uint64_t seq, service::JobId id) {
  ReplicateRecord record;
  record.seq = seq;
  record.kind = ReplicateRecord::Kind::kSubmitted;
  record.job_id = id;
  record.instance = std::make_shared<const mkp::Instance>(make_instance(seq));
  record.options.preset = "quick";
  record.options.time_budget_seconds = 0.75;
  record.options.seed = 42;
  record.options.priority = 2;
  record.tenant = "prod";
  record.warm_start = service::WarmStartPolicy::kSimilar;
  return record;
}

PeerReplicate make_replicate() {
  PeerReplicate m;
  m.records.push_back(make_submitted(5, 11));
  ReplicateRecord resolved;
  resolved.seq = 6;
  resolved.kind = ReplicateRecord::Kind::kResolved;
  resolved.job_id = 11;
  m.records.push_back(std::move(resolved));
  ReplicateRecord dedup;
  dedup.seq = 7;
  dedup.kind = ReplicateRecord::Kind::kDedup;
  dedup.job_id = 12;
  dedup.dedup_primary = 11;
  m.records.push_back(std::move(dedup));
  return m;
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

TEST(PeerProtocol, HelloRoundTrip) {
  const auto frame = encode_peer_hello({"prod-cluster", 9});
  const auto decoded =
      decode_peer_hello(payload_of(frame, wire::MessageType::kPeerHello));
  ASSERT_TRUE(decoded) << decoded.status().to_string();
  EXPECT_EQ(decoded->cluster_name, "prod-cluster");
  EXPECT_EQ(decoded->coordinator_epoch, 9u);
}

TEST(PeerProtocol, WelcomeRoundTrip) {
  const auto frame = encode_peer_welcome({"node-b", 31, 8});
  const auto decoded =
      decode_peer_welcome(payload_of(frame, wire::MessageType::kPeerWelcome));
  ASSERT_TRUE(decoded) << decoded.status().to_string();
  EXPECT_EQ(decoded->node_name, "node-b");
  EXPECT_EQ(decoded->last_applied_seq, 31u);
  EXPECT_EQ(decoded->num_workers, 8u);
}

TEST(PeerProtocol, PingPongRoundTrip) {
  const auto ping =
      decode_peer_ping(payload_of(encode_peer_ping({77}),
                                  wire::MessageType::kPeerPing));
  ASSERT_TRUE(ping) << ping.status().to_string();
  EXPECT_EQ(ping->seq, 77u);

  const auto pong = decode_peer_pong(payload_of(
      encode_peer_pong({77, 3, 5, 20}), wire::MessageType::kPeerPong));
  ASSERT_TRUE(pong) << pong.status().to_string();
  EXPECT_EQ(pong->seq, 77u);
  EXPECT_EQ(pong->running_jobs, 3u);
  EXPECT_EQ(pong->queued_jobs, 5u);
  EXPECT_EQ(pong->last_applied_seq, 20u);
}

TEST(PeerProtocol, ReplicateRoundTripsAllRecordKinds) {
  const auto m = make_replicate();
  const auto frame = encode_peer_replicate(m);
  const auto decoded = decode_peer_replicate(
      payload_of(frame, wire::MessageType::kPeerReplicate));
  ASSERT_TRUE(decoded) << decoded.status().to_string();
  ASSERT_EQ(decoded->records.size(), 3u);

  const auto& submitted = decoded->records[0];
  EXPECT_EQ(submitted.seq, 5u);
  EXPECT_EQ(submitted.kind, ReplicateRecord::Kind::kSubmitted);
  EXPECT_EQ(submitted.job_id, 11u);
  ASSERT_NE(submitted.instance, nullptr);
  // Bit-exact instance: a promoted coordinator re-runs the job off this
  // image, so any drift would change the content hash and the trajectory.
  const auto reference = make_instance(5);
  ASSERT_EQ(submitted.instance->num_items(), reference.num_items());
  for (std::size_t j = 0; j < reference.num_items(); ++j) {
    EXPECT_EQ(submitted.instance->profit(j), reference.profit(j));
  }
  EXPECT_EQ(submitted.options.preset, "quick");
  EXPECT_EQ(submitted.options.time_budget_seconds, 0.75);
  EXPECT_EQ(submitted.options.seed, 42u);
  EXPECT_EQ(submitted.options.priority, 2);
  EXPECT_EQ(submitted.tenant, "prod");
  EXPECT_EQ(submitted.warm_start, service::WarmStartPolicy::kSimilar);

  EXPECT_EQ(decoded->records[1].kind, ReplicateRecord::Kind::kResolved);
  EXPECT_EQ(decoded->records[1].seq, 6u);
  EXPECT_EQ(decoded->records[1].job_id, 11u);
  EXPECT_EQ(decoded->records[1].instance, nullptr);

  EXPECT_EQ(decoded->records[2].kind, ReplicateRecord::Kind::kDedup);
  EXPECT_EQ(decoded->records[2].job_id, 12u);
  EXPECT_EQ(decoded->records[2].dedup_primary, 11u);
}

TEST(PeerProtocol, ReplicateAckRoundTrip) {
  const auto decoded = decode_peer_replicate_ack(payload_of(
      encode_peer_replicate_ack({19}), wire::MessageType::kPeerReplicateAck));
  ASSERT_TRUE(decoded) << decoded.status().to_string();
  EXPECT_EQ(decoded->last_applied_seq, 19u);
}

TEST(PeerProtocolFuzz, TrailingGarbageIsRejected) {
  auto frame = encode_peer_replicate_ack({3});
  std::vector<std::uint8_t> payload(frame.begin() + wire::kHeaderBytes,
                                    frame.end());
  payload.push_back(0x00);
  EXPECT_FALSE(decode_peer_replicate_ack(payload));
}

TEST(PeerProtocolFuzz, UnknownRecordKindByteIsRejected) {
  PeerReplicate m;
  ReplicateRecord resolved;
  resolved.seq = 1;
  resolved.kind = ReplicateRecord::Kind::kResolved;
  resolved.job_id = 4;
  m.records.push_back(std::move(resolved));
  auto frame = encode_peer_replicate(m);
  // Payload layout: count (u32) + seq (u64) + kind (u8) + ...
  const std::size_t offset = wire::kHeaderBytes + 4 + 8;
  ASSERT_LT(offset, frame.size());
  frame[offset] = 0x7F;
  EXPECT_FALSE(decode_peer_replicate(
      std::span<const std::uint8_t>(frame).subspan(wire::kHeaderBytes)));
}

TEST(PeerProtocolFuzz, UnknownWarmStartByteIsRejected) {
  PeerReplicate m;
  m.records.push_back(make_submitted(1, 2));
  auto frame = encode_peer_replicate(m);
  // The warm-start byte is the last payload byte of a kSubmitted record
  // (it is written after instance + options + tenant).
  frame[frame.size() - 1] = 0x7F;
  EXPECT_FALSE(decode_peer_replicate(
      std::span<const std::uint8_t>(frame).subspan(wire::kHeaderBytes)));
}

TEST(PeerProtocolFuzz, ImplausibleRecordCountIsRejectedWithoutAllocation) {
  // A forged payload claiming ~4 billion records in 8 bytes.
  std::vector<std::uint8_t> payload = {0xFF, 0xFF, 0xFF, 0xFF,
                                       0x00, 0x00, 0x00, 0x00};
  EXPECT_FALSE(decode_peer_replicate(payload));
  // One past the per-frame batch ceiling is refused too, even with bytes
  // to spare — the cap is a protocol rule, not an honesty check.
  std::vector<std::uint8_t> oversized(4 + 32 * 1024, 0);
  const auto count =
      static_cast<std::uint32_t>(kMaxReplicateRecordsPerFrame + 1);
  oversized[0] = static_cast<std::uint8_t>(count & 0xFF);
  oversized[1] = static_cast<std::uint8_t>((count >> 8) & 0xFF);
  EXPECT_FALSE(decode_peer_replicate(oversized));
}

}  // namespace
}  // namespace pts::cluster
