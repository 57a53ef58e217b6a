#include "cluster/peer_protocol.hpp"

#include "parallel/codec.hpp"
#include "parallel/wire.hpp"
#include "service/journal.hpp"
#include "util/check.hpp"

namespace pts::cluster {

using parallel::wire::MessageType;

template <class V, parallel::codec::Of<ReplicateRecord> M>
void fields(V& v, M& m) {
  v.u64(m.seq);
  v.enumeration(m.kind, ReplicateRecord::Kind::kSubmitted,
                ReplicateRecord::Kind::kDedup);
  v.u64(m.job_id);
  switch (m.kind) {
    case ReplicateRecord::Kind::kSubmitted:
      service::journal::submission_fields(v, v.required(m.instance), m.options,
                                          m.tenant, m.warm_start);
      break;
    case ReplicateRecord::Kind::kDedup:
      v.u64(m.dedup_primary);
      break;
    case ReplicateRecord::Kind::kResolved:
      break;
  }
}

template <class V, parallel::codec::Of<PeerHello> M>
void fields(V& v, M& m) {
  v.str(m.cluster_name, /*max_len=*/256);
  v.u64(m.coordinator_epoch);
}

template <class V, parallel::codec::Of<PeerWelcome> M>
void fields(V& v, M& m) {
  v.str(m.node_name, /*max_len=*/256);
  v.u64(m.last_applied_seq);
  v.u32(m.num_workers);
}

template <class V, parallel::codec::Of<PeerPing> M>
void fields(V& v, M& m) {
  v.u64(m.seq);
}

template <class V, parallel::codec::Of<PeerPong> M>
void fields(V& v, M& m) {
  v.u64(m.seq);
  v.u32(m.running_jobs);
  v.u32(m.queued_jobs);
  v.u64(m.last_applied_seq);
}

template <class V, parallel::codec::Of<PeerReplicate> M>
void fields(V& v, M& m) {
  // 17 bytes is the smallest record (seq + kind + job id); the explicit cap
  // keeps one frame's decode allocation bounded independent of the payload
  // ceiling.
  v.seq(m.records, /*min_bytes=*/17, kMaxReplicateRecordsPerFrame);
}

template <class V, parallel::codec::Of<PeerReplicateAck> M>
void fields(V& v, M& m) {
  v.u64(m.last_applied_seq);
}

std::vector<std::uint8_t> encode_peer_hello(const PeerHello& m) {
  return parallel::wire::frame(MessageType::kPeerHello, m);
}

Expected<PeerHello> decode_peer_hello(std::span<const std::uint8_t> payload) {
  return parallel::codec::decode(payload, PeerHello{}, "peer-hello");
}

std::vector<std::uint8_t> encode_peer_welcome(const PeerWelcome& m) {
  return parallel::wire::frame(MessageType::kPeerWelcome, m);
}

Expected<PeerWelcome> decode_peer_welcome(std::span<const std::uint8_t> payload) {
  return parallel::codec::decode(payload, PeerWelcome{}, "peer-welcome");
}

std::vector<std::uint8_t> encode_peer_ping(const PeerPing& m) {
  return parallel::wire::frame(MessageType::kPeerPing, m);
}

Expected<PeerPing> decode_peer_ping(std::span<const std::uint8_t> payload) {
  return parallel::codec::decode(payload, PeerPing{}, "peer-ping");
}

std::vector<std::uint8_t> encode_peer_pong(const PeerPong& m) {
  return parallel::wire::frame(MessageType::kPeerPong, m);
}

Expected<PeerPong> decode_peer_pong(std::span<const std::uint8_t> payload) {
  return parallel::codec::decode(payload, PeerPong{}, "peer-pong");
}

std::vector<std::uint8_t> encode_peer_replicate(const PeerReplicate& m) {
  PTS_CHECK_MSG(m.records.size() <= kMaxReplicateRecordsPerFrame,
                "replicate batch exceeds the per-frame record ceiling");
  return parallel::wire::frame(MessageType::kPeerReplicate, m);
}

Expected<PeerReplicate> decode_peer_replicate(
    std::span<const std::uint8_t> payload) {
  return parallel::codec::decode(payload, PeerReplicate{}, "peer-replicate");
}

std::vector<std::uint8_t> encode_peer_replicate_ack(const PeerReplicateAck& m) {
  return parallel::wire::frame(MessageType::kPeerReplicateAck, m);
}

Expected<PeerReplicateAck> decode_peer_replicate_ack(
    std::span<const std::uint8_t> payload) {
  return parallel::codec::decode(payload, PeerReplicateAck{},
                                 "peer-replicate-ack");
}

}  // namespace pts::cluster
