#pragma once
// Peer control protocol of the solver cluster (DESIGN.md §11): the frames a
// coordinator exchanges with a worker node over their persistent peer
// socket. Job traffic (submissions, acks, results) rides the v3 client
// range (net/protocol.hpp) on the SAME connection; this header covers only
// what clustering adds on top — membership (hello/welcome), liveness
// (ping/pong with a load sample) and journal replication (record batches
// plus applied-through acks).
//
// Total decoders. Every decoder follows the wire discipline: truncated
// payloads, absurd counts, unknown enum bytes and over-long strings come
// back as a Status — never a crash, never an unbounded allocation. Peer
// frames cross a machine boundary, so neither side trusts the other's
// bytes; the codec harness (tests/codec/test_codec_harness.cpp) fuzzes
// every frame.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "mkp/instance.hpp"
#include "service/job.hpp"
#include "util/status.hpp"

namespace pts::cluster {

/// Ceiling on records per kPeerReplicate frame: a long catch-up streams in
/// bounded batches instead of one outsized frame.
inline constexpr std::size_t kMaxReplicateRecordsPerFrame = 256;

/// coordinator -> worker: the join handshake, sent once per connection
/// before anything else. A worker refuses a foreign cluster name with a
/// Goodbye; the epoch is bumped per coordinator incarnation so a worker can
/// tell a restarted (promoted) coordinator from a reconnect of the old one.
struct PeerHello {
  std::string cluster_name;
  std::uint64_t coordinator_epoch = 0;
};

/// worker -> coordinator: the handshake answer. `last_applied_seq` is the
/// replication catch-up cursor — the coordinator resends every journal
/// record with a later sequence; a fresh (or restarted) worker reports 0 and
/// receives the full live image.
struct PeerWelcome {
  std::string node_name;
  std::uint64_t last_applied_seq = 0;
  std::uint32_t num_workers = 0;  ///< the node's pool width (capacity hint)
};

/// coordinator -> worker: liveness probe. The coordinator declares a node
/// dead after `heartbeat_misses` intervals without a matching pong (or any
/// other inbound frame) and fails its jobs over.
struct PeerPing {
  std::uint64_t seq = 0;
};

/// worker -> coordinator: probe echo plus the load sample that drives
/// least-loaded sharding and the replication cursor for ack piggybacking.
struct PeerPong {
  std::uint64_t seq = 0;
  std::uint32_t running_jobs = 0;
  std::uint32_t queued_jobs = 0;
  std::uint64_t last_applied_seq = 0;
};

/// One replicated job-journal record. Mirrors the service journal's record
/// vocabulary (service/journal.hpp): a kSubmitted carries everything needed
/// to re-run the job, kResolved strikes it, kDedup links a follower to the
/// primary job whose solve it shares. The worker applies these to a replica
/// journal file in the standard PTSJ format, so a promoted node can boot a
/// coordinator straight off its replica via journal::recover_jobs.
struct ReplicateRecord {
  enum class Kind : std::uint8_t { kSubmitted = 1, kResolved = 2, kDedup = 3 };
  std::uint64_t seq = 0;  ///< monotone replication sequence (1-based)
  Kind kind = Kind::kResolved;
  service::JobId job_id = 0;
  // -- kSubmitted only. Shared, not copied: the coordinator's log holds the
  // waiter's own instance, so the waiters of a coalesced job hold one. --
  std::shared_ptr<const mkp::Instance> instance;
  service::JobOptions options;
  service::TenantId tenant;
  service::WarmStartPolicy warm_start = service::WarmStartPolicy::kDisabled;
  // -- kDedup only. --
  service::JobId dedup_primary = 0;
};

/// coordinator -> worker: a batch of journal records in ascending sequence
/// order. Fire-and-forget on the send side; the worker answers with a
/// kPeerReplicateAck once the batch is applied (and fsynced) to its replica.
struct PeerReplicate {
  std::vector<ReplicateRecord> records;
};

/// worker -> coordinator: the replica has applied (and fsynced) every
/// record up to and including this sequence.
struct PeerReplicateAck {
  std::uint64_t last_applied_seq = 0;
};

// -- Encoders. Each returns a complete frame, header included. --

[[nodiscard]] std::vector<std::uint8_t> encode_peer_hello(const PeerHello& m);
[[nodiscard]] std::vector<std::uint8_t> encode_peer_welcome(const PeerWelcome& m);
[[nodiscard]] std::vector<std::uint8_t> encode_peer_ping(const PeerPing& m);
[[nodiscard]] std::vector<std::uint8_t> encode_peer_pong(const PeerPong& m);
[[nodiscard]] std::vector<std::uint8_t> encode_peer_replicate(
    const PeerReplicate& m);
[[nodiscard]] std::vector<std::uint8_t> encode_peer_replicate_ack(
    const PeerReplicateAck& m);

// -- Payload decoders (payload only — the header is consumed by the frame
//    reader). All total. --

[[nodiscard]] Expected<PeerHello> decode_peer_hello(
    std::span<const std::uint8_t> payload);
[[nodiscard]] Expected<PeerWelcome> decode_peer_welcome(
    std::span<const std::uint8_t> payload);
[[nodiscard]] Expected<PeerPing> decode_peer_ping(
    std::span<const std::uint8_t> payload);
[[nodiscard]] Expected<PeerPong> decode_peer_pong(
    std::span<const std::uint8_t> payload);
[[nodiscard]] Expected<PeerReplicate> decode_peer_replicate(
    std::span<const std::uint8_t> payload);
[[nodiscard]] Expected<PeerReplicateAck> decode_peer_replicate_ack(
    std::span<const std::uint8_t> payload);

}  // namespace pts::cluster
