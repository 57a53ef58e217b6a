#include "cluster/worker_node.hpp"

#include <csignal>

#include <chrono>
#include <thread>
#include <utility>

#include "cluster/peer_protocol.hpp"
#include "obs/metrics.hpp"
#include "util/env.hpp"
#include "util/logging.hpp"

namespace pts::cluster {

namespace {

/// Appends `record` to the replica as the matching journal record (`seq` is
/// not written).
Status append(service::journal::JobJournal& journal, const ReplicateRecord& record) {
  switch (record.kind) {
    case ReplicateRecord::Kind::kSubmitted:
      return journal.append_submitted(record.job_id, *record.instance,
                                      record.options, record.tenant,
                                      record.warm_start);
    case ReplicateRecord::Kind::kResolved:
      return journal.append_resolved(record.job_id);
    case ReplicateRecord::Kind::kDedup:
      return journal.append_dedup(record.job_id, record.dedup_primary);
  }
  return Status::invalid_argument("cluster: unknown replicate record kind");
}

}  // namespace

WorkerNode::WorkerNode(WorkerNodeConfig config)
    : config_(std::move(config)),
      chaos_kill_ppm_(env_u32("PTS_CHAOS_NODE_KILL_PPM")),
      chaos_stall_ms_(env_u32("PTS_CHAOS_NODE_STALL_MS")),
      chaos_partition_ppm_(env_u32("PTS_CHAOS_NODE_PARTITION_PPM")),
      chaos_partition_ms_(env_u32("PTS_CHAOS_NODE_PARTITION_MS", 500)) {
  if (chaos_kill_ppm_ || chaos_stall_ms_ || chaos_partition_ppm_) {
    PTS_LOG_WARN(
        "cluster: node chaos enabled (kill_ppm=%u stall_ms=%u "
        "partition_ppm=%u partition_ms=%u)",
        chaos_kill_ppm_, chaos_stall_ms_, chaos_partition_ppm_,
        chaos_partition_ms_);
  }
}

Expected<std::unique_ptr<WorkerNode>> WorkerNode::start(
    WorkerNodeConfig config) {
  std::unique_ptr<WorkerNode> node(new WorkerNode(std::move(config)));
  node->service_ =
      std::make_unique<service::SolverService>(node->config_.service);
  if (!node->config_.replica_journal_path.empty()) {
    // Truncate-on-start resets the cursor to 0: the coordinator resends its
    // full live image, which the replica (a standard PTSJ file) absorbs as
    // a from-scratch compacted log.
    auto replica = service::journal::JobJournal::open_truncate(
        node->config_.replica_journal_path);
    if (!replica) {
      PTS_LOG_WARN("cluster: replica journal disabled: %s",
                   replica.status().message().c_str());
    } else {
      node->replica_ = std::move(*replica);
    }
  }
  net::ServerConfig server_config = node->config_.server;
  server_config.peer_handler = node.get();
  auto server = net::Server::start(*node->service_, std::move(server_config));
  if (!server) return server.status();
  node->server_ = std::move(*server);
  return node;
}

WorkerNode::~WorkerNode() { stop(); }

void WorkerNode::stop() {
  // Server first (its loop thread calls back into this object), then the
  // service (resolves every outstanding future).
  if (server_) server_->stop();
  if (service_) service_->shutdown();
}

bool WorkerNode::chaos_gate() {
  if (chaos_kill_ppm_ == 0 && chaos_stall_ms_ == 0 &&
      chaos_partition_ppm_ == 0) {
    return false;
  }
  bool partitioned = false;
  {
    std::scoped_lock lock(chaos_mutex_);
    if (chaos_kill_ppm_ != 0 &&
        chaos_rng_.next_below(1'000'000) < chaos_kill_ppm_) {
      // The kill -9 drill: no destructors, no journal strikes, no goodbye —
      // exactly what the coordinator's failover path must absorb.
      PTS_LOG_WARN("cluster: chaos killing node (SIGKILL)");
      std::raise(SIGKILL);
    }
    if (chaos_partition_ppm_ != 0 && !partition_until_.is_bounded() &&
        chaos_rng_.next_below(1'000'000) < chaos_partition_ppm_) {
      partition_until_ =
          Deadline::after_seconds(chaos_partition_ms_ / 1000.0);
      PTS_LOG_WARN("cluster: chaos opening a %ums partition window",
                   chaos_partition_ms_);
    }
    if (partition_until_.is_bounded()) {
      if (partition_until_.expired()) {
        partition_until_ = Deadline();  // window closed
      } else {
        partitioned = true;
      }
    }
  }
  if (chaos_stall_ms_ != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(chaos_stall_ms_));
  }
  return partitioned;
}

Expected<std::vector<std::vector<std::uint8_t>>> WorkerNode::on_peer_frame(
    parallel::wire::MessageType type, std::span<const std::uint8_t> payload) {
  using parallel::wire::MessageType;
  if (chaos_gate()) return std::vector<std::vector<std::uint8_t>>{};

  std::vector<std::vector<std::uint8_t>> replies;
  switch (type) {
    case MessageType::kPeerHello: {
      auto hello = decode_peer_hello(payload);
      if (!hello) return hello.status();
      if (hello->cluster_name != config_.cluster_name) {
        return Status::invalid_argument(
            "cluster: hello from foreign cluster '" + hello->cluster_name +
            "' (this node serves '" + config_.cluster_name + "')");
      }
      {
        std::scoped_lock lock(replica_mutex_);
        if (hello->coordinator_epoch < served_epoch_) {
          return Status::invalid_argument(
              "cluster: hello from stale coordinator epoch " +
              std::to_string(hello->coordinator_epoch) +
              " (this node already serves epoch " +
              std::to_string(served_epoch_) + ")");
        }
        if (hello->coordinator_epoch > served_epoch_) {
          // A new coordinator incarnation numbers its replication log from 1,
          // so the cursor earned under the old one is meaningless — reporting
          // it would make the successor skip that many records and stall
          // replication for good. Start over; the successor resends its full
          // live image.
          served_epoch_ = hello->coordinator_epoch;
          if (!config_.replica_journal_path.empty()) {
            auto replica = service::journal::JobJournal::open_truncate(
                config_.replica_journal_path);
            if (!replica) {
              PTS_LOG_WARN("cluster: replica journal disabled: %s",
                           replica.status().message().c_str());
              replica_.reset();
            } else {
              replica_ = std::move(*replica);
            }
          }
          last_applied_seq_.store(0, std::memory_order_release);
        }
      }
      PeerWelcome welcome;
      welcome.node_name = config_.node_name;
      welcome.last_applied_seq = last_applied_seq();
      welcome.num_workers =
          static_cast<std::uint32_t>(config_.service.num_workers);
      replies.push_back(encode_peer_welcome(welcome));
      break;
    }
    case MessageType::kPeerPing: {
      auto ping = decode_peer_ping(payload);
      if (!ping) return ping.status();
      PeerPong pong;
      pong.seq = ping->seq;
      pong.running_jobs = static_cast<std::uint32_t>(service_->running_jobs());
      pong.queued_jobs = static_cast<std::uint32_t>(service_->queued_jobs());
      pong.last_applied_seq = last_applied_seq();
      replies.push_back(encode_peer_pong(pong));
      break;
    }
    case MessageType::kPeerReplicate: {
      auto batch = decode_peer_replicate(payload);
      if (!batch) return batch.status();
      {
        std::scoped_lock lock(replica_mutex_);
        for (const auto& record : batch->records) {
          if (record.seq <= last_applied_seq_.load(std::memory_order_relaxed)) {
            continue;  // replay of something already applied — idempotent skip
          }
          // The cursor advances ONLY past durably appended records: with no
          // replica (or a failing one) it stays put, and the ack below
          // truthfully reports how far this node's replica actually reaches
          // instead of claiming durability that does not exist.
          if (!replica_) break;
          const Status appended = append(*replica_, record);
          if (!appended.ok()) {
            PTS_LOG_WARN(
                "cluster: replica append failed (cursor frozen at %llu): %s",
                static_cast<unsigned long long>(
                    last_applied_seq_.load(std::memory_order_relaxed)),
                appended.message().c_str());
            break;
          }
          last_applied_seq_.store(record.seq, std::memory_order_release);
          obs::metrics().counter("cluster_records_applied_total").add();
        }
      }
      PeerReplicateAck ack;
      ack.last_applied_seq = last_applied_seq();
      replies.push_back(encode_peer_replicate_ack(ack));
      break;
    }
    default:
      // kPeerWelcome / kPeerPong / kPeerReplicateAck flow coordinator-ward;
      // receiving one here is a confused (or malicious) peer.
      return Status::invalid_argument(
          "cluster: unexpected peer frame type at a worker node");
  }
  return replies;
}

}  // namespace pts::cluster
