// In-process cluster tests (DESIGN.md §11): a real Coordinator and real
// WorkerNodes on loopback ephemeral ports, exercising the failover
// invariants directly — every accepted future resolves through node death,
// a dead node's job is redispatched within 10x the analytic heartbeat
// budget, dedup-coalesced submissions share ONE remote solve, replicas catch up,
// and a coordinator (re)started off a journal or replica re-owns the open
// jobs. Node death here is WorkerNode::stop() (the socket vanishes exactly
// as it does on kill -9); the real-SIGKILL drill lives in
// test_cluster_bin.cpp against the pts_cluster binary.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <functional>
#include <future>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "../callback_tally.hpp"
#include "cluster/coordinator.hpp"
#include "cluster/worker_node.hpp"
#include "mkp/generator.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "parallel/wire.hpp"

namespace pts::cluster {
namespace {

using namespace std::chrono_literals;

std::shared_ptr<const mkp::Instance> make_instance(std::uint64_t seed = 1) {
  return std::make_shared<const mkp::Instance>(
      mkp::generate_gk({.num_items = 30, .num_constraints = 4}, seed));
}

service::SubmitRequest make_request(std::uint64_t seed = 7,
                                    double budget = 0.2) {
  service::SubmitRequest request;
  request.instance = make_instance(seed);
  request.tenant = "prod";
  request.options.preset = "quick";
  request.options.time_budget_seconds = budget;
  request.options.seed = seed;
  return request;
}

std::unique_ptr<WorkerNode> start_worker(const std::string& replica = "",
                                         std::uint16_t port = 0) {
  WorkerNodeConfig config;
  config.replica_journal_path = replica;
  config.service.num_workers = 2;
  config.server.port = port;
  auto node = WorkerNode::start(std::move(config));
  EXPECT_TRUE(node) << node.status().to_string();
  return node ? std::move(*node) : nullptr;
}

CoordinatorConfig fast_config(std::vector<std::uint16_t> ports) {
  CoordinatorConfig config;
  for (const auto port : ports) config.peers.push_back({"127.0.0.1", port});
  config.heartbeat_interval_seconds = 0.05;
  config.heartbeat_misses = 4;
  config.resubmit_backoff_seconds = 0.02;
  return config;
}

/// Polls until the coordinator reports `n` live peers (mesh formation is
/// asynchronous by design).
void wait_for_peers(Coordinator& coordinator, std::size_t n,
                    double timeout_seconds = 10.0) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_seconds);
  while (coordinator.alive_peers() < n &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(10ms);
  }
  ASSERT_EQ(coordinator.alive_peers(), n);
}

TEST(Cluster, SubmitThroughCoordinatorResolvesOk) {
  auto w1 = start_worker();
  auto w2 = start_worker();
  ASSERT_TRUE(w1 && w2);
  auto coordinator =
      Coordinator::start(fast_config({w1->port(), w2->port()}));
  ASSERT_TRUE(coordinator) << coordinator.status().to_string();
  wait_for_peers(**coordinator, 2);

  auto handle = (*coordinator)->submit(make_request());
  ASSERT_TRUE(handle) << handle.status().to_string();
  auto result = handle->result.get();
  EXPECT_TRUE(result.status.ok()) << result.status.to_string();
  EXPECT_GT(result.best_value, 0.0);
  ASSERT_TRUE(result.best.has_value());
  EXPECT_TRUE(result.best->is_feasible());
  EXPECT_EQ(result.tenant, "prod");
  EXPECT_EQ((*coordinator)->stats().dispatched, 1u);
}

TEST(Cluster, EveryTcpConnectionSetsNoDelay) {
  // One job from a net::Client through a net::Server over a coordinator and
  // two worker nodes opens every kind of TCP connection the program makes:
  // the client's dial and the server's accept of it, the coordinator's dial
  // of each node and each node's accept. Each end must set TCP_NODELAY, or
  // a small frame behind an unacknowledged one waits for a delayed ACK.
  auto w1 = start_worker();
  auto w2 = start_worker();
  ASSERT_TRUE(w1 && w2);
  // No link may fail over while the fds are walked, even on a slow
  // (sanitized) build: a redial's socket has no options until its connect
  // ends, and a link being closed would race the walk.
  auto config = fast_config({w1->port(), w2->port()});
  config.heartbeat_misses = 200;
  config.connect_timeout_seconds = 30.0;
  auto coordinator = Coordinator::start(std::move(config));
  ASSERT_TRUE(coordinator) << coordinator.status().to_string();
  wait_for_peers(**coordinator, 2);
  auto server = net::Server::start(**coordinator, {});
  ASSERT_TRUE(server) << server.status().to_string();
  auto client = net::Client::connect("127.0.0.1", (*server)->port(), 10.0);
  ASSERT_TRUE(client) << client.status().to_string();
  auto job = client->submit(make_request());
  ASSERT_TRUE(job) << job.status().to_string();
  auto result = client->wait(*job, 30.0);
  ASSERT_TRUE(result) << result.status().to_string();
  EXPECT_TRUE(result->status.ok()) << result->status.to_string();

  const auto option = [](int fd, int level, int name) {
    int value = -1;
    socklen_t length = sizeof(value);
    return ::getsockopt(fd, level, name, &value, &length) == 0 ? value : -1;
  };
  std::size_t connected = 0;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/fd")) {
    const int fd = std::stoi(entry.path().filename().string());
    struct stat st {};
    if (::fstat(fd, &st) != 0 || !S_ISSOCK(st.st_mode)) continue;
    const int domain = option(fd, SOL_SOCKET, SO_DOMAIN);
    if ((domain != AF_INET && domain != AF_INET6) ||
        option(fd, SOL_SOCKET, SO_TYPE) != SOCK_STREAM ||
        option(fd, SOL_SOCKET, SO_ACCEPTCONN) != 0) {
      continue;  // a socketpair, a datagram socket or a listener
    }
    ++connected;
    EXPECT_EQ(option(fd, IPPROTO_TCP, TCP_NODELAY), 1) << "fd " << fd;
  }
  // Client and server ends, plus both ends of each of the two peer links.
  EXPECT_GE(connected, 6u);

  // The other threads must close these fds after the walk in an order TSan
  // can see (it does not follow a socket from one thread to another): the
  // servers' loops after stop(), the coordinator's tick thread (on the EOF
  // a stopped node leaves) after taking the mutex that stats() released.
  (void)(*coordinator)->stats();
  (*server)->stop();
  w1->stop();
  w2->stop();
}

TEST(Cluster, DedupCoalescesIntoOneRemoteSolve) {
  auto w1 = start_worker();
  ASSERT_TRUE(w1);
  auto coordinator = Coordinator::start(fast_config({w1->port()}));
  ASSERT_TRUE(coordinator) << coordinator.status().to_string();
  wait_for_peers(**coordinator, 1);

  // Identical instance + solve shape from two callers: one remote solve,
  // two futures. A longer budget keeps the first in flight while the
  // second arrives.
  auto first = (*coordinator)->submit(make_request(3, /*budget=*/1.0));
  ASSERT_TRUE(first) << first.status().to_string();
  auto second = (*coordinator)->submit(make_request(3, /*budget=*/1.0));
  ASSERT_TRUE(second) << second.status().to_string();
  EXPECT_FALSE(first->deduplicated);
  EXPECT_TRUE(second->deduplicated);
  EXPECT_NE(first->id, second->id);
  EXPECT_EQ(first->content_hash, second->content_hash);

  auto r1 = first->result.get();
  auto r2 = second->result.get();
  EXPECT_TRUE(r1.status.ok()) << r1.status.to_string();
  EXPECT_TRUE(r2.status.ok()) << r2.status.to_string();
  EXPECT_EQ(r1.best_value, r2.best_value);
  EXPECT_TRUE(r2.deduplicated);

  const auto stats = (*coordinator)->stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.dedup_hits, 1u);
  EXPECT_EQ(stats.dispatched, 1u);  // ONE remote solve for both waiters
}

TEST(Cluster, DedupOptOutGetsItsOwnSolve) {
  auto w1 = start_worker();
  ASSERT_TRUE(w1);
  auto coordinator = Coordinator::start(fast_config({w1->port()}));
  ASSERT_TRUE(coordinator) << coordinator.status().to_string();
  wait_for_peers(**coordinator, 1);

  auto request = make_request(4, /*budget=*/0.3);
  request.allow_dedup = false;
  auto first = (*coordinator)->submit(request);
  auto second = (*coordinator)->submit(request);
  ASSERT_TRUE(first && second);
  EXPECT_FALSE(second->deduplicated);
  EXPECT_TRUE(first->result.get().status.ok());
  EXPECT_TRUE(second->result.get().status.ok());
  EXPECT_EQ((*coordinator)->stats().dispatched, 2u);
}

TEST(Cluster, DedupCoalescesAcrossTenants) {
  // The service's rule: tenants are not part of the dedup key.
  auto coordinator = Coordinator::start(fast_config({1}));  // nothing listens
  ASSERT_TRUE(coordinator) << coordinator.status().to_string();
  auto first = (*coordinator)->submit(make_request(8));
  auto other = make_request(8);
  other.tenant = "batch";
  auto second = (*coordinator)->submit(other);
  ASSERT_TRUE(first && second);
  EXPECT_TRUE(second->deduplicated);
  (*coordinator)->stop();
  EXPECT_EQ(second->result.get().tenant, "batch");
}

TEST(Cluster, WorkerDeathFailsJobOverToSurvivor) {
  auto w1 = start_worker();
  auto w2 = start_worker();
  ASSERT_TRUE(w1 && w2);
  const auto config = fast_config({w1->port(), w2->port()});
  // The analytic failover budget: full heartbeat silence + the largest
  // first-try backoff + one dispatch tick. Redispatch must land within 10x
  // of it, counted from the kill, so a regression in detection or
  // redispatch fails here rather than surprising an operator.
  const auto failover_gate =
      10 * std::chrono::duration<double>(
               config.heartbeat_interval_seconds * config.heartbeat_misses +
               config.resubmit_backoff_seconds + 0.02);
  auto coordinator = Coordinator::start(config);
  ASSERT_TRUE(coordinator) << coordinator.status().to_string();
  wait_for_peers(**coordinator, 2);

  auto handle = (*coordinator)->submit(make_request(9, /*budget=*/5.0));
  ASSERT_TRUE(handle) << handle.status().to_string();

  // Find the node actually running the job and kill THAT one.
  WorkerNode* victim = nullptr;
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (!victim && std::chrono::steady_clock::now() < deadline) {
    if (w1->service().running_jobs() > 0) victim = w1.get();
    else if (w2->service().running_jobs() > 0) victim = w2.get();
    else std::this_thread::sleep_for(5ms);
  }
  ASSERT_NE(victim, nullptr) << "job never started on either node";
  const auto dispatched_before = (*coordinator)->stats().dispatched;
  const auto kill = std::chrono::steady_clock::now();
  victim->stop();  // connection vanishes exactly as on kill -9

  // Redispatch, not resolution, is the failover latency: the re-solve
  // spends the job's own budget, which is not the cluster's doing.
  while ((*coordinator)->stats().dispatched == dispatched_before &&
         std::chrono::steady_clock::now() - kill < 30s) {
    std::this_thread::sleep_for(1ms);
  }
  const std::chrono::duration<double> failover =
      std::chrono::steady_clock::now() - kill;
  ASSERT_GT((*coordinator)->stats().dispatched, dispatched_before)
      << "job was never re-dispatched";
  EXPECT_LE(failover, failover_gate)
      << "kill -> redispatch took " << failover.count() << " s";

  auto result = handle->result.get();
  EXPECT_TRUE(result.status.ok()) << result.status.to_string();
  EXPECT_GT(result.best_value, 0.0);
  const auto stats = (*coordinator)->stats();
  EXPECT_EQ(stats.failovers, 1u);
  EXPECT_GE(stats.nodes_lost, 1u);
  EXPECT_GE(stats.dispatched, 2u);  // original + at least one resubmission
  EXPECT_EQ(stats.exhausted, 0u);
}

TEST(Cluster, SilentPeerDoesNotFailOverHealthyPeer) {
  // A roster entry that accepts TCP (the kernel queues the connection) but
  // never answers the PeerHello. Waiting for its PeerWelcome must not stop
  // the pings to the healthy node, or the heartbeat fails that node over.
  const int silent = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(silent, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof addr;
  ASSERT_EQ(::bind(silent, reinterpret_cast<sockaddr*>(&addr), len), 0);
  ASSERT_EQ(::listen(silent, SOMAXCONN), 0);
  ASSERT_EQ(::getsockname(silent, reinterpret_cast<sockaddr*>(&addr), &len), 0);

  auto w1 = start_worker();
  ASSERT_TRUE(w1);
  auto coordinator =
      Coordinator::start(fast_config({w1->port(), ntohs(addr.sin_port)}));
  ASSERT_TRUE(coordinator) << coordinator.status().to_string();
  wait_for_peers(**coordinator, 1);
  std::this_thread::sleep_for(3s);
  const auto stats = (*coordinator)->stats();
  EXPECT_EQ(stats.nodes_lost, 0u) << "nodes_connected=" << stats.nodes_connected;
  (*coordinator)->stop();
  ::close(silent);
}

TEST(Cluster, HangingConnectDoesNotFailOverHealthyPeer) {
  // A roster entry whose TCP connect never completes: a listener with
  // backlog 0 whose accept queue is already full drops every further SYN.
  // Waiting for that connect must not stop the pings to the healthy node.
  const int full = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(full, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof addr;
  ASSERT_EQ(::bind(full, reinterpret_cast<sockaddr*>(&addr), len), 0);
  ASSERT_EQ(::listen(full, 0), 0);
  ASSERT_EQ(::getsockname(full, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  std::vector<int> queued;
  for (int k = 0; k < 3; ++k) {
    queued.push_back(::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0));
    ASSERT_GE(queued.back(), 0);
    (void)::connect(queued.back(), reinterpret_cast<sockaddr*>(&addr), len);
  }
  std::this_thread::sleep_for(100ms);
  ASSERT_FALSE(net::dial("127.0.0.1", ntohs(addr.sin_port), 0.2))
      << "the listener's queue is not full; a connect to it would not hang";

  auto w1 = start_worker();
  ASSERT_TRUE(w1);
  auto coordinator =
      Coordinator::start(fast_config({w1->port(), ntohs(addr.sin_port)}));
  ASSERT_TRUE(coordinator) << coordinator.status().to_string();
  wait_for_peers(**coordinator, 1);
  std::this_thread::sleep_for(3s);
  const auto stats = (*coordinator)->stats();
  EXPECT_EQ(stats.nodes_lost, 0u) << "nodes_connected=" << stats.nodes_connected;
  EXPECT_EQ((*coordinator)->alive_peers(), 1u);
  (*coordinator)->stop();
  for (const int fd : queued) ::close(fd);
  ::close(full);
}

TEST(Cluster, CoordinatorAddsOneThread) {
  // The tick thread reads every peer link itself, and each node's server
  // serves the coordinator's connection on the loop thread it already had:
  // the tick thread is the only new one.
  const auto threads = [] {
    return std::distance(std::filesystem::directory_iterator("/proc/self/task"),
                         std::filesystem::directory_iterator{});
  };
  auto w1 = start_worker();
  auto w2 = start_worker();
  ASSERT_TRUE(w1 && w2);
  const auto before = threads();
  auto coordinator =
      Coordinator::start(fast_config({w1->port(), w2->port()}));
  ASSERT_TRUE(coordinator) << coordinator.status().to_string();
  wait_for_peers(**coordinator, 2);
  EXPECT_EQ(threads() - before, 1);
}

TEST(Cluster, DeadlineExpiresWhileNoNodeIsAlive) {
  // No worker listens on this roster, so the job can never dispatch; its
  // per-waiter deadline must still fire.
  auto coordinator = Coordinator::start(fast_config({1}));
  ASSERT_TRUE(coordinator) << coordinator.status().to_string();
  auto request = make_request(5);
  request.deadline_seconds = 0.2;
  auto handle = (*coordinator)->submit(request);
  ASSERT_TRUE(handle) << handle.status().to_string();
  auto result = handle->result.get();
  EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded);
}

TEST(Cluster, StopResolvesOutstandingWaitersUnavailable) {
  auto coordinator = Coordinator::start(fast_config({1}));
  ASSERT_TRUE(coordinator) << coordinator.status().to_string();
  auto handle = (*coordinator)->submit(make_request(6));
  ASSERT_TRUE(handle) << handle.status().to_string();
  (*coordinator)->stop();
  auto result = handle->result.get();
  EXPECT_EQ(result.status.code(), StatusCode::kUnavailable);
}

TEST(Cluster, ReplicaCatchesUpAndBootsAPromotedCoordinator) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("pts_cluster_promote_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const auto replica = (dir / "w1.replica").string();

  auto w1 = start_worker(replica);
  ASSERT_TRUE(w1);
  const auto port = w1->port();
  auto config = fast_config({port});
  config.journal_path = (dir / "coord.journal").string();
  auto coordinator = Coordinator::start(std::move(config));
  ASSERT_TRUE(coordinator) << coordinator.status().to_string();
  wait_for_peers(**coordinator, 1);

  // One resolved job (2 records), then one left in flight (1 record).
  auto done = (*coordinator)->submit(make_request(21, /*budget=*/0.1));
  ASSERT_TRUE(done) << done.status().to_string();
  EXPECT_TRUE(done->result.get().status.ok());
  auto open = (*coordinator)->submit(make_request(22, /*budget=*/5.0));
  ASSERT_TRUE(open) << open.status().to_string();

  // The worker's replica must apply all three records.
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (w1->last_applied_seq() < 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_GE(w1->last_applied_seq(), 3u);

  // Coordinator dies (gracefully here; its journal records stay open).
  (*coordinator)->stop();
  EXPECT_EQ(open->result.get().status.code(), StatusCode::kUnavailable);

  // Promotion: a NEW coordinator boots off a COPY of the worker's replica
  // and re-owns the in-flight job. The replica is the standard PTSJ format,
  // so this is just journal_path pointed at the snapshot. (A copy, not the
  // live file: the epoch-2 handshake below truncates w1's replica, which
  // must not clobber the promoted coordinator's own journal.)
  const auto promoted_journal = (dir / "promoted.journal").string();
  std::filesystem::copy_file(replica, promoted_journal);
  auto promoted_config = fast_config({port});
  promoted_config.journal_path = promoted_journal;
  promoted_config.epoch = 2;
  auto promoted = Coordinator::start(std::move(promoted_config));
  ASSERT_TRUE(promoted) << promoted.status().to_string();
  auto recovered = (*promoted)->take_recovered();
  ASSERT_EQ(recovered.size(), 1u);  // the resolved job must NOT come back
  auto result = recovered[0].result.get();
  EXPECT_TRUE(result.status.ok()) << result.status.to_string();
  EXPECT_GT(result.best_value, 0.0);

  // The epoch bump must have reset w1's cursor: the promoted coordinator
  // numbers its replication log from 1 again (seq 1 = the recovered job's
  // kSubmitted, seq 2 = its kResolved above), so w1's stale epoch-1 cursor
  // of 3 would swallow both and stall replication to it for good.
  const auto epoch_deadline = std::chrono::steady_clock::now() + 10s;
  while (w1->last_applied_seq() != 2 &&
         std::chrono::steady_clock::now() < epoch_deadline) {
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_EQ(w1->last_applied_seq(), 2u);

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

TEST(Cluster, WorkerRefusesAStaleCoordinatorEpoch) {
  // Driven through the handler directly: once epoch 5 has been served, a
  // hello from epoch 4 — the deposed coordinator waking back up — must be
  // refused, not silently re-adopted.
  auto w1 = start_worker();
  ASSERT_TRUE(w1);
  const auto hello5 = encode_peer_hello({"pts", 5});
  const std::span<const std::uint8_t> payload5 =
      std::span(hello5).subspan(parallel::wire::kHeaderBytes);
  auto first = w1->on_peer_frame(parallel::wire::MessageType::kPeerHello,
                                 payload5);
  ASSERT_TRUE(first) << first.status().to_string();

  const auto hello4 = encode_peer_hello({"pts", 4});
  const std::span<const std::uint8_t> payload4 =
      std::span(hello4).subspan(parallel::wire::kHeaderBytes);
  auto stale = w1->on_peer_frame(parallel::wire::MessageType::kPeerHello,
                                 payload4);
  ASSERT_FALSE(stale);
  EXPECT_EQ(stale.status().code(), StatusCode::kInvalidArgument);

  // The incumbent epoch reconnecting is fine (cursor kept, no refusal).
  auto again = w1->on_peer_frame(parallel::wire::MessageType::kPeerHello,
                                 payload5);
  EXPECT_TRUE(again) << again.status().to_string();
}

TEST(Cluster, CoordinatorJournalKeepsDedupProvenanceOnReplay) {
  // The coordinator writes a coalesced follower as kSubmitted THEN kDedup;
  // replay only honors a link whose follower is already open, so the
  // reverse order would silently drop the provenance.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("pts_cluster_dedup_journal_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  auto config = fast_config({1});  // no node listens: jobs stay open
  config.journal_path = (dir / "coord.journal").string();
  const auto journal_path = config.journal_path;
  auto coordinator = Coordinator::start(std::move(config));
  ASSERT_TRUE(coordinator) << coordinator.status().to_string();

  auto first = (*coordinator)->submit(make_request(51, /*budget=*/5.0));
  auto second = (*coordinator)->submit(make_request(51, /*budget=*/5.0));
  ASSERT_TRUE(first && second);
  EXPECT_TRUE(second->deduplicated);
  (*coordinator)->stop();  // waiters resolve kUnavailable, records stay open

  auto recovered = service::journal::recover_jobs(journal_path);
  ASSERT_TRUE(recovered) << recovered.status().to_string();
  ASSERT_EQ(recovered->size(), 2u);
  EXPECT_EQ((*recovered)[0].dedup_primary, 0u);
  EXPECT_EQ((*recovered)[1].dedup_primary, (*recovered)[0].id);

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

TEST(Cluster, LogCompactionKeepsAStrikeAReplicaWasNotSentYet) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("pts_cluster_strike_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const auto replica = (dir / "w1.replica").string();
  auto w1 = start_worker(replica);
  ASSERT_TRUE(w1);
  auto coordinator = Coordinator::start(fast_config({w1->port()}));
  ASSERT_TRUE(coordinator) << coordinator.status().to_string();
  wait_for_peers(**coordinator, 1);
  const auto applied = [&](std::uint64_t seq) {
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    while (w1->last_applied_seq() < seq &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(5ms);
    }
    return w1->last_applied_seq() >= seq;
  };

  // 256 coalesced waiters on one long solve keep 511 open records (256
  // kSubmitted, 255 kDedup). X's kSubmitted is the 512th and its kResolved
  // the 513th, the first past the 512 at which the log compacts.
  std::vector<service::JobHandle> riders;
  for (int k = 0; k < 256; ++k) {
    auto handle = (*coordinator)->submit(make_request(61, /*budget=*/30.0));
    ASSERT_TRUE(handle) << handle.status().to_string();
    riders.push_back(std::move(*handle));
  }
  auto x = (*coordinator)->submit(make_request(62, /*budget=*/30.0));
  ASSERT_TRUE(x) << x.status().to_string();
  ASSERT_TRUE(applied(512));  // X's kSubmitted reached the replica

  // X's kResolved (seq 513) is appended and compacted before the next tick;
  // the replica must still receive it.
  ASSERT_TRUE((*coordinator)->cancel(x->id));
  EXPECT_EQ(x->result.get().status.code(), StatusCode::kCancelled);
  std::this_thread::sleep_for(500ms);
  EXPECT_GE(w1->last_applied_seq(), 513u);
  auto open = service::journal::recover_jobs(replica);
  ASSERT_TRUE(open) << open.status().to_string();
  EXPECT_EQ(open->size(), riders.size());
  for (const auto& job : *open) EXPECT_NE(job.id, x->id);

  (*coordinator)->stop();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

TEST(Cluster, CoordinatorJournalCompactsWithoutRestart) {
  // The coordinator's own journal shrinks back to its open jobs while it
  // runs, as Journal.ServiceCompactsPeriodicallyWithoutRestart checks for
  // the service.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("pts_cluster_compact_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  auto config = fast_config({1});  // nothing listens: jobs stay pending
  config.journal_path = (dir / "coord.journal").string();
  const auto path = config.journal_path;
  const auto compactions_before =
      obs::metrics().counter("service_journal_compactions_total").value();
  auto coordinator = Coordinator::start(std::move(config));
  ASSERT_TRUE(coordinator) << coordinator.status().to_string();

  auto kept = (*coordinator)->submit(make_request(70));
  ASSERT_TRUE(kept) << kept.status().to_string();
  std::uintmax_t peak = 0;
  for (std::uint64_t k = 1; k <= 130; ++k) {  // 261 records in all
    auto handle = (*coordinator)->submit(make_request(70 + k));
    ASSERT_TRUE(handle) << handle.status().to_string();
    peak = std::max(peak, std::filesystem::file_size(path));
    ASSERT_TRUE((*coordinator)->cancel(handle->id));
  }
  // The file is replaced before the counter moves: wait for both.
  const auto compacted = [&] {
    return std::filesystem::file_size(path) <= peak / 4 &&
           obs::metrics().counter("service_journal_compactions_total").value() >
               compactions_before;
  };
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (!compacted() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_TRUE(compacted()) << std::filesystem::file_size(path) << " of " << peak;

  (*coordinator)->stop();  // leaves `kept` open
  auto open = service::journal::recover_jobs(path);
  ASSERT_TRUE(open) << open.status().to_string();
  ASSERT_EQ(open->size(), 1u);
  EXPECT_EQ((*open)[0].id, kept->id);
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

TEST(Cluster, WorkerWithoutReplicaNeverAcksReplication) {
  // A node with no replica journal still solves jobs, but its
  // applied-through cursor must stay at 0: acking records it never
  // persisted would let a promotion trust an empty (nonexistent) replica.
  auto w1 = start_worker(/*replica=*/"");
  ASSERT_TRUE(w1);
  auto coordinator = Coordinator::start(fast_config({w1->port()}));
  ASSERT_TRUE(coordinator) << coordinator.status().to_string();
  wait_for_peers(**coordinator, 1);

  auto handle = (*coordinator)->submit(make_request(41, /*budget=*/0.1));
  ASSERT_TRUE(handle) << handle.status().to_string();
  EXPECT_TRUE(handle->result.get().status.ok());
  EXPECT_EQ(w1->last_applied_seq(), 0u);
}

TEST(Cluster, RejoinedWorkerCatchesUpAndTakesPendingWork) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("pts_cluster_rejoin_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);

  auto w1 = start_worker((dir / "w1.replica").string());
  ASSERT_TRUE(w1);
  const auto port = w1->port();
  auto coordinator = Coordinator::start(fast_config({port}));
  ASSERT_TRUE(coordinator) << coordinator.status().to_string();
  wait_for_peers(**coordinator, 1);

  auto handle = (*coordinator)->submit(make_request(31, /*budget=*/0.3));
  ASSERT_TRUE(handle) << handle.status().to_string();

  // The only node dies; the job returns to pending with nowhere to go.
  w1->stop();
  w1.reset();

  // A replacement joins on the SAME address with a fresh replica (cursor
  // 0). The coordinator must re-handshake, resend the live image and
  // dispatch the stranded job to it.
  auto w2 = start_worker((dir / "w2.replica").string(), port);
  ASSERT_TRUE(w2);

  auto result = handle->result.get();
  EXPECT_TRUE(result.status.ok()) << result.status.to_string();
  EXPECT_GE(w2->last_applied_seq(), 1u);
  EXPECT_GE((*coordinator)->stats().nodes_connected, 2u);

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

TEST(Cluster, CoordinatorRefusesAnEmptyRoster) {
  CoordinatorConfig config;
  auto coordinator = Coordinator::start(std::move(config));
  ASSERT_FALSE(coordinator);
  EXPECT_EQ(coordinator.status().code(), StatusCode::kInvalidArgument);
}

// The coordinator's side of the JobGateway contract: each accepted waiter's
// callback fires exactly once on every path that resolves it, a refused
// submission's never. Counts are checked after stop(), which joins every
// coordinator thread.
TEST(Cluster, CallbackFiresOnceForRunDedupAndRefusal) {
  service::CallbackTally tally;
  auto w1 = start_worker();
  ASSERT_TRUE(w1);
  auto coordinator = Coordinator::start(fast_config({w1->port()}));
  ASSERT_TRUE(coordinator) << coordinator.status().to_string();
  wait_for_peers(**coordinator, 1);

  ASSERT_TRUE((*coordinator)->submit(make_request(3, 1.0), tally.callback(1)));
  auto follower = (*coordinator)->submit(make_request(3, 1.0), tally.callback(2));
  ASSERT_TRUE(follower);
  EXPECT_TRUE(follower->deduplicated);
  auto refused = make_request(4);
  refused.instance = nullptr;
  ASSERT_FALSE((*coordinator)->submit(refused, tally.callback(3)));

  ASSERT_TRUE(tally.wait_total(2));
  (*coordinator)->stop();
  EXPECT_EQ(tally.calls(1), 1);
  EXPECT_EQ(tally.calls(2), 1);
  EXPECT_EQ(tally.calls(3), 0);
  EXPECT_EQ(tally.code(1), StatusCode::kOk);
  EXPECT_EQ(tally.code(2), StatusCode::kOk);
}

TEST(Cluster, CallbackFiresOnceForPendingCancelDeadlineAndStop) {
  // No worker listens on this roster: every job stays pending.
  service::CallbackTally tally;
  auto coordinator = Coordinator::start(fast_config({1}));
  ASSERT_TRUE(coordinator) << coordinator.status().to_string();
  auto cancelled = (*coordinator)->submit(make_request(5), tally.callback(1));
  ASSERT_TRUE(cancelled);
  auto expiring = make_request(6);
  expiring.deadline_seconds = 0.2;
  ASSERT_TRUE((*coordinator)->submit(expiring, tally.callback(2)));
  ASSERT_TRUE((*coordinator)->submit(make_request(7), tally.callback(3)));

  EXPECT_TRUE((*coordinator)->cancel(cancelled->id));
  ASSERT_TRUE(tally.wait_total(2));
  (*coordinator)->stop();
  ASSERT_FALSE((*coordinator)->submit(make_request(8), tally.callback(4)));
  for (const int slot : {1, 2, 3}) EXPECT_EQ(tally.calls(slot), 1) << slot;
  EXPECT_EQ(tally.calls(4), 0);
  EXPECT_EQ(tally.code(1), StatusCode::kCancelled);
  EXPECT_EQ(tally.code(2), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(tally.code(3), StatusCode::kUnavailable);
}

TEST(Cluster, CallbackFiresOnceForRunningCancelShedAndDeadline) {
  // A one-wide worker with one queue slot that sheds its lowest job.
  service::CallbackTally tally;
  WorkerNodeConfig config;
  config.service.num_workers = 1;
  config.service.queue_capacity = 1;
  config.service.overflow = service::OverflowPolicy::kShedLowest;
  auto node = WorkerNode::start(std::move(config));
  ASSERT_TRUE(node) << node.status().to_string();
  WorkerNode& w1 = **node;
  auto coordinator = Coordinator::start(fast_config({w1.port()}));
  ASSERT_TRUE(coordinator) << coordinator.status().to_string();
  wait_for_peers(**coordinator, 1);
  const auto wait_for = [](const std::function<bool()>& done) {
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    while (!done() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(5ms);
    }
    return done();
  };

  auto running = (*coordinator)->submit(make_request(11, 30.0), tally.callback(1));
  ASSERT_TRUE(running);
  ASSERT_TRUE(wait_for([&] { return w1.service().running_jobs() == 1; }));
  auto low = make_request(12, 30.0);
  low.priority = 1;
  ASSERT_TRUE((*coordinator)->submit(low, tally.callback(2)));
  ASSERT_TRUE(wait_for([&] { return w1.service().queued_jobs() == 1; }));
  // Outranks the queued job on the worker, which sheds it.
  auto high = make_request(13, 30.0);
  high.priority = 5;
  ASSERT_TRUE((*coordinator)->submit(high, tally.callback(3)));
  ASSERT_TRUE(tally.wait_total(1));
  EXPECT_EQ(tally.code(2), StatusCode::kResourceExhausted);

  // Cancel of a dispatched waiter resolves it at once; the remote
  // kCancelled result that follows finds no waiter left.
  EXPECT_TRUE((*coordinator)->cancel(running->id));
  ASSERT_TRUE(tally.wait_total(2));
  EXPECT_EQ(tally.code(1), StatusCode::kCancelled);
  // A stricter waiter on the high job's solve: its own deadline resolves it.
  high.deadline_seconds = 0.3;
  auto strict = (*coordinator)->submit(high, tally.callback(4));
  ASSERT_TRUE(strict);
  EXPECT_TRUE(strict->deduplicated);
  ASSERT_TRUE(tally.wait_total(3));
  EXPECT_EQ(tally.code(4), StatusCode::kDeadlineExceeded);
  // Let the running job's remote kCancelled arrive before stopping.
  ASSERT_TRUE(wait_for([&] { return w1.service().running_jobs() == 1 &&
                                    w1.service().queued_jobs() == 0; }));

  (*coordinator)->stop();
  for (const int slot : {1, 2, 3, 4}) EXPECT_EQ(tally.calls(slot), 1) << slot;
  EXPECT_EQ(tally.code(3), StatusCode::kUnavailable);
}

}  // namespace
}  // namespace pts::cluster
