// Network front-end integration tests (DESIGN.md §10): a real net::Server
// over a real SolverService on a loopback ephemeral port, driven by the real
// net::Client — the exact frames a remote pts_client sends. The acceptance
// bar: a TCP-submitted job is bit-identical to the same submission made
// in-process (fixed seed, thread AND proc backends), a vanished client
// cancels only its own waiters, and the chaos knobs break things without
// crashing anything.
#include "net/server.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "bounds/greedy.hpp"
#include "mkp/generator.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "service/solver_service.hpp"
#include "util/rng.hpp"

namespace pts::net {
namespace {

using namespace std::chrono_literals;

constexpr const char* kWorkerBin = PTS_WORKER_BIN_FOR_TESTS;

class EnvGuard {
 public:
  EnvGuard(std::initializer_list<std::pair<const char*, const char*>> vars) {
    for (const auto& [name, value] : vars) {
      ::setenv(name, value, 1);
      names_.push_back(name);
    }
  }
  ~EnvGuard() {
    for (const char* name : names_) ::unsetenv(name);
  }
  EnvGuard(const EnvGuard&) = delete;
  EnvGuard& operator=(const EnvGuard&) = delete;

 private:
  std::vector<const char*> names_;
};

std::shared_ptr<const mkp::Instance> make_instance(std::uint64_t seed = 1) {
  return std::make_shared<const mkp::Instance>(
      mkp::generate_gk({.num_items = 30, .num_constraints = 4}, seed));
}

/// A target the search's very first incumbent already beats: the run stops
/// at the first round boundary instead of its wall-clock budget, so the
/// trajectory — and the move count — is fully deterministic on a fixed seed.
double easy_target(const mkp::Instance& inst) {
  Rng rng(1);
  return bounds::greedy_randomized(inst, rng).value() * 0.5;
}

service::SubmitRequest make_request(std::shared_ptr<const mkp::Instance> inst,
                                    double budget = 8.0,
                                    std::uint64_t seed = 7) {
  service::SubmitRequest request;
  request.instance = std::move(inst);
  request.tenant = "prod";
  request.options.preset = "quick";
  request.options.time_budget_seconds = budget;
  request.options.seed = seed;
  return request;
}

struct Harness {
  std::unique_ptr<service::SolverService> service;
  std::unique_ptr<Server> server;

  explicit Harness(service::ServiceConfig pool = {}, ServerConfig net = {}) {
    service = std::make_unique<service::SolverService>(pool);
    auto started = Server::start(*service, net);
    EXPECT_TRUE(started) << started.status().to_string();
    if (started) server = std::move(*started);
  }
  ~Harness() {
    if (server) server->stop();
    if (service) service->shutdown();
  }
  Client connect() {
    auto client = Client::connect("127.0.0.1", server->port());
    EXPECT_TRUE(client) << client.status().to_string();
    return std::move(*client);
  }
};

/// The acceptance bar: the SAME SubmitRequest through TCP and through the
/// in-process API lands on a bit-identical result — value, move count and
/// the solution itself. The wire carries IEEE-754 bit patterns end to end.
void expect_tcp_matches_in_process(service::SubmitRequest request) {
  // In-process reference, on its own service so nothing is shared.
  service::JobResult reference;
  {
    service::SolverService local{service::ServiceConfig{}};
    auto handle = local.submit(request);
    ASSERT_TRUE(handle) << handle.status().to_string();
    reference = handle->result.get();
  }
  ASSERT_TRUE(reference.status.ok()) << reference.status.to_string();

  ServerConfig net;
  if (request.options.backend == parallel::Backend::kProcess) {
    net.worker_path = kWorkerBin;
  }
  Harness harness({}, net);
  Client client = harness.connect();
  auto job = client.submit(request);
  ASSERT_TRUE(job) << job.status().to_string();
  auto remote = client.wait(*job, /*timeout_seconds=*/60.0);
  ASSERT_TRUE(remote) << remote.status().to_string();
  ASSERT_TRUE(remote->status.ok()) << remote->status.to_string();

  EXPECT_EQ(std::memcmp(&remote->best_value, &reference.best_value,
                        sizeof(double)),
            0)
      << "remote=" << remote->best_value << " local=" << reference.best_value;
  EXPECT_EQ(remote->total_moves, reference.total_moves);
  ASSERT_TRUE(remote->best.has_value());
  ASSERT_TRUE(reference.best.has_value());
  EXPECT_EQ(*remote->best, *reference.best);
  EXPECT_EQ(remote->content_hash, reference.content_hash);
}

TEST(NetServer, TcpSubmissionMatchesInProcessThreadBackend) {
  auto request = make_request(make_instance());
  request.options.target_value = easy_target(*request.instance);
  expect_tcp_matches_in_process(std::move(request));
}

TEST(NetServer, TcpSubmissionMatchesInProcessProcBackend) {
  auto request = make_request(make_instance());
  request.options.target_value = easy_target(*request.instance);
  request.options.backend = parallel::Backend::kProcess;
  request.options.proc.worker_path = kWorkerBin;
  expect_tcp_matches_in_process(std::move(request));
}

TEST(NetServer, ServerOverridesClientWorkerPath) {
  // A client-sent worker path names a binary on the CLIENT's machine; the
  // server must substitute its own. A bogus client path + a correct server
  // path must still solve.
  ServerConfig net;
  net.worker_path = kWorkerBin;
  Harness harness({}, net);
  Client client = harness.connect();
  auto request = make_request(make_instance(), /*budget=*/8.0);
  request.options.target_value = easy_target(*request.instance);
  request.options.backend = parallel::Backend::kProcess;
  request.options.proc.worker_path = "/nonexistent/pts_worker";
  auto job = client.submit(request);
  ASSERT_TRUE(job) << job.status().to_string();
  auto result = client.wait(*job, 60.0);
  ASSERT_TRUE(result) << result.status().to_string();
  EXPECT_TRUE(result->status.ok()) << result->status.to_string();
}

TEST(NetServer, CancelFrameResolvesThatJobCancelled) {
  Harness harness;
  Client client = harness.connect();
  auto request = make_request(make_instance(), /*budget=*/30.0);
  request.options.preset = "thorough";
  auto job = client.submit(request);
  ASSERT_TRUE(job) << job.status().to_string();
  std::this_thread::sleep_for(200ms);
  ASSERT_TRUE(client.cancel(*job).ok());
  auto result = client.wait(*job, /*timeout_seconds=*/30.0);
  ASSERT_TRUE(result) << result.status().to_string();
  EXPECT_EQ(result->status.code(), StatusCode::kCancelled);
}

TEST(NetServer, DisconnectCancelsOnlyThatConnectionsWaiters) {
  // Two connections attach to ONE deduplicated solve. The first vanishes
  // mid-run; the second still gets its result — the vanished peer loses
  // only its own stake (SolverService::cancel per outstanding submission).
  Harness harness;
  auto inst = make_instance(5);
  Client doomed = harness.connect();
  Client survivor = harness.connect();

  auto request = make_request(inst, /*budget=*/6.0);
  auto first = doomed.submit(request);
  ASSERT_TRUE(first) << first.status().to_string();
  auto second = survivor.submit(request);
  ASSERT_TRUE(second) << second.status().to_string();
  EXPECT_TRUE(second->deduplicated);  // same instance, same solve shape

  doomed.close();  // vanish mid-solve

  auto result = survivor.wait(*second, /*timeout_seconds=*/60.0);
  ASSERT_TRUE(result) << result.status().to_string();
  EXPECT_TRUE(result->status.ok()) << result->status.to_string();

  // The server counted exactly the vanished connection's waiter.
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (harness.server->stats().disconnect_cancels == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_EQ(harness.server->stats().disconnect_cancels, 1u);
}

TEST(NetServer, AdmissionRejectionComesBackOnTheAck) {
  // Queue backpressure is an ADMISSION failure: submit() returns the Status,
  // the server ships it on the ack, no result frame ever follows.
  service::ServiceConfig pool;
  pool.num_workers = 1;
  pool.queue_capacity = 1;
  Harness harness(pool);
  Client client = harness.connect();
  std::vector<RemoteJob> accepted;
  Status rejection;
  for (int k = 0; k < 8; ++k) {
    auto request = make_request(make_instance(static_cast<std::uint64_t>(k)),
                                /*budget=*/10.0);
    request.allow_dedup = false;
    auto job = client.submit(request);
    if (job) {
      accepted.push_back(*job);
      continue;
    }
    rejection = job.status();
    break;
  }
  EXPECT_EQ(rejection.code(), StatusCode::kResourceExhausted)
      << rejection.to_string();
  for (const auto& job : accepted) (void)client.cancel(job);
  for (const auto& job : accepted) (void)client.wait(job, 30.0);
}

TEST(NetServer, InvalidOptionsAreRefusedOnTheAck) {
  // An unknown preset is an admission failure under the request API: the
  // submit() Status crosses back on the ack, no result frame ever follows —
  // and the connection stays healthy for the next submission.
  Harness harness;
  Client client = harness.connect();
  auto request = make_request(make_instance());
  request.options.preset = "warp-speed";
  auto job = client.submit(request);
  ASSERT_FALSE(job);
  EXPECT_EQ(job.status().code(), StatusCode::kInvalidArgument)
      << job.status().to_string();

  auto good = make_request(make_instance(), /*budget=*/8.0);
  good.options.target_value = easy_target(*good.instance);
  auto ok = client.submit(good);
  ASSERT_TRUE(ok) << ok.status().to_string();
  auto result = client.wait(*ok, 60.0);
  ASSERT_TRUE(result) << result.status().to_string();
  EXPECT_TRUE(result->status.ok()) << result->status.to_string();
}

TEST(NetServer, ConnectionCapTurnsAwayWithGoodbye) {
  ServerConfig net;
  net.max_connections = 1;
  Harness harness({}, net);
  Client first = harness.connect();
  Client second = harness.connect();  // accepted, told Goodbye, closed
  auto job = second.submit(make_request(make_instance(), /*budget=*/1.0));
  EXPECT_FALSE(job);
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (harness.server->stats().connections_turned_away == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_EQ(harness.server->stats().connections_turned_away, 1u);

  // The capped connection was never admitted; the first one still works.
  auto ok = first.submit(make_request(make_instance(), /*budget=*/2.0));
  ASSERT_TRUE(ok) << ok.status().to_string();
  auto result = first.wait(*ok, 60.0);
  ASSERT_TRUE(result) << result.status().to_string();
}

TEST(NetServer, DrainRefusesNewWorkAndSaysGoodbye) {
  Harness harness;
  Client client = harness.connect();
  EXPECT_TRUE(harness.server->drain(/*timeout_seconds=*/5.0));
  auto job = client.submit(make_request(make_instance(), /*budget=*/1.0));
  ASSERT_FALSE(job);
  EXPECT_EQ(job.status().code(), StatusCode::kUnavailable)
      << job.status().to_string();
}

TEST(NetServerChaos, CorruptKnobInjectsWithoutCrashing) {
  // 100% corrupt probability: every outbound frame gets one flipped bit past
  // the header. The invariant is totality, not failure — a flip can land in
  // a don't-care byte and still decode — so the assertions are "chaos fired"
  // and "nothing crashed", with every client outcome a value or a Status.
  EnvGuard chaos({{"PTS_CHAOS_NET_CORRUPT_PPM", "1000000"}});
  Harness harness;
  Client client = harness.connect();
  for (int k = 0; k < 4; ++k) {
    auto job = client.submit(make_request(make_instance(), /*budget=*/0.2));
    if (!job) break;  // a corrupt ack is the expected outcome
    (void)client.wait(*job, 30.0);
  }
  EXPECT_GE(harness.server->stats().chaos_injections, 1u);
}

TEST(NetServerChaos, DropKnobVanishesTheConnection) {
  // 100% drop probability: the first inbound frame drops the connection as
  // if the peer vanished. The client sees a dead socket, the server counts
  // the injection, and nothing hangs.
  EnvGuard chaos({{"PTS_CHAOS_NET_DROP_PPM", "1000000"}});
  Harness harness;
  Client client = harness.connect();
  auto job = client.submit(make_request(make_instance(), /*budget=*/1.0));
  EXPECT_FALSE(job);
  EXPECT_GE(harness.server->stats().chaos_injections, 1u);
}

TEST(NetServer, IdleConnectionIsReapedAfterTimeout) {
  // A connection that never sends a byte (a half-open peer after a crash
  // or a silent partition) must not hold its reader thread and connection
  // slot forever: past the idle timeout the server reaps it.
  ServerConfig net;
  net.idle_timeout_seconds = 0.3;
  Harness harness({}, net);
  auto socket = dial("127.0.0.1", harness.server->port(), 5.0);
  ASSERT_TRUE(socket) << socket.status().to_string();

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(10.0);
  while (harness.server->stats().connections_reaped == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_EQ(harness.server->stats().connections_reaped, 1u);
}

TEST(NetServer, ConnectionOwedAResultIsNeverReaped) {
  // The reap rule is byte-silence AND no outstanding work: a client that
  // submitted a job longer than the idle timeout and is quietly blocked in
  // wait() keeps its connection until the result frame goes out.
  ServerConfig net;
  net.idle_timeout_seconds = 0.3;
  Harness harness({}, net);
  Client client = harness.connect();
  auto job = client.submit(make_request(make_instance(), /*budget=*/1.5));
  ASSERT_TRUE(job) << job.status().to_string();
  auto result = client.wait(*job, /*timeout_seconds=*/60.0);
  ASSERT_TRUE(result) << result.status().to_string();
  EXPECT_TRUE(result->status.ok()) << result->status.to_string();
  EXPECT_EQ(harness.server->stats().connections_reaped, 0u);
}

TEST(NetServer, StopWithOutstandingWorkTerminates) {
  // stop() without a drain must cancel outstanding submissions and join
  // every thread — a hang here is the bug.
  auto harness = std::make_unique<Harness>();
  Client client = harness->connect();
  auto request = make_request(make_instance(), /*budget=*/30.0);
  request.options.preset = "thorough";
  auto job = client.submit(request);
  ASSERT_TRUE(job) << job.status().to_string();
  harness->server->stop();
  harness.reset();  // ~SolverService: every future resolves
}

std::size_t count_threads() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

TEST(NetServer, InFlightSubmissionsAddNoThreads) {
  // Results ship from each connection's reader thread: K submissions in
  // flight on one connection cost the server no thread of their own.
  constexpr int kInFlight = 4;
  service::ServiceConfig pool;
  pool.num_workers = 1;
  Harness harness(pool);
  Client client = harness.connect();

  // A refused submission is a full round trip: the reader is up once the
  // ack comes back.
  auto refused = make_request(make_instance());
  refused.options.preset = "warp-speed";
  ASSERT_FALSE(client.submit(refused));

  // An in-process job holds the only worker (its job and slave threads
  // exist from here on), so the network jobs below stay queued behind it.
  auto blocker_request = make_request(make_instance(99), /*budget=*/30.0);
  blocker_request.allow_dedup = false;
  auto blocker = harness.service->submit(blocker_request);
  ASSERT_TRUE(blocker) << blocker.status().to_string();
  while (harness.service->running_jobs() == 0) std::this_thread::sleep_for(1ms);
  std::this_thread::sleep_for(200ms);
  const std::size_t idle = count_threads();

  std::vector<RemoteJob> jobs;
  for (int k = 0; k < kInFlight; ++k) {
    auto request = make_request(make_instance(static_cast<std::uint64_t>(k)),
                                /*budget=*/30.0);
    request.allow_dedup = false;
    auto job = client.submit(request);
    ASSERT_TRUE(job) << job.status().to_string();
    jobs.push_back(*job);
  }
  EXPECT_EQ(harness.service->queued_jobs(), static_cast<std::size_t>(kInFlight));
  EXPECT_EQ(count_threads(), idle);

  for (const auto& job : jobs) ASSERT_TRUE(client.cancel(job).ok());
  for (const auto& job : jobs) {
    auto result = client.wait(job, 30.0);
    ASSERT_TRUE(result) << result.status().to_string();
    EXPECT_EQ(result->status.code(), StatusCode::kCancelled);
  }
  EXPECT_TRUE(harness.service->cancel(blocker->id));
  (void)blocker->result.get();
}

/// A gateway that answers every submission with a canned result before
/// submit() returns: inside submit() itself, or from another thread.
class ImmediateGateway final : public service::JobGateway {
 public:
  explicit ImmediateGateway(bool from_other_thread)
      : from_other_thread_(from_other_thread) {}

  Expected<service::JobTicket> submit(service::SubmitRequest request,
                                      service::JobCallback on_done) override {
    service::JobTicket ticket;
    ticket.id = ++submitted_;
    service::JobResult result;
    result.id = ticket.id;
    result.instance = request.instance;
    result.best_value = 42.0;
    // More samples than one JobEvent carries: the curve ships in chunks.
    for (std::size_t k = 0; k <= kMaxAnytimeSamplesPerEvent; ++k) {
      result.anytime.push_back({.seconds = static_cast<double>(k),
                                .value = static_cast<double>(k)});
    }
    if (from_other_thread_) {
      std::thread([&] { on_done(std::move(result)); }).join();
    } else {
      on_done(std::move(result));
    }
    return ticket;
  }
  bool cancel(service::JobId) override { return false; }

 private:
  const bool from_other_thread_;
  service::JobId submitted_ = 0;  // submit() runs on the reader thread only
};

/// Submits on a raw socket and checks the frame order the client sees: the
/// ack first, then the anytime chunks, then the result.
void expect_ack_before_result(bool from_other_thread) {
  ImmediateGateway gateway(from_other_thread);
  auto server = Server::start(gateway, {});
  ASSERT_TRUE(server) << server.status().to_string();
  auto socket = dial("127.0.0.1", (*server)->port(), 5.0);
  ASSERT_TRUE(socket) << socket.status().to_string();

  const auto inst = make_instance();
  for (std::uint64_t request_id = 1; request_id <= 3; ++request_id) {
    service::JobOptions options;
    options.preset = "quick";
    const SubmitJob m{request_id, "prod", 0, std::nullopt,
                      service::WarmStartPolicy::kDisabled, true, options, *inst};
    ASSERT_TRUE(socket->send_frame(encode_submit_job(m)).ok());

    auto ack_frame = socket->read_frame(10.0);
    ASSERT_TRUE(ack_frame) << ack_frame.status().to_string();
    ASSERT_EQ(ack_frame->type, parallel::wire::MessageType::kSubmitAck);
    auto ack = decode_submit_ack(ack_frame->payload);
    ASSERT_TRUE(ack) << ack.status().to_string();
    EXPECT_EQ(ack->request_id, request_id);
    EXPECT_TRUE(ack->status.ok()) << ack->status.to_string();

    std::size_t events = 0;
    for (;;) {
      auto frame = socket->read_frame(10.0);
      ASSERT_TRUE(frame) << frame.status().to_string();
      if (frame->type == parallel::wire::MessageType::kJobEvent) {
        ++events;
        continue;
      }
      ASSERT_EQ(frame->type, parallel::wire::MessageType::kJobResult);
      auto result = decode_job_result(frame->payload, *inst);
      ASSERT_TRUE(result) << result.status().to_string();
      EXPECT_EQ(result->request_id, request_id);
      EXPECT_EQ(result->best_value, 42.0);
      break;
    }
    EXPECT_EQ(events, 2u);
  }
  // Every pending entry was retired once its result shipped.
  EXPECT_TRUE((*server)->drain(/*timeout_seconds=*/5.0));
}

TEST(NetServerGateway, ResultResolvedInsideSubmitFollowsTheAck) {
  expect_ack_before_result(/*from_other_thread=*/false);
}

TEST(NetServerGateway, ResultResolvedOnAnotherThreadFollowsTheAck) {
  expect_ack_before_result(/*from_other_thread=*/true);
}

}  // namespace
}  // namespace pts::net
