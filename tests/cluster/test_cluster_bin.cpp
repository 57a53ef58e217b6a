// The cluster acceptance drill (DESIGN.md §11), against the REAL
// pts_cluster binaries: a 3-node cluster (1 coordinator + 2 workers)
// survives kill -9 of a worker mid-solve — every submitted future
// resolves Ok and the final best dominates everything the dead node had
// reported before it died (the deterministic engine replays the same
// trajectory on the survivor, so failover costs wall-clock, never
// quality). A second drill drives the node-kill chaos knob instead of an
// external SIGKILL: the worker executes raise(SIGKILL) on itself the
// moment the coordinator's hello arrives.
#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "mkp/generator.hpp"
#include "net/client.hpp"

namespace pts::cluster {
namespace {

using namespace std::chrono_literals;

constexpr const char* kClusterBin = PTS_CLUSTER_BIN_FOR_TESTS;

/// fork/exec with stdout captured to `out_path` (the tests parse bound
/// ports off the banners) and optional extra environment (chaos knobs).
pid_t spawn_to_file(const std::vector<std::string>& argv_strings,
                    const std::string& out_path,
                    const std::vector<std::pair<std::string, std::string>>&
                        env = {}) {
  std::vector<char*> argv;
  argv.reserve(argv_strings.size() + 1);
  for (const auto& arg : argv_strings) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    for (const auto& [key, value] : env) {
      ::setenv(key.c_str(), value.c_str(), 1);
    }
    const int out =
        ::open(out_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    const int devnull = ::open("/dev/null", O_WRONLY);
    if (out >= 0) ::dup2(out, STDOUT_FILENO);
    if (devnull >= 0) ::dup2(devnull, STDERR_FILENO);
    ::execv(argv[0], argv.data());
    std::_Exit(127);
  }
  return pid;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string wait_for_output(const std::string& path, const std::string& needle,
                            double timeout_seconds) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_seconds);
  for (;;) {
    auto text = slurp(path);
    if (text.find(needle) != std::string::npos ||
        std::chrono::steady_clock::now() >= deadline) {
      return text;
    }
    std::this_thread::sleep_for(20ms);
  }
}

std::uint16_t parse_port(const std::string& banner) {
  const std::string key = "listening on 127.0.0.1:";
  const auto at = banner.find(key);
  if (at == std::string::npos) return 0;
  return static_cast<std::uint16_t>(
      std::strtoul(banner.c_str() + at + key.size(), nullptr, 10));
}

void reap(pid_t pid, int signal = SIGKILL) {
  if (pid <= 0) return;
  ::kill(pid, signal);
  int status = 0;
  ::waitpid(pid, &status, 0);
}

struct TempDir {
  std::filesystem::path path;
  explicit TempDir(const std::string& stem) {
    path = std::filesystem::temp_directory_path() /
           (stem + "_" + std::to_string(::getpid()));
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

std::uint16_t spawn_worker(const TempDir& dir, const std::string& name,
                           pid_t& pid,
                           const std::vector<std::pair<std::string,
                                                       std::string>>& env = {}) {
  const auto out = (dir.path / (name + ".out")).string();
  pid = spawn_to_file({kClusterBin, "--role=worker", "--name=" + name,
                       "--port=0", "--workers=2",
                       "--replica=" + (dir.path / (name + ".rep")).string()},
                      out, env);
  EXPECT_GT(pid, 0);
  return parse_port(wait_for_output(out, "listening on", 20.0));
}

std::uint16_t spawn_coordinator(const TempDir& dir,
                                const std::string& peers, pid_t& pid) {
  const auto out = (dir.path / "coordinator.out").string();
  pid = spawn_to_file(
      {kClusterBin, "--role=coordinator", "--port=0", "--peers=" + peers,
       "--journal=" + (dir.path / "coord.journal").string(),
       "--heartbeat-interval=0.05", "--heartbeat-misses=4"},
      out);
  EXPECT_GT(pid, 0);
  return parse_port(wait_for_output(out, "listening on", 20.0));
}

service::SubmitRequest make_request(std::uint64_t seed, double budget) {
  service::SubmitRequest request;
  request.instance = std::make_shared<const mkp::Instance>(
      mkp::generate_gk({.num_items = 60, .num_constraints = 5}, seed));
  request.tenant = "prod";
  request.options.preset = "quick";
  request.options.time_budget_seconds = budget;
  request.options.seed = seed;
  return request;
}

TEST(ClusterBin, Kill9WorkerMidSolveEveryFutureResolvesOk) {
  TempDir dir("pts_cluster_kill9");
  pid_t w1 = 0, w2 = 0, co = 0;
  const auto p1 = spawn_worker(dir, "w1", w1);
  const auto p2 = spawn_worker(dir, "w2", w2);
  ASSERT_NE(p1, 0);
  ASSERT_NE(p2, 0);
  const auto pc = spawn_coordinator(
      dir,
      "127.0.0.1:" + std::to_string(p1) + ",127.0.0.1:" + std::to_string(p2),
      co);
  ASSERT_NE(pc, 0);

  auto client = net::Client::connect("127.0.0.1", pc, 10.0);
  ASSERT_TRUE(client) << client.status().to_string();

  // Two in-flight jobs so BOTH workers hold work when one dies.
  auto job1 = client->submit(make_request(3, 3.0));
  auto job2 = client->submit(make_request(4, 3.0));
  ASSERT_TRUE(job1) << job1.status().to_string();
  ASSERT_TRUE(job2) << job2.status().to_string();

  std::this_thread::sleep_for(800ms);
  ASSERT_EQ(::kill(w1, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(w1, &status, 0), w1);
  ASSERT_TRUE(WIFSIGNALED(status));
  w1 = 0;

  // Every future resolves Ok — the coordinator failed the dead node's job
  // over to the survivor. The deterministic engine replays the identical
  // trajectory with the full budget, so the final best dominates every
  // anytime sample streamed before the kill (the curve spans both
  // attempts: pre-kill samples from the dead node included).
  for (auto* job : {&*job1, &*job2}) {
    auto result = client->wait(*job, /*timeout_seconds=*/60.0);
    ASSERT_TRUE(result) << result.status().to_string();
    EXPECT_TRUE(result->status.ok()) << result->status.to_string();
    EXPECT_GT(result->best_value, 0.0);
    ASSERT_TRUE(result->best.has_value());
    EXPECT_TRUE(result->best->is_feasible());
    double pre_kill_best = 0.0;
    for (const auto& sample : result->anytime) {
      pre_kill_best = std::max(pre_kill_best, sample.value);
    }
    EXPECT_GE(result->best_value, pre_kill_best);
  }

  reap(co, SIGTERM);
  reap(w2, SIGTERM);
}

TEST(ClusterBin, NodeKillChaosKnobFailsOverToHealthyNode) {
  TempDir dir("pts_cluster_chaos");
  pid_t doomed = 0, healthy = 0, co = 0;
  // The doomed worker SIGKILLs itself on the first inbound peer frame (the
  // coordinator's hello): a node that dies during the handshake.
  const auto p1 = spawn_worker(dir, "doomed", doomed,
                               {{"PTS_CHAOS_NODE_KILL_PPM", "1000000"}});
  const auto p2 = spawn_worker(dir, "healthy", healthy);
  ASSERT_NE(p1, 0);
  ASSERT_NE(p2, 0);
  const auto pc = spawn_coordinator(
      dir,
      "127.0.0.1:" + std::to_string(p1) + ",127.0.0.1:" + std::to_string(p2),
      co);
  ASSERT_NE(pc, 0);

  // The chaos kill must have taken the doomed node down with SIGKILL.
  int status = 0;
  ASSERT_EQ(::waitpid(doomed, &status, 0), doomed);
  EXPECT_TRUE(WIFSIGNALED(status));
  if (WIFSIGNALED(status)) {
    EXPECT_EQ(WTERMSIG(status), SIGKILL);
  }
  doomed = 0;

  // The cluster still serves: the healthy node takes the job.
  auto client = net::Client::connect("127.0.0.1", pc, 10.0);
  ASSERT_TRUE(client) << client.status().to_string();
  auto job = client->submit(make_request(5, 0.5));
  ASSERT_TRUE(job) << job.status().to_string();
  auto result = client->wait(*job, /*timeout_seconds=*/60.0);
  ASSERT_TRUE(result) << result.status().to_string();
  EXPECT_TRUE(result->status.ok()) << result->status.to_string();

  reap(co, SIGTERM);
  reap(healthy, SIGTERM);
}

}  // namespace
}  // namespace pts::cluster
