// The workloads. Each one drives the program only through its public
// entry points and does a fixed amount of work: round counts and per-round
// move budgets for the master runs, calibrated target values for the jobs
// (time budgets and deadlines sit far above any solve). Identical code
// therefore does identical work, and a change in time belongs to a layer.
//
//   solve-large     GK 30x500 instances, CTS2 on the thread backend with 4
//                   slaves, a few long rounds each: the engine and the move
//                   kernels do nearly all the work.
//   coop-rounds     GK 5x100 instances, CTS2 on the proc backend with 3
//                   pts_worker processes, thousands of one-move rounds:
//                   scatter, wire codec, socket hops, gather and the master's
//                   bookkeeping.
//   cluster-stream  net::Server over a Coordinator with two WorkerNodes (2
//                   workers each, replica journals), 2 closed-loop client
//                   connections, distinct GK 10x250 jobs.
//
// A run is a series of passes, each set up from scratch, so set-up is
// measured several times (setup_s is the median). A round workload's passes
// each solve a fresh instance; the stream workload starts its stack several
// times and replays one job list on the last starts, and every job must
// repeat its pass-0 move count exactly.
// The traced run records spans after each timed interval, never inside one,
// and reports the recording time as its overhead.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <optional>
#include <thread>

#include "bench.hpp"
#include "bounds/simplex.hpp"
#include "cluster/coordinator.hpp"
#include "cluster/worker_node.hpp"
#include "mkp/generator.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "parallel/presets.hpp"
#include "parallel/runner.hpp"
#include "parallel/strategy_gen.hpp"
#include "tabu/kernels.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace perfbench {

void Report::fail(const std::string& why) {
  ++failed;
  if (errors.size() < 8) errors.push_back(why);
}

void Report::add(std::string name, double value, std::string unit, std::string note) {
  metrics.push_back({std::move(name), value, std::move(unit), std::move(note)});
}

namespace {

using namespace pts;

// solve-large: a few long rounds per pass. With at most 4 rounds the SGP
// never retunes (a strategy's score starts at 4), so each pass runs the
// strategies it drew.
constexpr std::size_t kLargeRounds = 4;
constexpr std::uint64_t kLargeWork = 1'000;
constexpr double kLargePassesPerSecond = 4.0;
constexpr std::uint64_t kStrategySeed = 0x5354524154454759ull;

// coop-rounds: one move per slave and round, so the engine barely runs.
constexpr std::size_t kCoopRounds = 3'000;
constexpr std::uint64_t kCoopWork = 1;
constexpr double kCoopPassesPerSecond = 3.0;

// cluster-stream: jobs per second of run, stack starts (each one a
// set-up sample: the job calibration, done once, plus the start), the passes
// over the job list (on the last starts), and the round cap of the
// fixed-round solve that calibrates each job's target value.
// Every distinct job costs a calibration, but the latency tail is set by the
// mix of jobs, so the job list is long and replayed only twice.
constexpr std::size_t kStackStarts = 21;
constexpr std::size_t kStreamPasses = 2;
constexpr double kJobsPerSecond = 30.0;
constexpr std::size_t kCalibrationRounds = 3;
constexpr std::size_t kClients = 2;
constexpr std::size_t kNodeWidth = 2;
constexpr std::size_t kNodes = 2;
// Far above any solve: neither may ever be what stops a job.
constexpr double kJobBudgetSeconds = 60.0;
constexpr double kJobDeadlineSeconds = 120.0;
constexpr double kWaitSeconds = 150.0;
// Round spans recorded per master run.
constexpr std::size_t kTracedRounds = 100;

double secs(Time a, Time b) { return std::chrono::duration<double>(b - a).count(); }
double micros(Time a, Time b) { return secs(a, b) * 1e6; }

/// splitmix64 over (seed, stream): one independent input seed per stream.
std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Nearest-rank quantile; 0 for no samples.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string n_of(std::size_t n) { return "n=" + std::to_string(n); }

/// Work units scaled to the run length, never fewer than `floor`.
std::size_t scaled(int seconds, double per_second, std::size_t floor) {
  return std::max(floor, static_cast<std::size_t>(
                             std::llround(per_second * static_cast<double>(seconds))));
}

/// Empty when the solution is feasible and its reported value is the value
/// of its bits; otherwise what is wrong with it.
std::string check_solution(const mkp::Solution& best, double reported) {
  if (!best.check_consistency()) return "value or loads disagree with its bits";
  if (!best.is_feasible()) return "infeasible";
  if (std::abs(best.value() - reported) > 1e-6 * std::max(1.0, std::abs(reported))) {
    return "reported value " + std::to_string(reported) + " but its bits give " +
           std::to_string(best.value());
  }
  return {};
}

// -- Master runs ------------------------------------------------------------

/// Timestamps every master callback; cheap enough to stay on when untraced,
/// because the round latencies are end-to-end metrics on the round workloads.
class RoundClock final : public parallel::MasterTrace {
 public:
  void on_round_start(std::size_t) override { start.push_back(Clock::now()); }
  void on_assignments_sent(std::size_t, std::size_t) override {
    sent.push_back(Clock::now());
  }
  void on_reports_gathered(std::size_t, std::size_t) override {
    gathered.push_back(Clock::now());
  }

  std::vector<Time> start, sent, gathered;
};

struct MasterRun {
  parallel::ParallelResult result;
  RoundClock clock;
  Time called;
  Time returned;

  [[nodiscard]] std::size_t rounds() const { return clock.gathered.size(); }
  /// Call -> first scatter: thread or worker-process spawn plus the initial
  /// solutions.
  [[nodiscard]] double spawn_s() const {
    return clock.start.empty() ? secs(called, returned)
                               : secs(called, clock.start.front());
  }
  /// First scatter -> last gather: the rounds without spawn or teardown.
  [[nodiscard]] double rounds_s() const {
    return rounds() == 0 ? 0.0 : secs(clock.start.front(), clock.gathered.back());
  }
  /// A round ends where the next one starts; the last one at its gather.
  [[nodiscard]] Time round_end(std::size_t r) const {
    return r + 1 < clock.start.size() ? clock.start[r + 1] : clock.gathered[r];
  }
};

MasterRun run_master(const mkp::Instance& inst, parallel::ParallelConfig config) {
  RoundClock clock;
  clock.start.reserve(config.search_iterations);
  clock.sent.reserve(config.search_iterations);
  clock.gathered.reserve(config.search_iterations);
  config.observer = &clock;
  const Time called = Clock::now();
  auto result = parallel::run_parallel_tabu_search(inst, config);
  const Time returned = Clock::now();
  return {std::move(result), std::move(clock), called, returned};
}

/// Empty when the run did exactly the rounds it was given, without faults,
/// and returned a valid solution.
std::string check_master(const MasterRun& run, std::size_t rounds) {
  const auto& r = run.result;
  if (!r.status.ok()) return "run failed: " + r.status.to_string();
  if (r.master.rounds_completed != rounds || run.rounds() != rounds) {
    return "completed " + std::to_string(r.master.rounds_completed) + " of " +
           std::to_string(rounds) + " rounds";
  }
  if (r.master.slave_faults != 0 || r.proc.worker_respawns != 0) {
    return std::to_string(r.master.slave_faults) + " slave faults";
  }
  return check_solution(r.best, r.best_value);
}

/// run -> spawn, round -> scatter/gather/update, the rounds capped so that a
/// run of thousands of rounds keeps its span file small.
void trace_master(SpanLog& spans, const MasterRun& run, std::uint64_t trace) {
  if (!spans.enabled()) return;
  const auto& c = run.clock;
  const std::uint64_t root = spans.add("run", trace, 0, run.called, run.returned);
  spans.add("spawn", trace, root, run.called,
            c.start.empty() ? run.returned : c.start.front());
  for (std::size_t r = 0; r < std::min(run.rounds(), kTracedRounds); ++r) {
    const auto round = spans.add("round", trace, root, c.start[r], run.round_end(r));
    spans.add("scatter", trace, round, c.start[r], c.sent[r]);
    spans.add("gather", trace, round, c.sent[r], c.gathered[r]);
    if (r + 1 < c.start.size()) spans.add("update", trace, round, c.gathered[r], c.start[r + 1]);
  }
}

/// The parallel and tabu layers of a set of master runs.
struct MasterLayers {
  std::vector<double> scatter_us, gather_us, update_us, round_us, coop_us, spawn_s;
  double busy_s = 0.0;      ///< sum of RoundLog.seconds
  double capacity_s = 0.0;  ///< slaves x round wall
  double idle_s = 0.0;      ///< rendezvous idle
  std::uint64_t rounds = 0;
  std::uint64_t moves = 0;

  void add(const MasterRun& run, std::size_t slaves) {
    const auto& c = run.clock;
    const auto& m = run.result.master;
    std::vector<double> slowest(run.rounds(), 0.0);
    for (const auto& log : m.timeline) {
      busy_s += log.seconds;
      if (log.round < slowest.size()) {
        slowest[log.round] = std::max(slowest[log.round], log.seconds);
      }
    }
    for (std::size_t r = 0; r < run.rounds(); ++r) {
      scatter_us.push_back(micros(c.start[r], c.sent[r]));
      gather_us.push_back(micros(c.sent[r], c.gathered[r]));
      if (r + 1 < c.start.size()) update_us.push_back(micros(c.gathered[r], c.start[r + 1]));
      const double wall = micros(c.start[r], run.round_end(r));
      round_us.push_back(wall);
      coop_us.push_back(wall - slowest[r] * 1e6);
    }
    spawn_s.push_back(run.spawn_s());
    capacity_s += run.rounds_s() * static_cast<double>(slaves);
    idle_s += m.rendezvous_idle_seconds;
    rounds += m.rounds_completed;
    moves += run.result.total_moves;
  }

  void report(Report& rep) const {
    rep.add("tabu.move_us", ratio(busy_s * 1e6, static_cast<double>(moves)), "us");
    rep.add("tabu.slave_busy_s", busy_s, "s");
    rep.add("parallel.slave_utilisation", ratio(busy_s, capacity_s), "ratio");
    rep.add("parallel.rendezvous_idle_s", idle_s, "s");
    rep.add("parallel.scatter_us", median(scatter_us), "us", n_of(scatter_us.size()));
    rep.add("parallel.gather_us", median(gather_us), "us", n_of(gather_us.size()));
    rep.add("parallel.update_us", median(update_us), "us", n_of(update_us.size()));
    rep.add("parallel.coop_overhead_us", median(coop_us), "us", n_of(coop_us.size()));
    rep.add("parallel.spawn_s", median(spawn_s), "s", n_of(spawn_s.size()));
    rep.add("parallel.rounds", static_cast<double>(rounds), "count");
    rep.add("parallel.moves", static_cast<double>(moves), "count");
  }
};

/// ns per full Add sweep (every unselected item through kernels::AddScan) at
/// `at`: the median of batches of sweeps.
double add_sweep_ns(const mkp::Solution& at) {
  const tabu::kernels::AddScan scan(at);
  const std::size_t n = at.num_items();
  double sink = 0.0;
  const auto sweep = [&] {
    for (std::size_t j = 0; j < n; ++j) {
      if (at.contains(j)) continue;
      const auto fs = scan(j);
      if (fs.fit) sink += fs.score;
    }
  };
  const std::size_t per_batch =
      std::max<std::size_t>(1, 400'000 / (n * at.instance().num_constraints()));
  std::vector<double> batch_ns;
  for (int b = 0; b < 15; ++b) {
    const Time t0 = Clock::now();
    for (std::size_t k = 0; k < per_batch; ++k) sweep();
    batch_ns.push_back(secs(t0, Clock::now()) * 1e9 / static_cast<double>(per_batch));
  }
  // Scores are never negative; using the sum keeps the sweeps from being
  // optimised away.
  if (sink < 0.0) batch_ns.push_back(sink);
  return median(batch_ns);
}

/// What a set of passes measured end to end. Rates are medians over passes,
/// so one pass disturbed by the host does not move them.
struct Tally {
  std::vector<double> setup_s, op_s, gap_pct, moves_rate, ops_rate;
  double wall_s = 0.0;
  double span_s = 0.0;  ///< spent recording spans (traced run only)

  /// `solving` is the time spent solving: the pass's rounds, or the summed
  /// run time of its jobs.
  void add_pass(double wall, double solving, std::uint64_t ops, std::uint64_t moves) {
    wall_s += wall;
    moves_rate.push_back(ratio(static_cast<double>(moves), solving));
    ops_rate.push_back(ratio(static_cast<double>(ops), wall));
  }

  void report(Report& rep) const {
    const std::string passes = "median of " + std::to_string(ops_rate.size()) + " passes";
    rep.add("setup_s", median(setup_s), "s", "median of " + std::to_string(setup_s.size()));
    rep.add("moves_per_s", median(moves_rate), "1/s", passes);
    rep.add("ops_per_s", median(ops_rate), "1/s", passes);
    rep.add("op_p50_ms", quantile(op_s, 0.50) * 1e3, "ms", n_of(op_s.size()));
    rep.add("op_p90_ms", quantile(op_s, 0.90) * 1e3, "ms", n_of(op_s.size()));
    rep.add("gap_pct", mean(gap_pct), "%", n_of(gap_pct.size()));
  }

  /// Spans are recorded outside the timed intervals, so what tracing adds to
  /// a run is the recording time itself.
  void report_overhead(Report& rep) const {
    rep.add("trace.overhead_pct", 100.0 * ratio(span_s, wall_s), "%",
            "span recording time over measured time");
  }
};

/// The layers a round workload does not pass through.
void report_no_stack(Report& rep) {
  for (const char* name : {"service.queue_ms_p50", "service.run_ms_p50", "net.ack_ms_p50",
                           "cluster.overhead_ms_p50", "cluster.overhead_ms_p90"}) {
    rep.add(name, 0.0, "ms", "layer not in this workload");
  }
  rep.add("service.dedup_hits", 0.0, "count", "layer not in this workload");
  rep.add("net.submit_bytes", 0.0, "B", "layer not in this workload");
  rep.add("net.anytime_samples", 0.0, "count", "layer not in this workload");
  rep.add("cluster.dispatched", 0.0, "count", "layer not in this workload");
  rep.add("cluster.records_replicated", 0.0, "count", "layer not in this workload");
}

// -- Round workloads ----------------------------------------------------------

/// A round workload: every pass solves a fresh GK instance from its own
/// strategy draw, and the run's figures are pooled over the passes.
struct RoundShape {
  std::size_t items = 0;
  std::size_t constraints = 0;
  std::size_t slaves = 0;
  parallel::Backend backend = parallel::Backend::kThread;
  std::size_t rounds = 0;     ///< per pass
  std::uint64_t work = 0;     ///< per slave and round, move x nb_drop units
  double passes_per_second = 0.0;
};

Report run_rounds(const RunOptions& o, SpanLog& spans, const RoundShape& shape) {
  Report rep;
  const std::size_t passes = scaled(o.seconds, shape.passes_per_second, 2);
  Tally tally;
  MasterLayers layers;
  std::uint64_t moves = 0;
  std::vector<double> thread_round_us;
  double add_sweep = 0.0;
  for (std::size_t pass = 0; pass < passes; ++pass) {
    const auto inst = mkp::generate_gk({.num_items = shape.items,
                                        .num_constraints = shape.constraints,
                                        .tightness = 0.25},
                                       derive(o.seed, pass));
    auto config = parallel::preset_balanced(derive(o.seed, 1'000'000 + pass));
    config.num_slaves = shape.slaves;
    config.backend = shape.backend;
    config.search_iterations = shape.rounds;
    config.work_per_slave_round = shape.work;
    // How long a round takes hangs on the strategies the slaves start with,
    // so those come from a stream of their own that --seed does not touch:
    // every run covers the same strategy draws, and only the instances and
    // the searches differ between seeds.
    parallel::WarmStart start;
    Rng draws(derive(kStrategySeed, pass));
    for (std::size_t i = 0; i < shape.slaves; ++i) {
      start.strategies.push_back(parallel::random_strategy(draws, config.sgp.bounds));
    }
    config.warm_start = &start;

    const Time t0 = Clock::now();
    const auto lp = bounds::solve_lp_relaxation(inst);
    const double lp_s = secs(t0, Clock::now());
    const MasterRun run = run_master(inst, config);
    ++rep.attempted;
    std::string why = check_master(run, shape.rounds);
    if (why.empty() && !lp.optimal()) why = "LP bound did not solve";
    if (!why.empty()) {
      rep.fail("pass " + std::to_string(pass) + ": " + why);
      continue;
    }
    tally.setup_s.push_back(lp_s + run.spawn_s());
    for (std::size_t r = 0; r < run.rounds(); ++r) {
      tally.op_s.push_back(secs(run.clock.start[r], run.round_end(r)));
    }
    tally.add_pass(run.rounds_s(), run.rounds_s(), run.rounds(), run.result.total_moves);
    moves += run.result.total_moves;
    tally.gap_pct.push_back(deviation_percent(run.result.best_value, lp.objective));
    if (!o.trace) continue;

    layers.add(run, shape.slaves);
    const Time r0 = Clock::now();
    trace_master(spans, run, pass + 1);
    tally.span_s += secs(r0, Clock::now());
    if (pass == 0) add_sweep = add_sweep_ns(run.result.best);
    if (shape.backend == parallel::Backend::kThread) continue;
    // The thread-backend reference on the same inputs. A fault-free fixed-seed
    // run must reach the same result on either backend.
    auto threaded = config;
    threaded.backend = parallel::Backend::kThread;
    const MasterRun reference = run_master(inst, threaded);
    ++rep.attempted;
    why = check_master(reference, shape.rounds);
    if (why.empty() && (reference.result.best_value != run.result.best_value ||
                        reference.result.total_moves != run.result.total_moves)) {
      why = "thread backend differs from proc backend";
    }
    if (!why.empty()) rep.fail("pass " + std::to_string(pass) + " thread reference: " + why);
    for (std::size_t r = 0; r < reference.rounds(); ++r) {
      thread_round_us.push_back(micros(reference.clock.start[r], reference.round_end(r)));
    }
  }
  rep.log.push_back(std::to_string(passes) + " passes x " + std::to_string(shape.rounds) +
                    " rounds, " + std::to_string(moves) + " moves");
  if (!o.trace) {
    tally.report(rep);
    return rep;
  }
  layers.report(rep);
  rep.add("parallel.thread_round_us",
          median(thread_round_us.empty() ? layers.round_us : thread_round_us), "us");
  rep.add("tabu.add_sweep_ns", add_sweep, "ns");
  report_no_stack(rep);
  tally.report_overhead(rep);
  return rep;
}

Report solve_large(const RunOptions& o, SpanLog& spans) {
  return run_rounds(o, spans,
                    {.items = 500, .constraints = 30, .slaves = 4,
                     .backend = parallel::Backend::kThread, .rounds = kLargeRounds,
                     .work = kLargeWork, .passes_per_second = kLargePassesPerSecond});
}

Report coop_rounds(const RunOptions& o, SpanLog& spans) {
  return run_rounds(o, spans,
                    {.items = 100, .constraints = 5, .slaves = 3,
                     .backend = parallel::Backend::kProcess, .rounds = kCoopRounds,
                     .work = kCoopWork, .passes_per_second = kCoopPassesPerSecond});
}

// -- The stream workload -----------------------------------------------------

struct StreamJob {
  service::SubmitRequest request;
  double lp_bound = 0.0;
  std::size_t submit_bytes = 0;
};

/// Distinct GK 10x250 jobs on the quick preset, each with the target value a
/// fixed-round run of the same service-shaped config reaches. Calibration
/// runs kClients solves at a time, which fills the cores the jobs will use.
/// Returns the time spent on the LP bounds and the calibration (input
/// generation aside).
double make_jobs(Report& rep, const RunOptions& o, std::size_t count, SpanLog& spans,
                 MasterLayers& layers, std::vector<StreamJob>& jobs) {
  jobs.resize(count);
  std::vector<parallel::ParallelConfig> configs;
  for (std::size_t k = 0; k < count; ++k) {
    const auto inst = std::make_shared<const mkp::Instance>(mkp::generate_gk(
        {.num_items = 250, .num_constraints = 10, .tightness = 0.25},
        derive(o.seed, 1000 + k)));
    auto& request = jobs[k].request;
    request.instance = inst;
    request.deadline_seconds = kJobDeadlineSeconds;
    request.options.preset = "quick";
    // Like the round workloads' strategies, a job's search seed does not
    // follow --seed: the seed picks the slaves' first strategy draw, and the
    // mix of strategies sets the latency tail.
    request.options.seed = derive(kStrategySeed, 2'000'000 + k);
    request.options.time_budget_seconds = kJobBudgetSeconds;
    // What the service does with the same options: the preset scaled to the
    // instance, slaves clamped to the pool, then a fixed round count.
    auto config = *parallel::preset_by_name(request.options.preset, request.options.seed);
    parallel::scale_budget_to_instance(config, *inst);
    config.num_slaves = std::clamp<std::size_t>(config.num_slaves, 1, kNodeWidth);
    config.search_iterations = kCalibrationRounds;
    configs.push_back(config);
  }

  std::vector<std::optional<MasterRun>> runs(count);
  const Time t0 = Clock::now();
  {
    std::vector<std::jthread> workers;
    for (std::size_t w = 0; w < kClients; ++w) {
      workers.emplace_back([&, w] {
        for (std::size_t k = w; k < count; k += kClients) {
          const auto& inst = *jobs[k].request.instance;
          jobs[k].lp_bound = bounds::solve_lp_relaxation(inst).objective;
          runs[k] = run_master(inst, configs[k]);
        }
      });
    }
  }
  const double prep_s = secs(t0, Clock::now());

  for (std::size_t k = 0; k < count; ++k) {
    const MasterRun& run = *runs[k];
    if (const auto why = check_master(run, kCalibrationRounds); !why.empty()) {
      rep.fail("calibrating job " + std::to_string(k) + ": " + why);
    }
    jobs[k].request.options.target_value = run.result.best_value;
    const net::SubmitJob frame{.request_id = 1,
                               .deadline_seconds = jobs[k].request.deadline_seconds,
                               .options = jobs[k].request.options,
                               .instance = *jobs[k].request.instance};
    jobs[k].submit_bytes = net::encode_submit_job(frame).size();
    if (spans.enabled()) {
      layers.add(run, configs[k].num_slaves);
      trace_master(spans, run, 1'000'000 + k);
    }
  }
  return prep_s;
}

/// One pass's stack behind a net::Server. Members are torn down in reverse:
/// the front door first, the solvers last.
struct Stack {
  std::vector<std::unique_ptr<cluster::WorkerNode>> nodes;
  std::unique_ptr<cluster::Coordinator> coordinator;
  std::unique_ptr<net::Server> server;
};

Status start_stack(const std::string& dir, Stack& stack) {
  namespace fs = std::filesystem;
  cluster::CoordinatorConfig coordinator;
  for (std::size_t w = 0; w < kNodes; ++w) {
    cluster::WorkerNodeConfig config;
    config.node_name = "node" + std::to_string(w);
    config.replica_journal_path = dir + "/replica-" + std::to_string(w) + ".journal";
    config.service.num_workers = kNodeWidth;
    fs::remove(config.replica_journal_path);
    auto node = cluster::WorkerNode::start(std::move(config));
    if (!node) return node.status();
    coordinator.peers.push_back({"127.0.0.1", (*node)->port()});
    stack.nodes.push_back(std::move(*node));
  }
  coordinator.journal_path = dir + "/coordinator.journal";
  fs::remove(coordinator.journal_path);
  auto started = cluster::Coordinator::start(std::move(coordinator));
  if (!started) return started.status();
  stack.coordinator = std::move(*started);
  const auto joined_by = Clock::now() + std::chrono::seconds(30);
  while (stack.coordinator->alive_peers() < kNodes) {
    if (Clock::now() > joined_by) return Status::unavailable("mesh never joined");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  auto server = net::Server::start(*stack.coordinator, {});
  if (!server) return server.status();
  stack.server = std::move(*server);
  return {};
}

struct JobRecord {
  Time submit{}, ack{}, done{};
  std::string error;
  std::optional<service::JobResult> result;
};

/// One client connection's closed loop: jobs k, k + kClients, ...
void drive(net::Client& client, const std::vector<StreamJob>& jobs, std::size_t first,
           std::vector<JobRecord>& records) {
  for (std::size_t k = first; k < jobs.size(); k += kClients) {
    auto& rec = records[k];
    rec.submit = Clock::now();
    auto remote = client.submit(jobs[k].request);
    rec.ack = Clock::now();
    if (!remote) {
      rec.done = rec.ack;
      rec.error = "submit: " + remote.status().to_string();
      continue;
    }
    auto result = client.wait(*remote, kWaitSeconds);
    rec.done = Clock::now();
    if (!result) {
      rec.error = "wait: " + result.status().to_string();
      continue;
    }
    rec.result = std::move(*result);
  }
}

std::string check_job(const JobRecord& rec, const StreamJob& job) {
  if (!rec.error.empty()) return rec.error;
  const auto& r = *rec.result;
  if (!r.status.ok()) return "job failed: " + r.status.to_string();
  if (!r.reached_target) return "job stopped before its target";
  if (!r.best) return "job returned no solution";
  if (r.best_value < *job.request.options.target_value) return "job below its target";
  return check_solution(*r.best, r.best_value);
}

/// Per-layer samples of the stream passes (traced run).
struct StreamLayers {
  std::vector<double> queue_ms, run_ms, ack_ms, overhead_ms;
  double submit_bytes = 0.0, anytime_samples = 0.0, dedup_hits = 0.0;
  double dispatched = 0.0, replicated = 0.0;
  std::uint64_t jobs = 0;
};

Report cluster_stream(const RunOptions& o, SpanLog& spans) {
  Report rep;
  const std::size_t per_pass = scaled(o.seconds, kJobsPerSecond / kStreamPasses, 2 * kClients);
  MasterLayers calibration;
  std::vector<StreamJob> jobs;
  const double prep_s = make_jobs(rep, o, per_pass, spans, calibration, jobs);

  Tally tally;
  StreamLayers layers;
  std::vector<std::uint64_t> moves0(jobs.size(), 0);
  std::uint64_t trace_id = 1;
  for (std::size_t start = 0; start < kStackStarts && rep.failed == 0; ++start) {
    const Time t0 = Clock::now();
    std::optional<Stack> stack(std::in_place);
    std::vector<net::Client> clients;
    Status started = start_stack(o.work_dir, *stack);
    for (std::size_t c = 0; started.ok() && c < kClients; ++c) {
      auto client = net::Client::connect("127.0.0.1", stack->server->port());
      if (!client) started = client.status();
      else clients.push_back(std::move(*client));
    }
    if (!started.ok()) {
      ++rep.attempted;
      rep.fail("stack start " + std::to_string(start) + " failed: " + started.to_string());
      break;
    }
    tally.setup_s.push_back(prep_s + secs(t0, Clock::now()));
    if (start + kStreamPasses < kStackStarts) continue;  // a set-up sample only
    const std::size_t pass = start + kStreamPasses - kStackStarts;

    std::vector<JobRecord> records(jobs.size());
    const Time s0 = Clock::now();
    {
      std::vector<std::jthread> loops;
      for (std::size_t c = 0; c < kClients; ++c) {
        loops.emplace_back([&, c] { drive(clients[c], jobs, c, records); });
      }
    }
    const double wall = secs(s0, Clock::now());

    if (o.trace) {
      const auto stats = stack->coordinator->stats();
      layers.dedup_hits += static_cast<double>(stats.dedup_hits);
      layers.dispatched += static_cast<double>(stats.dispatched);
      layers.replicated += static_cast<double>(stats.records_replicated);
    }
    clients.clear();
    stack.reset();

    std::uint64_t pass_jobs = 0, pass_moves = 0;
    double pass_solving = 0.0;
    for (std::size_t k = 0; k < jobs.size(); ++k) {
      const auto& rec = records[k];
      ++rep.attempted;
      std::string why = check_job(rec, jobs[k]);
      if (why.empty() && pass > 0 && rec.result->total_moves != moves0[k]) {
        why = "not fixed work: " + std::to_string(rec.result->total_moves) +
              " moves, pass 0 did " + std::to_string(moves0[k]);
      }
      if (!why.empty()) {
        rep.fail("pass " + std::to_string(pass) + " job " + std::to_string(k) + ": " + why);
        continue;
      }
      const auto& r = *rec.result;
      if (pass == 0) moves0[k] = r.total_moves;
      const double latency = secs(rec.submit, rec.done);
      tally.op_s.push_back(latency);
      ++pass_jobs;
      pass_moves += r.total_moves;
      pass_solving += r.run_seconds;
      tally.gap_pct.push_back(deviation_percent(r.best_value, jobs[k].lp_bound));
      if (!o.trace) continue;
      layers.queue_ms.push_back(r.queue_seconds * 1e3);
      layers.run_ms.push_back(r.run_seconds * 1e3);
      layers.ack_ms.push_back(secs(rec.submit, rec.ack) * 1e3);
      layers.overhead_ms.push_back((latency - r.queue_seconds - r.run_seconds) * 1e3);
      layers.submit_bytes += static_cast<double>(jobs[k].submit_bytes);
      layers.anytime_samples += static_cast<double>(r.anytime.size());
      ++layers.jobs;
      const Time r0 = Clock::now();
      const auto job_span = spans.add("job", trace_id, 0, rec.submit, rec.done);
      spans.add("submit", trace_id, job_span, rec.submit, rec.ack);
      spans.add("result", trace_id, job_span, rec.ack, rec.done);
      ++trace_id;
      tally.span_s += secs(r0, Clock::now());
    }
    tally.add_pass(wall, pass_solving, pass_jobs, pass_moves);
  }
  std::uint64_t moves = 0;
  for (const auto m : moves0) moves += m;
  rep.log.push_back("calibrated " + std::to_string(jobs.size()) + " job targets in " +
                    std::to_string(prep_s) + " s");
  rep.log.push_back("jobs " + std::to_string(jobs.size()) + " x " +
                    std::to_string(kStreamPasses) + " passes, moves per pass " +
                    std::to_string(moves));
  if (!o.trace) {
    tally.report(rep);
    return rep;
  }

  // The engine and master layers of a job, from its calibration run: the
  // same config and seed on run_parallel_tabu_search, capped at 3 rounds.
  calibration.report(rep);
  rep.add("parallel.thread_round_us", median(calibration.round_us), "us",
          "calibration runs");
  const auto& sweep_job = *jobs.front().request.instance;
  mkp::Solution at(sweep_job);
  for (std::size_t j = 0; j < sweep_job.num_items(); ++j) {
    if (at.fits(j)) at.add(j);
  }
  rep.add("tabu.add_sweep_ns", add_sweep_ns(at), "ns");

  const double jobs_n = static_cast<double>(std::max<std::uint64_t>(layers.jobs, 1));
  const std::string n = n_of(layers.overhead_ms.size());
  rep.add("service.queue_ms_p50", median(layers.queue_ms), "ms", n);
  rep.add("service.run_ms_p50", median(layers.run_ms), "ms", n);
  rep.add("service.dedup_hits", layers.dedup_hits, "count");
  rep.add("net.ack_ms_p50", median(layers.ack_ms), "ms", n);
  rep.add("net.submit_bytes", layers.submit_bytes / jobs_n, "B", "per job");
  rep.add("net.anytime_samples", layers.anytime_samples / jobs_n, "count", "per job");
  // Everything outside the worker's queue and run: both net hops, the
  // coordinator and replication.
  rep.add("cluster.overhead_ms_p50", quantile(layers.overhead_ms, 0.5), "ms", n);
  rep.add("cluster.overhead_ms_p90", quantile(layers.overhead_ms, 0.9), "ms", n);
  rep.add("cluster.dispatched", layers.dispatched / jobs_n, "count", "per job");
  rep.add("cluster.records_replicated", layers.replicated / jobs_n, "count", "per job");
  tally.report_overhead(rep);
  return rep;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"solve-large", "coop-rounds",
                                                  "cluster-stream"};
  return names;
}

Report run_workload(const RunOptions& options, SpanLog& spans) {
  if (options.workload == "solve-large") return solve_large(options, spans);
  if (options.workload == "coop-rounds") return coop_rounds(options, spans);
  return cluster_stream(options, spans);
}

double peak_rss_mb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(self.ru_maxrss + children.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
