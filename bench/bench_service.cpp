// Multi-tenant service storm bench (experiment index: service). Drives one
// SolverService through the four contracts the DESIGN.md §7 redesign makes,
// and writes the measured numbers to BENCH_service.json (override with
// --json=PATH):
//
//   bit_identical  a single-tenant, single-job SubmitRequest produces the
//                  same trajectory (best value AND move count) in two fresh
//                  services — the service adds machinery, not behavior, on
//                  the one-job path
//   dedup_storm    N identical submissions from alternating tenants coalesce
//                  into ONE solve: every future resolves with the same start
//                  sequence and best value, and stats count N-1 dedup hits
//   warm_start     a repeat submission seeded from the warm-start store
//                  reaches the cold run's best value in strictly fewer moves
//                  than a cold control run chasing the same target
//   fairness       a two-tenant mixed-priority storm on a narrow pool: per-
//                  tenant queue-wait percentiles are recorded, and no
//                  tenant's p99 wait may exceed 3x the total serial solve
//                  time (the generous smoke bound for shared CI hardware)
//
// `--quick` shrinks the storm sizes for the ctest smoke (label: service).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "mkp/generator.hpp"
#include "service/solver_service.hpp"

namespace {

using namespace pts;

constexpr std::uint64_t kSeed = 20260808;

service::SubmitRequest make_request(std::shared_ptr<const mkp::Instance> inst,
                                    service::JobOptions options,
                                    service::TenantId tenant = {}) {
  service::SubmitRequest request;
  request.instance = std::move(inst);
  request.tenant = std::move(tenant);
  request.priority = options.priority;
  request.deadline_seconds = options.deadline_seconds;
  request.options = std::move(options);
  return request;
}

service::JobOptions quick_options(double budget, std::uint64_t seed) {
  service::JobOptions options;
  options.preset = "quick";
  options.time_budget_seconds = budget;
  options.seed = seed;
  return options;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

// -- Phase 1: the one-job path is bit-identical across two services. --------

struct Trajectory {
  double best_value = 0.0;
  std::uint64_t total_moves = 0;
};

bool run_bit_identical(const std::shared_ptr<const mkp::Instance>& inst,
                       Trajectory* first, Trajectory* second) {
  // A wall-clock budget truncates the run at a load-dependent move, so the
  // comparison runs chase a probed target instead: both stop at the move
  // that reaches it, which is deterministic iff the trajectories match.
  auto options = quick_options(/*budget=*/10.0, kSeed);
  {
    service::SolverService server({.num_workers = 2});
    auto probe = options;
    probe.time_budget_seconds = 0.3;
    auto handle = server.submit(make_request(inst, probe));
    if (!handle) return false;
    const auto result = handle->result.get();
    if (!result.status.ok()) return false;
    options.target_value = result.best_value;
  }
  for (Trajectory* out : {first, second}) {
    service::SolverService server({.num_workers = 2});
    auto handle = server.submit(make_request(inst, options));
    if (!handle) {
      std::fprintf(stderr, "FAIL: submit refused: %s\n",
                   handle.status().to_string().c_str());
      return false;
    }
    const auto result = handle->result.get();
    if (!result.status.ok() || !result.reached_target) {
      std::fprintf(stderr, "FAIL: new-API run failed: %s\n",
                   result.status.to_string().c_str());
      return false;
    }
    *out = {result.best_value, result.total_moves};
  }
  return true;
}

// -- Phase 2: an identical storm resolves as one solve. ---------------------

struct DedupOutcome {
  std::size_t group = 0;
  std::uint64_t dedup_hits = 0;
  bool one_solve = false;
};

bool run_dedup_storm(const std::shared_ptr<const mkp::Instance>& inst,
                     std::size_t group, DedupOutcome* out) {
  service::SolverService server({.num_workers = 2});
  // A blocker holds the whole 2-wide pool (quick asks 2 slots), so the
  // identical group coalesces while queued.
  auto blocker = server.submit(make_request(inst, quick_options(0.3, 77)));
  if (!blocker) return false;

  const auto options = quick_options(/*budget=*/0.5, kSeed + 1);
  std::vector<service::JobHandle> handles;
  for (std::size_t k = 0; k < group; ++k) {
    auto handle = server.submit(
        make_request(inst, options, k % 2 == 0 ? "prod" : "batch"));
    if (!handle) {
      std::fprintf(stderr, "FAIL: storm submit refused: %s\n",
                   handle.status().to_string().c_str());
      return false;
    }
    handles.push_back(std::move(*handle));
  }
  (void)blocker->result.get();

  std::uint64_t sequence = 0;
  double best = 0.0;
  bool one_solve = true;
  for (auto& handle : handles) {
    const auto result = handle.result.get();
    if (!result.status.ok()) one_solve = false;
    if (sequence == 0) {
      sequence = result.start_sequence;
      best = result.best_value;
    } else if (result.start_sequence != sequence ||
               result.best_value != best) {
      one_solve = false;
    }
  }
  *out = {group, server.stats().dedup_hits, one_solve};
  return out->one_solve && out->dedup_hits == group - 1;
}

// -- Phase 3: a warm-started repeat needs no more moves than a cold rerun. --

struct WarmOutcome {
  double cold_best = 0.0;
  std::uint64_t control_moves = 0;
  std::uint64_t warm_moves = 0;
  bool warm_started = false;
};

bool run_warm_start(const std::shared_ptr<const mkp::Instance>& inst,
                    WarmOutcome* out) {
  namespace fs = std::filesystem;
  const auto dir = fs::temp_directory_path() / "pts_bench_service_warm";
  std::error_code ec;
  fs::remove_all(dir, ec);

  const auto options = quick_options(/*budget=*/10.0, kSeed + 2);
  {
    // Cold run populates the store (saving happens on the job thread after
    // the future resolves, so poll for the entry before moving on).
    service::SolverService server(
        {.num_workers = 2, .warm_start_dir = dir.string()});
    auto handle = server.submit(make_request(inst, options));
    if (!handle) return false;
    const auto result = handle->result.get();
    if (!result.status.ok()) return false;
    out->cold_best = result.best_value;
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    bool saved = false;
    while (std::chrono::steady_clock::now() < give_up && !saved) {
      for (const auto& entry : fs::directory_iterator(dir, ec)) {
        if (entry.path().extension() == ".ptsw") saved = true;
      }
      if (!saved) std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    if (!saved) {
      std::fprintf(stderr, "FAIL: no warm-start entry appeared in %s\n",
                   dir.string().c_str());
      return false;
    }
  }
  {
    // Cold control: same seed, chasing the cold best as its target.
    service::SolverService server({.num_workers = 2});
    auto control = options;
    control.target_value = out->cold_best;
    auto handle = server.submit(make_request(inst, control));
    if (!handle) return false;
    const auto result = handle->result.get();
    if (!result.status.ok() || !result.reached_target) return false;
    out->control_moves = result.total_moves;
  }
  {
    // Warm repeat: a NEW service over the same store, exact-hit policy.
    service::SolverService server(
        {.num_workers = 2, .warm_start_dir = dir.string()});
    auto warm = options;
    warm.target_value = out->cold_best;
    auto request = make_request(inst, warm);
    request.warm_start = service::WarmStartPolicy::kExact;
    auto handle = server.submit(std::move(request));
    if (!handle) return false;
    const auto result = handle->result.get();
    if (!result.status.ok() || !result.reached_target) return false;
    out->warm_moves = result.total_moves;
    out->warm_started = result.warm_started;
  }
  fs::remove_all(dir, ec);
  if (!out->warm_started) {
    std::fprintf(stderr, "FAIL: repeat submission missed the store\n");
    return false;
  }
  if (out->warm_moves >= out->control_moves) {
    std::fprintf(stderr,
                 "FAIL: warm-started repeat needed %llu moves to reach the "
                 "cold best, cold control needed %llu\n",
                 static_cast<unsigned long long>(out->warm_moves),
                 static_cast<unsigned long long>(out->control_moves));
    return false;
  }
  return true;
}

// -- Phase 4: two-tenant storm, per-tenant wait percentiles. ----------------

struct TenantWaits {
  std::vector<double> waits;
  double p50 = 0.0;
  double p99 = 0.0;
};

bool run_fairness_storm(const std::shared_ptr<const mkp::Instance>& inst,
                        std::size_t jobs_per_tenant, TenantWaits* prod,
                        TenantWaits* batch, double* serial_seconds) {
  service::ServiceConfig config;
  config.num_workers = 2;
  config.tenants = {{.name = "prod", .weight = 3.0},
                    {.name = "batch", .weight = 1.0}};
  service::SolverService server(config);
  auto blocker = server.submit(make_request(inst, quick_options(0.2, 99)));
  if (!blocker) return false;

  std::vector<std::pair<bool, service::JobHandle>> handles;
  for (std::size_t k = 0; k < jobs_per_tenant; ++k) {
    // Mixed priorities: fairness must come from tenant weights, not from a
    // priority accident — batch even gets the higher priority values.
    for (const bool is_prod : {false, true}) {
      auto options = quick_options(/*budget=*/0.08, kSeed + 10 + k);
      options.priority = is_prod ? 0 : static_cast<int>(k % 3);
      auto handle = server.submit(
          make_request(inst, std::move(options), is_prod ? "prod" : "batch"));
      if (!handle) {
        std::fprintf(stderr, "FAIL: storm submit refused: %s\n",
                     handle.status().to_string().c_str());
        return false;
      }
      handles.emplace_back(is_prod, std::move(*handle));
    }
  }

  *serial_seconds = blocker->result.get().run_seconds;
  for (auto& [is_prod, handle] : handles) {
    auto result = handle.result.get();
    if (!result.status.ok()) {
      std::fprintf(stderr, "FAIL: storm job %llu resolved %s\n",
                   static_cast<unsigned long long>(result.id),
                   result.status.to_string().c_str());
      return false;
    }
    *serial_seconds += result.run_seconds;
    (is_prod ? prod : batch)->waits.push_back(result.queue_seconds);
  }
  for (auto* tenant : {prod, batch}) {
    tenant->p50 = percentile(tenant->waits, 0.50);
    tenant->p99 = percentile(tenant->waits, 0.99);
  }
  const double bound = 3.0 * *serial_seconds;
  for (const auto& [name, tenant] :
       {std::pair{"prod", prod}, std::pair{"batch", batch}}) {
    if (tenant->p99 > bound) {
      std::fprintf(stderr,
                   "FAIL: tenant %s p99 wait %.3fs exceeds 3x the serial "
                   "solve time (%.3fs)\n",
                   name, tenant->p99, bound);
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string json_path = "BENCH_service.json";
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--quick") == 0) {
      quick = true;
    } else if (std::strncmp(argv[a], "--json=", 7) == 0) {
      json_path = argv[a] + 7;
    }
  }

  const auto inst = std::make_shared<const mkp::Instance>(
      mkp::generate_gk({.num_items = 60, .num_constraints = 5}, kSeed));
  const std::size_t group = quick ? 6 : 16;
  const std::size_t jobs_per_tenant = quick ? 8 : 24;

  bool ok = true;
  Trajectory first, second;
  if (!run_bit_identical(inst, &first, &second)) ok = false;
  const bool identical = first.best_value == second.best_value &&
                         first.total_moves == second.total_moves;
  if (!identical) {
    std::fprintf(stderr,
                 "FAIL: single-job trajectory diverged between two services "
                 "(%.1f in %llu moves, then %.1f in %llu)\n",
                 first.best_value,
                 static_cast<unsigned long long>(first.total_moves),
                 second.best_value,
                 static_cast<unsigned long long>(second.total_moves));
    ok = false;
  }
  std::printf("bit-identical: best %.1f in %llu moves in both services\n",
              second.best_value,
              static_cast<unsigned long long>(second.total_moves));

  DedupOutcome dedup;
  if (!run_dedup_storm(inst, group, &dedup)) {
    std::fprintf(stderr,
                 "FAIL: %zu identical submissions did not resolve as one "
                 "solve (%llu dedup hits)\n",
                 dedup.group,
                 static_cast<unsigned long long>(dedup.dedup_hits));
    ok = false;
  }
  std::printf("dedup storm: %zu identical submissions, %llu coalesced\n",
              dedup.group, static_cast<unsigned long long>(dedup.dedup_hits));

  WarmOutcome warm;
  if (!run_warm_start(inst, &warm)) ok = false;
  std::printf(
      "warm start: cold best %.1f; control reached it in %llu moves, "
      "warm-started repeat in %llu\n",
      warm.cold_best, static_cast<unsigned long long>(warm.control_moves),
      static_cast<unsigned long long>(warm.warm_moves));

  TenantWaits prod, batch;
  double serial_seconds = 0.0;
  if (!run_fairness_storm(inst, jobs_per_tenant, &prod, &batch,
                          &serial_seconds)) {
    ok = false;
  }
  std::printf(
      "fairness storm: %zu jobs/tenant on a 2-wide pool — prod wait "
      "p50/p99 %.3f/%.3fs, batch %.3f/%.3fs (serial %.2fs)\n",
      jobs_per_tenant, prod.p50, prod.p99, batch.p50, batch.p99,
      serial_seconds);

  char buffer[256];
  std::string json = "{\n";
  std::snprintf(buffer, sizeof buffer,
                "  \"bit_identical\": {\"best\": %.1f, \"moves\": %llu, "
                "\"identical\": %s},\n",
                second.best_value,
                static_cast<unsigned long long>(second.total_moves),
                identical ? "true" : "false");
  json += buffer;
  std::snprintf(buffer, sizeof buffer,
                "  \"dedup_storm\": {\"group\": %zu, \"dedup_hits\": %llu, "
                "\"one_solve\": %s},\n",
                dedup.group,
                static_cast<unsigned long long>(dedup.dedup_hits),
                dedup.one_solve ? "true" : "false");
  json += buffer;
  std::snprintf(buffer, sizeof buffer,
                "  \"warm_start\": {\"cold_best\": %.1f, \"control_moves\": "
                "%llu, \"warm_moves\": %llu, \"warm_started\": %s},\n",
                warm.cold_best,
                static_cast<unsigned long long>(warm.control_moves),
                static_cast<unsigned long long>(warm.warm_moves),
                warm.warm_started ? "true" : "false");
  json += buffer;
  std::snprintf(buffer, sizeof buffer,
                "  \"fairness\": {\"jobs_per_tenant\": %zu, \"serial_seconds\""
                ": %.3f,\n",
                jobs_per_tenant, serial_seconds);
  json += buffer;
  std::snprintf(buffer, sizeof buffer,
                "    \"prod\": {\"weight\": 3, \"p50_wait\": %.4f, "
                "\"p99_wait\": %.4f},\n",
                prod.p50, prod.p99);
  json += buffer;
  std::snprintf(buffer, sizeof buffer,
                "    \"batch\": {\"weight\": 1, \"p50_wait\": %.4f, "
                "\"p99_wait\": %.4f}},\n",
                batch.p50, batch.p99);
  json += buffer;
  json += std::string("  \"ok\": ") + (ok ? "true" : "false") + "\n}\n";

  if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  return ok ? 0 : 1;
}
