#pragma once
// Job vocabulary for the solver service: what a caller submits, what a
// job's future resolves to, and how the pool is shaped. Pure data — the
// book of open jobs lives in job_table.hpp, the scheduling machinery in
// solver_service.hpp.

#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "mkp/instance.hpp"
#include "mkp/solution.hpp"
#include "obs/anytime.hpp"
#include "obs/counters.hpp"
#include "parallel/comm.hpp"
#include "parallel/runner.hpp"
#include "util/status.hpp"

namespace pts::service {

using JobId = std::uint64_t;

/// Tenant identity: who a submission runs on behalf of. Plain names ("prod",
/// "batch-lowpri"); the empty string means the default tenant. Names appear
/// mangled into per-tenant metric names, so stick to [a-zA-Z0-9_-].
using TenantId = std::string;

/// Fair-share configuration for one tenant (ServiceConfig::tenants). Tenants
/// not listed run with weight 1 and no quota.
struct TenantConfig {
  TenantId name;
  /// Relative share of pool capacity under contention (weighted-fair
  /// queuing: a tenant's virtual time advances by slots/weight per
  /// dispatch, and the scheduler always serves the smallest virtual time).
  /// Also the shed rank under backpressure: lowest-weight work sheds first.
  double weight = 1.0;
  /// Hard cap on this tenant's concurrently running slots; 0 = uncapped.
  std::size_t max_running_slots = 0;
};

/// Whether (and how) a submission may be seeded from the warm-start store.
enum class WarmStartPolicy : std::uint8_t {
  kDisabled = 0,  ///< classic cold start (bit-identical to pre-store behavior)
  kExact = 1,     ///< seed only from a run of the byte-identical instance
  /// Exact hit preferred; otherwise a (m, n, tightness)-similar instance's
  /// strategies and SGP scores seed the run (its solutions cannot — they
  /// belong to a different instance).
  kSimilar = 2,
};

/// Parses "off" / "exact" / "similar" (case-insensitive) — the --warm-start
/// flag vocabulary.
[[nodiscard]] Expected<WarmStartPolicy> warm_start_policy_from_string(
    const std::string& text);

/// How a job entered the service. kResumed jobs were replayed from the job
/// journal after a crash or restart (DESIGN.md §9); they run identically to
/// fresh jobs, the tag only surfaces provenance in JobResult and stats.
enum class JobOrigin : std::uint8_t {
  kFresh = 0,
  kResumed = 1,
};

struct JobOptions {
  /// Named preset resolving the search shape; an unknown name resolves the
  /// job's future to kInvalidArgument immediately — never an abort.
  std::string preset = "balanced";
  /// The solve's own wall-time budget once running (a job that spends it in
  /// full still resolves OK).
  double time_budget_seconds = 2.0;
  /// Hard wall-clock deadline measured from submit(). A queued job whose
  /// deadline passes resolves kDeadlineExceeded without running; a running
  /// job is cooperatively cancelled and resolves kDeadlineExceeded with the
  /// best found so far.
  std::optional<double> deadline_seconds;
  /// Higher runs first; ties run in submission order.
  int priority = 0;
  std::uint64_t seed = 1;
  std::optional<double> target_value;
  /// Override the preset's cooperation mode (SEQ/ITS/CTS1/CTS2).
  std::optional<parallel::CooperationMode> mode;
  /// Override the slave execution backend (thread/proc). With
  /// Backend::kProcess, `proc` shapes the worker farm (binary path,
  /// heartbeat, respawn budget); a backend that fails to start resolves the
  /// job's future kUnavailable with the supervisor's error.
  std::optional<parallel::Backend> backend;
  parallel::ProcOptions proc;
  /// LP core-problem reduction before the search (ParallelConfig::core).
  /// The job's best is always reported in full space.
  bool core_reduction = false;
};

/// One submission under the redesigned API: everything the service needs to
/// admit, schedule and (maybe) share a solve. The request-level `priority`
/// and `deadline_seconds` are authoritative — they overwrite the same-named
/// JobOptions fields at submit, so per-caller urgency never fragments the
/// dedup key (two tenants with different deadlines can still share one
/// solve of the same instance).
struct SubmitRequest {
  std::shared_ptr<const mkp::Instance> instance;
  TenantId tenant;  ///< empty = the default tenant (weight 1, no quota)
  int priority = 0;
  std::optional<double> deadline_seconds;
  WarmStartPolicy warm_start = WarmStartPolicy::kDisabled;
  /// Opt out of in-flight dedup for this submission only: it never attaches
  /// to another job's solve (a later submission may still attach to its).
  bool allow_dedup = true;
  JobOptions options;
};


/// What a job's future resolves to — always. The service never aborts and
/// never leaves a future unresolved, including through shutdown.
struct JobResult {
  JobId id = 0;
  /// kResumed when this job was re-enqueued from the journal on restart.
  JobOrigin origin = JobOrigin::kFresh;
  /// OK: ran its budget (or hit its target). kDeadlineExceeded/kCancelled
  /// still carry the best found if the job got to run at all.
  /// kInvalidArgument (bad options), kResourceExhausted (queue backpressure)
  /// and kUnavailable (shutdown) carry no solution.
  Status status;
  /// Keeps `best` valid independent of the caller's and the service's
  /// lifetimes (solutions reference their instance).
  std::shared_ptr<const mkp::Instance> instance;
  std::optional<mkp::Solution> best;
  double best_value = 0.0;
  std::uint64_t total_moves = 0;
  bool reached_target = false;
  std::size_t slave_faults = 0;  ///< rounds that degraded to P-1 reports

  double queue_seconds = 0.0;  ///< submit -> dispatch (or terminal decision)
  double run_seconds = 0.0;    ///< dispatch -> finish (0 if never ran)
  /// Global dispatch order, 1-based; 0 for jobs that never started. Lets
  /// tests (and callers) observe the priority order actually enforced.
  std::uint64_t start_sequence = 0;

  /// Per-job telemetry, keyed by this id: the run's merged counter block and
  /// stitched anytime curve (empty when telemetry is disabled).
  obs::Counters counters;
  std::vector<obs::AnytimeSample> anytime;

  // -- Multi-tenant provenance. --
  TenantId tenant;                 ///< empty for the default tenant
  std::uint64_t content_hash = 0;  ///< instance content address (0 if invalid)
  /// This future was resolved by a shared solve it attached to (dedup).
  bool deduplicated = false;
  /// The solve was seeded from the warm-start store (exact or similar hit).
  bool warm_started = false;
};

/// What an accepted submission learns at once: the job's identity.
/// `deduplicated` means this submission attached to an identical in-flight
/// solve instead of enqueuing its own — its result still arrives
/// independently, with this submission's own deadline semantics.
struct JobTicket {
  JobId id = 0;
  TenantId tenant;
  /// Content address of the instance (snapshot::instance_hash64 over the
  /// canonical wire serialization) — the dedup and warm-start store key.
  std::uint64_t content_hash = 0;
  bool deduplicated = false;
};

/// The future-style form of an accepted submission (service/gateway.hpp):
/// the ticket plus a future that always resolves.
struct JobHandle : JobTicket {
  std::future<JobResult> result;
};

/// What to do when the bounded queue is full.
enum class OverflowPolicy : std::uint8_t {
  /// Resolve the incoming job kResourceExhausted.
  kRejectNew,
  /// Shed the lowest-priority queued job if the incoming one outranks it
  /// (the shed job resolves kResourceExhausted); otherwise reject the
  /// incoming one.
  kShedLowest,
};

struct ServiceConfig {
  /// Pool width: the maximum number of concurrently running search threads
  /// across all jobs. A job's preset thread ask is clamped to this, and jobs
  /// are only dispatched when their ask fits in the free capacity — 50
  /// queued jobs on a 4-wide pool drain without oversubscription.
  std::size_t num_workers = 4;
  /// Bounded backlog of not-yet-running jobs; overflow applies `overflow`.
  std::size_t queue_capacity = 64;
  OverflowPolicy overflow = OverflowPolicy::kRejectNew;
  /// Crash safety (DESIGN.md §9): non-empty = journal every accepted job and
  /// every terminal resolution here. On construction the service replays the
  /// file and re-enqueues the jobs whose futures never resolved (including
  /// jobs the previous incarnation's shutdown() cancelled) as
  /// JobOrigin::kResumed; their futures come back via take_recovered().
  /// Journaling is best-effort: an unwritable path degrades to no journal.
  std::string journal_path;
  /// Compact the journal in place (rewrite to just the still-open jobs, see
  /// JobJournal::compact) once it has accumulated this many records AND the
  /// rewrite would shrink it — no restart required. 0 disables periodic
  /// compaction (the replay-then-truncate on construction still compacts).
  std::uint64_t journal_compact_every_records = 256;
  /// Test-only: forwarded to every job's slaves (see parallel/comm.hpp).
  const parallel::FaultInjector* fault_injector = nullptr;

  // -- Multi-tenant scheduling (DESIGN.md §7). --

  /// Per-tenant weights and quotas. Tenants not listed (and the default
  /// tenant) run with weight 1 and no quota — a config with no entries
  /// degrades exactly to the pre-tenant strict-priority scheduler.
  std::vector<TenantConfig> tenants;
  /// Non-empty: directory of the persistent warm-start store. Completed
  /// cooperative runs save their final per-slave state here, and new jobs
  /// whose WarmStartPolicy allows it are seeded from matching entries.
  std::string warm_start_dir;
  /// How far a candidate's mean tightness may sit from the submitted
  /// instance's for a WarmStartPolicy::kSimilar feature match.
  double warm_start_tightness_tolerance = 0.05;
};

/// Cumulative service counters (all monotone).
struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t invalid = 0;           ///< resolved kInvalidArgument at submit
  std::uint64_t rejected = 0;          ///< backpressure (kResourceExhausted)
  std::uint64_t completed = 0;         ///< resolved OK
  std::uint64_t cancelled = 0;         ///< resolved kCancelled / kUnavailable
                                       ///< (cancel, shutdown)
  std::uint64_t backend_failures = 0;  ///< resolved kUnavailable because the
                                       ///< solve backend failed to start
  std::uint64_t deadline_expired = 0;  ///< resolved kDeadlineExceeded
  std::uint64_t slave_faults = 0;      ///< summed over finished runs
  std::uint64_t resumed = 0;           ///< re-enqueued from the journal
  std::uint64_t dedup_hits = 0;        ///< submissions attached to an in-flight solve
  std::uint64_t warm_started = 0;      ///< runs seeded from the warm-start store
};

}  // namespace pts::service
