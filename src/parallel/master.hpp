#pragma once
// The master process (§4.2, Figure 2):
//
//   read and send problem data to the slaves
//   for each search iteration:
//     SGP + ISP -> per-slave (initial solution, strategy)
//     scatter assignments; gather every slave's B best solutions
//
// Cooperation is controlled by two independent switches so the Table-2 modes
// never diverge structurally: share_solutions (ISP pooling) and
// adapt_strategies (SGP retuning). ITS = both off, CTS1 = share only,
// CTS2 = both on.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "mkp/instance.hpp"
#include "parallel/comm.hpp"
#include "parallel/init_gen.hpp"
#include "parallel/snapshot.hpp"
#include "parallel/strategy_gen.hpp"
#include "parallel/transport.hpp"
#include "tabu/strategy.hpp"

namespace pts::parallel {

/// Cross-run seeding material (DESIGN.md §7): per-slave strategies, SGP
/// scores and initial solutions harvested from an earlier run's final
/// records. The master consumes entry i for slave i while entries last and
/// falls back to its usual random draws beyond them — crucially WITHOUT
/// consuming the RNG draws the replaced initialization would have made only
/// when no warm start is supplied at all, so a run with warm_start == nullptr
/// is bit-identical to the pre-warm-start code. All vectors may be shorter
/// than num_slaves (or empty); `initials` entries must reference the same
/// instance the run searches.
struct WarmStart {
  std::vector<tabu::Strategy> strategies;
  std::vector<int> scores;  ///< parallel to `strategies`; missing = initial_score
  std::vector<mkp::Solution> initials;
};

struct MasterConfig {
  std::size_t num_slaves = 8;
  std::size_t search_iterations = 10;  ///< the paper's Nb_search_it

  /// Per-slave, per-round work budget in move*nb_drop units. The master
  /// balances wall time across heterogeneous strategies by assigning
  /// max_moves = work / nb_drop (§4.2: "give a value to Nb_it which is
  /// proportional to Nb_drop conversely").
  std::uint64_t work_per_slave_round = 20'000;

  std::uint64_t seed = 1;
  bool share_solutions = true;   ///< ISP pooling (CTS1, CTS2)
  bool adapt_strategies = true;  ///< SGP retuning (CTS2)

  IspConfig isp;
  SgpConfig sgp;
  tabu::TsParams base_params;  ///< template: intensification kind, thresholds...

  /// When true, slaves alternate between the paper's two intensification
  /// procedures (even slaves swap components, odd slaves run strategic
  /// oscillation) instead of all using base_params.intensification — the
  /// heterogeneity §3.2's "two intensification procedures have been used"
  /// implies.
  bool mix_intensification = false;

  /// Extension (tabu/path_relink.hpp): after each gather, relink the global
  /// best against every slave's best and adopt any improvement found on the
  /// path. Off by default (not part of the paper's algorithm).
  bool relink_elites = false;

  std::optional<double> target_value;  ///< stop all slaves once reached
  double time_limit_seconds = 0.0;     ///< 0 = unbounded rounds

  /// Cooperative stop: checked at the top of every round and during the
  /// gather wait itself, and forwarded to every slave's engine via its
  /// assignment — a fired token unwinds the whole farm within one
  /// inner-loop check per slave plus one mailbox poll slice.
  CancelToken cancel;

  /// Crash safety (DESIGN.md §9). Non-empty: atomically write a
  /// snapshot::MasterCheckpoint here every `checkpoint_every_rounds` rounds
  /// (and after the final round). A write failure is counted, traced and
  /// tolerated — durability must never kill the search it protects.
  std::string checkpoint_path;
  std::size_t checkpoint_every_rounds = 1;

  /// Resume from a previously loaded checkpoint (must outlive the run, and
  /// must pass snapshot::check_compatible against this config — the caller
  /// validates; run_master CHECKs the structural invariants). The run
  /// restores the master RNG mid-stream, so a fault-free resumed run
  /// reproduces the uninterrupted run's final best bit for bit.
  const snapshot::MasterCheckpoint* resume = nullptr;

  /// Core-reduction provenance copied verbatim into every checkpoint this
  /// run writes (empty when the run searches the full instance). The master
  /// itself never looks inside — the runner's core layer owns the mapping;
  /// the master just keeps the snapshot self-describing.
  snapshot::CoreSection core_section;

  /// Pool degradation: after this many back-to-back faulted rounds a slave
  /// is retired — no further assignments; the survivors absorb its work
  /// share and, when it out-scores them, its strategy. 0 disables (the
  /// pre-recovery behavior: reseed and retry forever). The last active
  /// slave is never retired.
  std::size_t degrade_after_faults = 0;

  /// Seed the fresh-init path from an earlier run's state (ignored when
  /// resuming from a checkpoint, which restores the full state anyway).
  /// Must outlive the run. nullptr = the classic cold start.
  const WarmStart* warm_start = nullptr;
};

/// One line of the run's audit log (one slave in one round).
struct RoundLog {
  std::size_t round = 0;
  std::size_t slave = 0;
  tabu::Strategy strategy;        ///< strategy the slave ran this round
  InitKind init_kind = InitKind::kOwnBest;
  double initial_value = 0.0;
  double final_value = 0.0;
  int score_after = 0;
  RetuneKind retune = RetuneKind::kKept;
  std::uint64_t moves = 0;
  double seconds = 0.0;
};

struct MasterResult {
  mkp::Solution best;
  double best_value = 0.0;
  std::vector<RoundLog> timeline;
  std::size_t rounds_completed = 0;
  std::uint64_t total_moves = 0;
  double seconds = 0.0;
  bool reached_target = false;

  /// True when the run stopped because MasterConfig::cancel fired rather
  /// than by exhausting its rounds/time or reaching the target.
  bool cancelled = false;

  std::size_t strategy_retunes = 0;
  std::size_t global_best_injections = 0;
  std::size_t random_restarts = 0;
  std::size_t relink_improvements = 0;  ///< only with relink_elites
  /// Rounds that ended with a SlaveFault instead of a Report (the round
  /// proceeded with the remaining reports), and the master-side respawns
  /// that followed: the faulted slave's record is reseeded with a fresh
  /// random strategy and start, so the thread re-enters the next round as
  /// if newly spawned.
  std::size_t slave_faults = 0;
  std::size_t slave_respawns = 0;
  /// Slaves retired by the degradation policy (never recovers within a run).
  std::size_t slaves_retired = 0;
  /// Checkpoints durably written / write attempts that failed.
  std::size_t checkpoints_written = 0;
  std::size_t checkpoint_failures = 0;
  /// First round this run executed (nonzero only when resumed).
  std::size_t resumed_from_round = 0;
  /// Accumulated gap between the first and last report of each round —
  /// the rendezvous idle cost of the synchronous scheme (ablation A5).
  double rendezvous_idle_seconds = 0.0;
  /// Messages whose send hit a closed endpoint and was explicitly discarded
  /// (the master's Stop broadcast racing an orderly teardown, plus — when
  /// the runner collects them — slave reports dropped on a closed report
  /// box). Mirrored into counters under "dropped_messages"; nonzero outside
  /// a teardown race indicates a wiring bug.
  std::size_t dropped_messages = 0;

  /// Telemetry (obs/): exact merged totals over every (slave, round) report,
  /// the per-snapshot distributions behind them, and the stitched anytime
  /// curve — per-slave samples re-based to the master's wall clock and
  /// cumulative move count, plus the global best-so-far envelope under
  /// source == obs::kGlobalSource. All empty when telemetry is disabled.
  obs::Counters counters;
  obs::CounterStats counter_stats;
  std::vector<obs::AnytimeSample> anytime;

  /// End-of-run per-slave records (strategies, SGP scores, elite pools) —
  /// the raw material a warm-start store persists for future runs. Same
  /// shape as a checkpoint's slave section; empty only for runs that never
  /// built records (SEQ has no master and never produces a MasterResult).
  std::vector<snapshot::SlaveState> final_slaves;
};

/// Observer for the master's control flow (Fig. 2 structural tests).
class MasterTrace {
 public:
  virtual ~MasterTrace() = default;
  virtual void on_round_start(std::size_t /*round*/) {}
  virtual void on_assignments_sent(std::size_t /*round*/, std::size_t /*count*/) {}
  virtual void on_reports_gathered(std::size_t /*round*/, std::size_t /*count*/) {}
};

/// Drives one full run over already-connected slave links: `links` must
/// carry one live slave per config.num_slaves. Sends Stop to every slave
/// before returning.
MasterResult run_master(const mkp::Instance& inst, MasterTransport& links,
                        const MasterConfig& config, MasterTrace* trace = nullptr);

}  // namespace pts::parallel
