#pragma once
// Persistent cross-job warm-start store (DESIGN.md §7). The paper's CTS2
// master recycles its initial-solution pool and SGP scores *within* one run;
// this store lifts that asset *across* runs and tenants: a completed
// cooperative run saves its final per-slave state (strategy, score, best
// elite solution) keyed by the instance's content address, and a later job
// for the same instance — or, under WarmStartPolicy::kSimilar, for an
// instance with matching (m, n) and nearby mean tightness — is seeded from
// it instead of cold-starting.
//
// One entry per content hash, file `ws_<hash hex>.ptsw` in the store
// directory: the sealed container of DESIGN.md §9 "Durable files" (magic
// 'PTSW', parallel/durable_file.hpp) around this body: u64 content_hash | u32 m | u32 n | f64 mean_tightness |
// f64 best_value | u32 nslaves | nslaves x (strategy, i32 score) |
// u32 nsolutions | nsolutions x solution. The solutions tail is only decoded
// on an EXACT hit — a similar instance's solutions reference different
// variables and cannot seed anything, so feature-match lookups stop after
// the strategy section. Entries are replaced and read through that module;
// the loader is total (truncation, bitflips, oversized files and counts are
// a miss, never a crash).

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "mkp/instance.hpp"
#include "parallel/durable_file.hpp"
#include "parallel/master.hpp"
#include "parallel/snapshot.hpp"
#include "service/job.hpp"
#include "util/status.hpp"

namespace pts::service {

inline constexpr std::uint8_t kWarmStartVersion = 1;
inline constexpr std::size_t kWarmStartHeaderBytes =
    parallel::durable::kSealHeaderBytes;

/// Mean constraint tightness capacity(i)/sum_j w(i,j) — the approximate-
/// match feature alongside (m, n). Matches mkp::profile_instance's
/// tightness_mean without paying for the full profile.
[[nodiscard]] double mean_tightness(const mkp::Instance& inst);

class WarmStartStore {
 public:
  /// `dir` is created if missing; an uncreatable directory degrades the
  /// store to always-miss lookups and failed saves (never an abort — the
  /// store must not be able to kill the service it warms).
  explicit WarmStartStore(std::string dir, double tightness_tolerance = 0.05);

  struct Hit {
    parallel::WarmStart warm;
    bool exact = false;        ///< same content hash (solutions seeded too)
    double stored_best = 0.0;  ///< the saved run's final best value
  };

  /// Best available seed for `inst` under `policy`. kDisabled always
  /// misses. kExact requires the byte-identical instance. kSimilar falls
  /// back to the closest (m, n, tightness) neighbor, seeding strategies and
  /// scores only. Corrupt entries are skipped, never fatal.
  [[nodiscard]] std::optional<Hit> lookup(const mkp::Instance& inst,
                                          std::uint64_t content_hash,
                                          WarmStartPolicy policy) const;

  /// Persists a finished run's per-slave records for `inst`. The run's best
  /// solution is the first seed — it can fall out of every slave's final
  /// elite pool, and a warm start that misses it would have to re-find the
  /// very value the store advertises. After it, each slave contributes the
  /// best of its elite pool (else its last initial). Overwrites an existing
  /// entry only when `best.value()` is at least as good — the store keeps
  /// its strongest known state per content address. Callers must not save
  /// core-reduced runs (their slave solutions live in core coordinates).
  /// Thread-safe: concurrent saves from multiple job threads are serialized
  /// (the keep-the-best check and the rename must be atomic as a pair) and
  /// each writes its own uniquely-named tmp file, so two processes sharing
  /// the store directory can never interleave writes into one tmp.
  Status save(const mkp::Instance& inst, std::uint64_t content_hash,
              const mkp::Solution& best,
              const std::vector<parallel::snapshot::SlaveState>& slaves);

  [[nodiscard]] const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
  double tightness_tolerance_;
  /// Serializes save(): read-check + write + rename must not interleave.
  std::mutex save_mutex_;
  /// Distinguishes tmp files across threads of one process; the pid in the
  /// tmp name distinguishes processes sharing the directory.
  std::atomic<std::uint64_t> tmp_seq_{0};
};

}  // namespace pts::service
