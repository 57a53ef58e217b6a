#include "service/warm_start.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "obs/metrics.hpp"
#include "parallel/codec.hpp"
#include "parallel/durable_file.hpp"
#include "parallel/wire.hpp"

namespace pts::service {

namespace {

using parallel::codec::Reader;
using parallel::codec::Writer;
namespace durable = parallel::durable;

constexpr durable::Format kFormat{"warm-start store", "warm-start entry",
                                  {'P', 'T', 'S', 'W'}, kWarmStartVersion,
                                  kWarmStartVersion};

std::string entry_name(std::uint64_t content_hash) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "ws_%016llx.ptsw",
                static_cast<unsigned long long>(content_hash));
  return buf;
}

/// The strategy/score section decoded; the solutions tail left unread (the
/// caller decodes it only on an exact hit, against the live instance).
struct EntryPrefix {
  struct Seat {
    tabu::Strategy strategy;
    int score = 0;
  };
  std::uint64_t content_hash = 0;
  std::uint32_t m = 0;
  std::uint32_t n = 0;
  double tightness = 0.0;
  double best_value = 0.0;
  std::vector<Seat> seats;  ///< one per slave of the saved run
};

template <class V, parallel::codec::Of<EntryPrefix::Seat> M>
void fields(V& v, M& seat) {
  fields(v, seat.strategy);
  v.i32(seat.score);
}

template <class V, parallel::codec::Of<EntryPrefix> M>
void fields(V& v, M& p) {
  v.u64(p.content_hash);
  v.u32(p.m);
  v.u32(p.n);
  v.f64(p.tightness);
  v.f64(p.best_value);
  v.seq(p.seats, /*min_bytes=*/4 * 8 + 4);
}

/// The hit a prefix seeds: strategies and scores, no solutions yet.
WarmStartStore::Hit make_hit(const EntryPrefix& prefix, bool exact) {
  WarmStartStore::Hit hit;
  hit.exact = exact;
  hit.stored_best = prefix.best_value;
  for (const auto& seat : prefix.seats) {
    hit.warm.strategies.push_back(seat.strategy);
    hit.warm.scores.push_back(seat.score);
  }
  return hit;
}

/// How much of an entry the kSimilar scan reads per file. The feature +
/// strategy prefix is a few hundred bytes even for wide pools; 64 KiB is
/// ludicrously generous while still bounding the scan's I/O — a directory
/// of large entries no longer costs a full read + CRC of every file.
constexpr std::size_t kScanPrefixBytes = 64u << 10;

/// Decodes the feature + strategy prefix; leaves `r` positioned at the
/// solutions section.
Expected<EntryPrefix> get_prefix(Reader& r) {
  EntryPrefix prefix;
  fields(r, prefix);
  if (auto status = r.status("warm-start entry"); !status.ok()) return status;
  return prefix;
}

/// One entry read whole and unsealed (ceiling, magic, version, length and
/// CRC checked) with its prefix decoded; `tail` reads on into the solutions
/// section of `file`. Any malformation is nullopt: a miss for that entry.
struct Entry {
  std::vector<std::uint8_t> file;
  EntryPrefix prefix;
  Reader tail;
};

std::optional<Entry> read_entry(const std::string& path) {
  auto file = durable::read(kFormat, path, durable::kMaxSealedFileBytes);
  if (!file) return std::nullopt;
  auto sealed = durable::unseal(kFormat, *file);
  if (!sealed) return std::nullopt;
  Reader tail(sealed->body);
  auto prefix = get_prefix(tail);
  if (!prefix) return std::nullopt;
  // Moving the vector keeps its buffer, so `tail` stays valid.
  return Entry{std::move(*file), std::move(*prefix), tail};
}

}  // namespace

Expected<WarmStartPolicy> warm_start_policy_from_string(const std::string& text) {
  std::string lower = text;
  for (char& c : lower) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  if (lower == "off" || lower == "none" || lower == "disabled") {
    return WarmStartPolicy::kDisabled;
  }
  if (lower == "exact") return WarmStartPolicy::kExact;
  if (lower == "similar") return WarmStartPolicy::kSimilar;
  return Status::invalid_argument("unknown warm-start policy '" + text +
                                  "' (accepted: off, exact, similar)");
}

double mean_tightness(const mkp::Instance& inst) {
  const std::size_t m = inst.num_constraints();
  if (m == 0) return 1.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    const auto row = inst.weights_row(i);
    double row_sum = 0.0;
    for (double w : row) row_sum += w;
    sum += row_sum > 0.0 ? inst.capacity(i) / row_sum : 1.0;
  }
  return sum / static_cast<double>(m);
}

WarmStartStore::WarmStartStore(std::string dir, double tightness_tolerance)
    : dir_(std::move(dir)), tightness_tolerance_(tightness_tolerance) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  // A failed create degrades to a store that never hits and never saves.
  // Uniquely-named tmp files orphaned by a crash would otherwise accumulate
  // forever; lookup ignores them (wrong extension), so reclaim them here.
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    if (entry.path().filename().string().find(".ptsw.tmp") ==
        std::string::npos) {
      continue;
    }
    std::filesystem::remove(entry.path(), ec);
  }
}

std::optional<WarmStartStore::Hit> WarmStartStore::lookup(
    const mkp::Instance& inst, std::uint64_t content_hash,
    WarmStartPolicy policy) const {
  if (policy == WarmStartPolicy::kDisabled) return std::nullopt;

  // Exact: one file, addressed by content.
  const auto exact_path =
      (std::filesystem::path(dir_) / entry_name(content_hash)).string();
  if (auto entry = read_entry(exact_path);
      entry && entry->prefix.content_hash == content_hash) {
    Hit hit = make_hit(entry->prefix, /*exact=*/true);
    // Exact hit: the saved elite solutions are solutions OF this instance —
    // decode and seed them as initials.
    Reader& r = entry->tail;
    const auto nsol = r.u32();
    if (r.plausible_count(nsol, 8 + inst.num_items() / 8)) {
      for (std::uint32_t k = 0; k < nsol; ++k) {
        auto solution = parallel::wire::get_solution(r, inst);
        if (!solution) break;  // partial seed beats none
        hit.warm.initials.push_back(*std::move(solution));
      }
    }
    obs::metrics().counter("warm_start_exact_hits_total").add();
    return hit;
  }
  if (policy != WarmStartPolicy::kSimilar) return std::nullopt;

  // Approximate: closest mean-tightness neighbor with the same shape.
  // Strategies and SGP scores transfer; solutions never do.
  //
  // Two passes. The scan reads only a bounded prefix of each entry (header
  // + features + strategies — no solution tails, no CRC over megabytes of
  // body) to rank candidates; the full read + CRC validation then runs
  // only on the ranked candidates, best first, and the first one that
  // validates wins. A store full of large entries costs a bounded head
  // read per entry instead of a full read of every file.
  const double t = mean_tightness(inst);
  struct Candidate {
    std::string path;
    double dt = 0.0;
    double best_value = 0.0;
  };
  std::vector<Candidate> candidates;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir_, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    if (entry.path().extension() != ".ptsw") continue;
    auto head =
        durable::read_head(kFormat, entry.path().string(), kScanPrefixBytes);
    if (!head) continue;  // unreadable entry: skip, never fatal
    // The CRC is deferred to the validation pass.
    auto sealed = durable::unseal_head(kFormat, *head);
    if (!sealed) continue;
    // A prefix that outruns the 64 KiB window decodes as truncated and the
    // entry is skipped — fine, a legitimate strategy section never gets
    // anywhere near that large.
    Reader r(sealed->body);
    auto prefix = get_prefix(r);
    if (!prefix) continue;
    if (prefix->m != inst.num_constraints() || prefix->n != inst.num_items()) {
      continue;
    }
    const double dt = std::abs(prefix->tightness - t);
    if (dt > tightness_tolerance_) continue;
    candidates.push_back({entry.path().string(), dt, prefix->best_value});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.dt != b.dt) return a.dt < b.dt;
              return a.best_value > b.best_value;
            });
  for (const auto& candidate : candidates) {
    auto entry = read_entry(candidate.path);  // full read + CRC, only now
    if (!entry) continue;  // corrupt entry: fall through to the runner-up
    obs::metrics().counter("warm_start_similar_hits_total").add();
    return make_hit(entry->prefix, /*exact=*/false);
  }
  return std::nullopt;
}

Status WarmStartStore::save(
    const mkp::Instance& inst, std::uint64_t content_hash,
    const mkp::Solution& best,
    const std::vector<parallel::snapshot::SlaveState>& slaves) {
  if (slaves.empty()) {
    return Status::invalid_argument("warm-start store: nothing to save");
  }
  const double best_value = best.value();
  const auto path =
      (std::filesystem::path(dir_) / entry_name(content_hash)).string();

  // Serialize saves: the keep-the-best read below and the rename at the end
  // must be atomic as a pair, or a concurrent save for the same hash could
  // clobber a stronger entry written between the check and the rename.
  std::lock_guard save_lock(save_mutex_);

  // Keep-the-best policy: a weaker run never clobbers a stronger entry.
  if (auto entry = read_entry(path);
      entry && entry->prefix.best_value > best_value) {
    return Status{};
  }

  EntryPrefix prefix{content_hash,
                     static_cast<std::uint32_t>(inst.num_constraints()),
                     static_cast<std::uint32_t>(inst.num_items()),
                     mean_tightness(inst),
                     best_value,
                     {}};
  for (const auto& slave : slaves) {
    prefix.seats.push_back({slave.strategy, slave.score});
  }
  Writer body;
  fields(body, prefix);
  // Seed solutions: the run's best first (it may be in no slave's final
  // pool), then each slave's strongest elite, else its last initial.
  std::vector<const mkp::Solution*> seeds;
  seeds.push_back(&best);
  for (const auto& slave : slaves) {
    const mkp::Solution* seed = nullptr;
    for (const auto& elite : slave.b_best) {
      if (seed == nullptr || elite.value() > seed->value()) seed = &elite;
    }
    if (seed == nullptr && slave.initial) seed = &*slave.initial;
    if (seed != nullptr) seeds.push_back(seed);
  }
  body.u32(static_cast<std::uint32_t>(seeds.size()));
  for (const auto* seed : seeds) fields(body, *seed);
  const auto image = durable::seal(kFormat, body.take());

  // A tmp name unique per (process, save), so writers never share a tmp
  // file: the mutex above covers this process, the pid covers siblings on a
  // shared store directory.
  const auto replaced = durable::replace(
      kFormat, path, durable::unique_tmp_path(path, tmp_seq_.fetch_add(1)),
      image);
  if (!replaced) return replaced.status();
  obs::metrics().counter("warm_start_saves_total").add();
  return Status{};
}

}  // namespace pts::service
