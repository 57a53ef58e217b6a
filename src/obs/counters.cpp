#include "obs/counters.hpp"

#include <atomic>

namespace pts::obs {

namespace detail {
constinit thread_local Counters* tl_sink = nullptr;
}  // namespace detail

namespace {
std::atomic<bool> g_enabled{true};
}  // namespace

void set_telemetry_enabled(bool enabled) { g_enabled.store(enabled); }

bool telemetry_enabled() {
  return g_enabled.load(std::memory_order_relaxed);
}

const char* counter_name(Counter c) {
  switch (c) {
    case Counter::kMovesTried: return "moves_tried";
    case Counter::kMovesImproved: return "moves_improved";
    case Counter::kDrops: return "drops";
    case Counter::kAdds: return "adds";
    case Counter::kForcedDrops: return "forced_drops";
    case Counter::kTabuRejections: return "tabu_rejections";
    case Counter::kAspirationAccepts: return "aspiration_accepts";
    case Counter::kFitScoreCalls: return "fit_score_calls";
    case Counter::kPruneEarlyOuts: return "prune_early_outs";
    case Counter::kIntensifications: return "intensifications";
    case Counter::kOscillations: return "oscillations";
    case Counter::kDiversifications: return "diversifications";
    case Counter::kDroppedMessages: return "dropped_messages";
    case Counter::kCheckpointsWritten: return "checkpoints_written";
    case Counter::kPoolDegraded: return "pool_degraded";
    case Counter::kCount: break;
  }
  return "?";
}

}  // namespace pts::obs
