#pragma once
// Counts completion callbacks per submission, for the JobGateway contract
// (service/gateway.hpp): exactly one call per accepted submission, none for
// a refused one. Declare the tally before the gateway so it outlives every
// callback the gateway still holds.

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <map>
#include <mutex>

#include "service/gateway.hpp"

namespace pts::service {

class CallbackTally {
 public:
  /// A callback that records one call, and its result, against `slot`.
  JobCallback callback(int slot) {
    return [this, slot](JobResult result) {
      std::scoped_lock lock(mutex_);
      ++calls_[slot];
      results_[slot] = std::move(result);
      ++total_;
      changed_.notify_all();
    };
  }

  /// Blocks until `n` calls have arrived in total; false after 60 s.
  bool wait_total(std::size_t n) {
    std::unique_lock lock(mutex_);
    return changed_.wait_for(lock, std::chrono::seconds(60),
                             [&] { return total_ >= n; });
  }

  int calls(int slot) const {
    std::scoped_lock lock(mutex_);
    const auto it = calls_.find(slot);
    return it == calls_.end() ? 0 : it->second;
  }

  /// The status of the result `slot` was called with; throws (failing the
  /// test) when `slot` was never called.
  StatusCode code(int slot) const {
    std::scoped_lock lock(mutex_);
    return results_.at(slot).status.code();
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable changed_;
  std::map<int, int> calls_;
  std::map<int, JobResult> results_;
  std::size_t total_ = 0;
};

}  // namespace pts::service
