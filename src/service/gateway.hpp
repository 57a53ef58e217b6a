#pragma once
// JobGateway: what a front door (net::Server) needs from whatever runs its
// submissions — admit-or-refuse, a completion callback, per-waiter cancel.
// SolverService implements it in-process; cluster::Coordinator implements
// it by sharding across peer nodes (DESIGN.md §11).

#include <functional>
#include <future>
#include <memory>
#include <utility>

#include "service/job.hpp"
#include "util/status.hpp"

namespace pts::service {

/// Receives one accepted submission's result.
using JobCallback = std::function<void(JobResult)>;

class JobGateway {
 public:
  virtual ~JobGateway() = default;

  /// Admits or refuses one submission. A refusal (invalid options,
  /// backpressure, shutdown) returns a Status and `on_done` is never
  /// called. An accepted submission returns its ticket, and the gateway
  /// calls `on_done` exactly once with its JobResult — run-time failures
  /// (backend death, deadline, cancel, shutdown) arrive as that result's
  /// own Status.
  ///
  /// `on_done` may run before submit() returns, on any thread, and while
  /// the gateway holds its own mutex: it must not block and must not call
  /// back into the gateway.
  [[nodiscard]] virtual Expected<JobTicket> submit(SubmitRequest request,
                                                   JobCallback on_done) = 0;

  /// Cancels one waiter's stake; its callback still fires (usually with
  /// kCancelled). Returns false for unknown or already-resolved ids.
  virtual bool cancel(JobId id) = 0;

  /// Future-style submit over the callback form: the handle's future
  /// resolves with what `on_done` would have received.
  [[nodiscard]] Expected<JobHandle> submit(SubmitRequest request) {
    return with_future([&](JobCallback on_done) {
      return submit(std::move(request), std::move(on_done));
    });
  }

  /// Runs one callback-style submission and pairs its ticket with a future
  /// that the callback fulfils.
  template <class Submit>
  static Expected<JobHandle> with_future(Submit&& submit) {
    auto promise = std::make_shared<std::promise<JobResult>>();
    JobHandle handle;
    handle.result = promise->get_future();
    auto ticket = std::forward<Submit>(submit)(
        [promise](JobResult result) { promise->set_value(std::move(result)); });
    if (!ticket) return ticket.status();
    static_cast<JobTicket&>(handle) = std::move(*ticket);
    return handle;
  }
};

}  // namespace pts::service
