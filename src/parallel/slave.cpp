#include "parallel/slave.hpp"

#include <chrono>
#include <stdexcept>
#include <thread>

#include "obs/trace.hpp"
#include "tabu/engine.hpp"
#include "util/check.hpp"

namespace pts::parallel {

Report run_assignment(const mkp::Instance& inst, std::size_t slave_id,
                      std::uint64_t seed, const Assignment& assignment) {
  // Stream id folds (slave, round) into one 64-bit label.
  Rng base(seed);
  Rng rng = base.derive((static_cast<std::uint64_t>(slave_id) << 32) ^
                        static_cast<std::uint64_t>(assignment.round));

  obs::SpanScope span("slave_ts_round",
                      {{"slave", static_cast<double>(slave_id)},
                       {"round", static_cast<double>(assignment.round)}});
  auto ts = tabu::tabu_search(inst, assignment.initial, assignment.params, rng);

  Report report;
  report.slave_id = slave_id;
  report.round = assignment.round;
  report.initial_value = assignment.initial.value();
  report.final_value = ts.best_value;
  report.elite = std::move(ts.elite);
  report.moves = ts.moves;
  report.seconds = ts.seconds;
  report.reached_target = ts.reached_target;
  report.counters = ts.counters;
  report.anytime = std::move(ts.anytime);
  // The engine does not know who ran it; stamp the samples with our id.
  for (auto& sample : report.anytime) {
    sample.source = static_cast<std::int32_t>(slave_id);
  }
  return report;
}

SlaveLoopStats slave_loop(const mkp::Instance& inst, std::size_t slave_id,
                          std::uint64_t seed, Transport& transport,
                          const FaultInjector* fault) {
  SlaveLoopStats stats;
  // Logical trace id: master = 0, slave i = i + 1.
  obs::TidScope tid_scope(static_cast<std::uint32_t>(slave_id) + 1);
  const auto send_counted = [&](FromSlave message) {
    // A false send means the report box closed (or the socket died) under
    // us: the harness is tearing down, our message cannot arrive. Discard
    // explicitly and count it — a silent drop here is exactly the bug class
    // that hangs a rendezvous with no trace to show for it.
    if (!transport.send(std::move(message))) {
      ++stats.dropped_messages;
      if (obs::tracer().enabled()) {
        obs::tracer().instant("dropped_message",
                              {{"slave", static_cast<double>(slave_id)}},
                              "kind", "report");
      }
    }
  };
  while (auto assignment = transport.receive()) {
    // A throwing round must never silence the rendezvous: convert every
    // escape into a SlaveFault so the master still gets one message for this
    // (slave, round) and can degrade gracefully instead of hanging.
    try {
      if (fault && fault->stall_seconds) {
        const double stall = fault->stall_seconds(slave_id, assignment->round);
        if (stall > 0.0) {
          std::this_thread::sleep_for(std::chrono::duration<double>(stall));
        }
      }
      if (fault && fault->should_throw &&
          fault->should_throw(slave_id, assignment->round)) {
        throw std::runtime_error("injected slave fault");
      }
      send_counted(run_assignment(inst, slave_id, seed, *assignment));
    } catch (const std::exception& error) {
      send_counted(SlaveFault{slave_id, assignment->round, error.what()});
    } catch (...) {
      send_counted(SlaveFault{slave_id, assignment->round, "unknown exception"});
    }
  }
  return stats;
}

SlaveLoopStats slave_loop(const mkp::Instance& inst, std::size_t slave_id,
                          std::uint64_t seed, SlaveChannels channels) {
  PTS_CHECK(channels.inbox && channels.outbox);
  MailboxTransport transport(channels.inbox, channels.outbox);
  return slave_loop(inst, slave_id, seed, transport, channels.fault);
}

}  // namespace pts::parallel
