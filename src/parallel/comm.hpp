#pragma once
// The message protocol between the master and the slave search threads —
// the in-process stand-in for the paper's PVM layer (synchronous centralized
// communication scheme, §4.2). One mailbox per slave carries assignments
// down; a shared mailbox carries reports up. The master's "rendezvous" is
// simply gathering P reports before computing the next round.
//
// Everything in a message is moved; the only shared object is the const
// Instance (immutable data is safe to share — Core Guidelines CP.3).

#include <cstdint>
#include <functional>
#include <string>
#include <variant>
#include <vector>

#include "mkp/solution.hpp"
#include "obs/anytime.hpp"
#include "obs/counters.hpp"
#include "tabu/engine.hpp"
#include "tabu/strategy.hpp"
#include "util/mailbox.hpp"

namespace pts::parallel {

/// Master -> slave: run one search iteration.
struct Assignment {
  std::size_t round = 0;
  mkp::Solution initial;
  tabu::TsParams params;  ///< strategy + budget, fully resolved by the master
};

/// Slave -> master: the outcome of one search iteration (the paper's
/// "B best solutions" plus what scoring needs).
struct Report {
  std::size_t slave_id = 0;
  std::size_t round = 0;
  double initial_value = 0.0;  ///< C(S_i): cost of the assigned start
  double final_value = 0.0;    ///< C'(S_i): best cost the slave reached
  std::vector<mkp::Solution> elite;  ///< B best, best first
  std::uint64_t moves = 0;
  double seconds = 0.0;
  bool reached_target = false;

  /// Telemetry riding along with the result: the run's counter snapshot and
  /// its improvement curve (sample.source == slave_id, seconds relative to
  /// the run's own start). Empty when telemetry is disabled.
  obs::Counters counters;
  std::vector<obs::AnytimeSample> anytime;
};

/// Slave -> master: the round died instead of reporting. A slave whose
/// search throws sends this in place of its Report, so the rendezvous still
/// sees one message per slave per round — the master proceeds with P-1
/// results and respawns the slave's record instead of hanging forever on a
/// gather that can never complete (the liveness gap in the paper's §4.2
/// synchronous scheme).
struct SlaveFault {
  std::size_t slave_id = 0;
  std::size_t round = 0;
  std::string what;  ///< exception text, for the audit log
};

/// Everything a slave can send up.
using FromSlave = std::variant<Report, SlaveFault>;

/// Test-only fault injection: when wired into SlaveChannels, the slave
/// throws at the top of any (slave, round) for which should_throw returns
/// true — the hook the fault-tolerance tests use to force SlaveFault paths
/// without bespoke test slaves.
struct FaultInjector {
  std::function<bool(std::size_t slave_id, std::size_t round)> should_throw;
  /// Chaos schedule: seconds to sleep at the top of the round before doing
  /// any work (0 or unset = no stall) — a slow slave the rendezvous must
  /// wait out, distinct from a fault. The chaos harness uses this to verify
  /// that stalls delay rounds without ever losing a message.
  std::function<double(std::size_t slave_id, std::size_t round)> stall_seconds;
};

/// The endpoints a slave needs, plus the fault plumbing. `inbox` is private
/// to the slave, and closing it is how the slave is ended; every slave's
/// `outbox` is the one report mailbox its master drains
/// (MailboxMasterTransport::channels wires both).
struct SlaveChannels {
  Mailbox<Assignment>* inbox = nullptr;
  Mailbox<FromSlave>* outbox = nullptr;
  const FaultInjector* fault = nullptr;  ///< tests only; nullptr in production
};

}  // namespace pts::parallel
