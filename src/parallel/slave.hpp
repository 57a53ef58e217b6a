#pragma once
// The slave process (§3, Figure 1 executor): wait for an Assignment, run one
// tabu search, report the B best solutions, repeat until the link closes
// (a round already running stops through its own params.cancel). A round
// that throws is reported as a SlaveFault rather than swallowed, so the
// master's rendezvous always completes. Each assignment's randomness derives
// deterministically from (seed, slave_id, round), so a parallel run is
// reproducible regardless of thread interleaving — and regardless of
// transport: the same loop runs over in-proc mailboxes (thread backend) and
// over a socket inside a pts_worker process (proc backend).

#include <cstdint>

#include "mkp/instance.hpp"
#include "parallel/comm.hpp"
#include "parallel/transport.hpp"

namespace pts::parallel {

/// What a finished slave loop hands back to its harness. A send can fail
/// when the link closed underneath us (an orderly teardown racing the last
/// report); the loop discards the message but counts it — the runner folds
/// the counts into MasterResult::dropped_messages, never silently.
struct SlaveLoopStats {
  std::uint64_t dropped_messages = 0;
};

/// Runs assignments until the link closes. `fault` is the test-only
/// injector (nullptr in production).
SlaveLoopStats slave_loop(const mkp::Instance& inst, std::size_t slave_id,
                          std::uint64_t seed, Transport& transport,
                          const FaultInjector* fault = nullptr);

/// Mailbox-channel convenience: wraps `channels` in a MailboxTransport.
/// Intended as a std::jthread body (the thread backend's slaves).
SlaveLoopStats slave_loop(const mkp::Instance& inst, std::size_t slave_id,
                          std::uint64_t seed, SlaveChannels channels);

/// One assignment worth of work — what slave_loop does per message, exposed
/// separately so tests can drive a slave without threads.
Report run_assignment(const mkp::Instance& inst, std::size_t slave_id,
                      std::uint64_t seed, const Assignment& assignment);

}  // namespace pts::parallel
