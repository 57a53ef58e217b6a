#pragma once
// Transport: the seam between the Section-4 message protocol and how the
// bytes actually move. A slave runs the same loop whether its master lives
// in the next thread (MailboxTransport over the in-proc mailboxes) or in
// another process at the end of a stream socket (SocketTransport over
// wire.hpp frames) — the paper's PVM boundary, made pluggable.
//
// The master has the mirror-image seam, MasterTransport: run_master scatters
// through send() and gathers through receive(), over MailboxMasterTransport
// (slave threads) or ProcSupervisor (worker processes, proc_backend.hpp).

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "mkp/instance.hpp"
#include "parallel/comm.hpp"
#include "parallel/wire.hpp"
#include "util/cancel.hpp"
#include "util/status.hpp"

namespace pts::parallel {

/// Poll slice of the proc backend's gather: short enough that a fired cancel
/// token is honoured promptly, long enough not to spin.
inline constexpr int kPollSliceMs = 50;

/// A slave's view of its link to the master: where the next directive comes
/// from and where round outcomes go.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Blocks for the next assignment. nullopt means the link is closed —
  /// the only way a slave loop ends.
  [[nodiscard]] virtual std::optional<Assignment> receive() = 0;

  /// Posts a round outcome. Returns false when the link is down and the
  /// message was dropped — callers must count the drop, never ignore it.
  [[nodiscard]] virtual bool send(FromSlave message) = 0;
};

/// In-process transport: the Mailbox pair of SlaveChannels. This is the
/// default `--backend=thread` path — and the reference semantics the socket
/// transport must reproduce.
class MailboxTransport final : public Transport {
 public:
  MailboxTransport(Mailbox<Assignment>* inbox, Mailbox<FromSlave>* outbox)
      : inbox_(inbox), outbox_(outbox) {
    PTS_CHECK(inbox_ && outbox_);
  }

  [[nodiscard]] std::optional<Assignment> receive() override {
    return inbox_->receive();
  }

  [[nodiscard]] bool send(FromSlave message) override {
    return outbox_->send(std::move(message));
  }

 private:
  Mailbox<Assignment>* inbox_;
  Mailbox<FromSlave>* outbox_;
};

/// The master's view of its links to the slaves.
class MasterTransport {
 public:
  virtual ~MasterTransport() = default;
  [[nodiscard]] virtual std::size_t num_slaves() const = 0;
  /// Posts an assignment; false when that slave's link is closed (a drop).
  [[nodiscard]] virtual bool send(std::size_t slave, Assignment message) = 0;
  /// Blocks for the next Report or SlaveFault from any slave. nullopt means
  /// the token fired (or the links were closed underneath the master).
  [[nodiscard]] virtual std::optional<FromSlave> receive(const CancelToken& token) = 0;
};

/// In-process master side: one private inbox per slave and ONE report
/// mailbox that every slave's outbox is, by construction.
class MailboxMasterTransport final : public MasterTransport {
 public:
  explicit MailboxMasterTransport(std::size_t num_slaves) {
    // One allocation per mailbox: slave threads lock their own inbox without
    // sharing a cache line with a neighbour's.
    for (std::size_t i = 0; i < num_slaves; ++i) {
      inboxes_.push_back(std::make_unique<Mailbox<Assignment>>());
    }
  }

  /// Slave `slave`'s endpoints, carrying the test-only fault injector.
  [[nodiscard]] SlaveChannels channels(std::size_t slave,
                                       const FaultInjector* fault = nullptr) {
    return SlaveChannels{inboxes_.at(slave).get(), &reports_, fault};
  }

  /// Closes every inbox, which ends every slave: one blocked on its inbox
  /// returns at once, one mid-round returns after that round.
  void close_inboxes() {
    for (auto& inbox : inboxes_) inbox->close();
  }

  [[nodiscard]] std::size_t num_slaves() const override { return inboxes_.size(); }
  [[nodiscard]] bool send(std::size_t slave, Assignment message) override {
    return inboxes_.at(slave)->send(std::move(message));
  }
  [[nodiscard]] std::optional<FromSlave> receive(const CancelToken& token) override {
    return reports_.receive(token);
  }

 private:
  std::vector<std::unique_ptr<Mailbox<Assignment>>> inboxes_;
  Mailbox<FromSlave> reports_;
};

/// Framed byte pipe over a connected stream socket (Unix socketpair or TCP —
/// anything recv()/send() works on). Owns the fd. One frame per message,
/// header validated on the way in (magic, version, type, length ceiling).
/// Incoming bytes collect in a receive buffer, so a frame may arrive in any
/// number of pieces and a reader never blocks in the middle of one.
///
/// Not internally synchronized: at most one reading and one writing thread
/// at a time (the net server splits them; the coordinator's tick thread and
/// the proc backend's master thread read every link they own).
class FrameSocket {
 public:
  FrameSocket() = default;
  explicit FrameSocket(int fd) : fd_(fd) {}
  ~FrameSocket() { close(); }

  FrameSocket(FrameSocket&& other) noexcept
      : fd_(std::exchange(other.fd_, -1)), rx_(std::move(other.rx_)) {}
  FrameSocket& operator=(FrameSocket&& other) noexcept;
  FrameSocket(const FrameSocket&) = delete;
  FrameSocket& operator=(const FrameSocket&) = delete;

  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  [[nodiscard]] int fd() const { return fd_; }

  /// Closes the fd (idempotent) and drops buffered bytes. The peer sees EOF.
  void close();

  /// Writes one already-encoded frame, retrying short writes. Returns
  /// kUnavailable when the peer is gone (EPIPE/closed fd).
  Status send_frame(std::span<const std::uint8_t> frame);

  /// Reads one full frame. `timeout_seconds` bounds the whole frame, header
  /// and payload (the heartbeat bound), so a peer that stalls mid-frame times
  /// out too; nullopt blocks indefinitely. Errors: kDeadlineExceeded
  /// (timeout), kUnavailable (EOF or socket error — a dead peer),
  /// kInvalidArgument (malformed header, from wire::decode_header).
  Expected<wire::Frame> read_frame(std::optional<double> timeout_seconds);

  /// Non-blocking read_frame: pops a complete frame from what has arrived;
  /// nullopt while the next frame is incomplete (poll and call again).
  Expected<std::optional<wire::Frame>> poll_frame();

 private:
  /// Pops the first buffered frame if it is complete.
  Expected<std::optional<wire::Frame>> pop_frame();

  int fd_ = -1;
  std::vector<std::uint8_t> rx_;  ///< bytes received but not yet popped
};

/// Worker-side socket transport: decodes assignments against the instance
/// from the handshake, encodes outcomes back. receive() blocks on the
/// socket; a vanished master (EOF) and any frame that is not an assignment
/// (the supervisor's kStop included) read as a closed link.
class SocketTransport final : public Transport {
 public:
  SocketTransport(FrameSocket& socket, const mkp::Instance& inst)
      : socket_(&socket), inst_(&inst) {}

  [[nodiscard]] std::optional<Assignment> receive() override;
  [[nodiscard]] bool send(FromSlave message) override;

 private:
  FrameSocket* socket_;
  const mkp::Instance* inst_;
};

}  // namespace pts::parallel
