#include "parallel/transport.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "util/timer.hpp"

namespace pts::parallel {

namespace {

/// Smallest recv() a read asks for.
constexpr std::size_t kMinRead = 4096;

Status errno_status(const char* op) {
  return Status::unavailable(std::string(op) + " failed: " +
                             std::strerror(errno));
}

}  // namespace

FrameSocket& FrameSocket::operator=(FrameSocket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    rx_ = std::move(other.rx_);
  }
  return *this;
}

void FrameSocket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  rx_.clear();
}

Status FrameSocket::send_frame(std::span<const std::uint8_t> frame) {
  if (fd_ < 0) return Status::unavailable("send on a closed socket");
  std::size_t sent = 0;
  while (sent < frame.size()) {
    // MSG_NOSIGNAL: a vanished peer must surface as EPIPE, not as a
    // process-killing SIGPIPE — a kill -9'd worker is an expected event.
    const ssize_t n = ::send(fd_, frame.data() + sent, frame.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno_status("send");
    }
    sent += static_cast<std::size_t>(n);
  }
  return Status{};
}

Expected<std::optional<wire::Frame>> FrameSocket::pop_frame() {
  if (rx_.size() < wire::kHeaderBytes) return std::optional<wire::Frame>{};
  auto header = wire::decode_header({rx_.data(), wire::kHeaderBytes});
  if (!header) return header.status();
  const std::size_t size = wire::kHeaderBytes + header->payload_size;
  if (rx_.size() < size) return std::optional<wire::Frame>{};
  const auto begin = rx_.begin();
  wire::Frame frame{header->type, {begin + wire::kHeaderBytes, begin + size}};
  rx_.erase(begin, begin + size);
  return std::optional<wire::Frame>{std::move(frame)};
}

Expected<std::optional<wire::Frame>> FrameSocket::poll_frame() {
  if (fd_ < 0) return Status::unavailable("read on a closed socket");
  if (auto frame = pop_frame(); !frame || *frame) return frame;
  // The buffer grows geometrically, so a large frame (a Hello carrying the
  // instance) arrives in a handful of reads.
  const std::size_t have = rx_.size();
  rx_.resize(have + std::max(kMinRead, have));
  ssize_t n = 0;
  do {
    n = ::recv(fd_, rx_.data() + have, rx_.size() - have, MSG_DONTWAIT);
  } while (n < 0 && errno == EINTR);
  const int recv_errno = errno;
  rx_.resize(have + static_cast<std::size_t>(std::max<ssize_t>(n, 0)));
  if (n > 0) return pop_frame();
  if (n == 0) return Status::unavailable("peer closed the connection");
  if (recv_errno == EAGAIN || recv_errno == EWOULDBLOCK) {
    return std::optional<wire::Frame>{};
  }
  errno = recv_errno;
  return errno_status("recv");
}

Expected<wire::Frame> FrameSocket::read_frame(std::optional<double> timeout_seconds,
                                              const CancelToken& cancel) {
  // The heartbeat bound runs from the call to the LAST byte of the frame:
  // a peer that stalls mid-header or mid-payload times out like a silent one.
  const auto deadline = timeout_seconds ? Deadline::after_seconds(*timeout_seconds)
                                        : Deadline::unbounded();
  for (;;) {
    // A fired token wins even over bytes already waiting: a draining server
    // must not pick up a request after its stop.
    if (cancel.stop_requested()) {
      return Status::cancelled("cancelled while waiting for a frame");
    }
    auto frame = poll_frame();
    if (!frame) return frame.status();
    if (*frame) return std::move(**frame);
    if (deadline.expired()) {
      return Status::deadline_exceeded("no whole frame within the heartbeat timeout");
    }
    pollfd pfd{fd_, POLLIN, 0};
    if (::poll(&pfd, 1, kPollSliceMs) < 0 && errno != EINTR) {
      return errno_status("poll");
    }
  }
}

std::optional<ToSlave> SocketTransport::receive(const CancelToken& token) {
  auto frame = socket_->read_frame(std::nullopt, token);
  if (!frame) return std::nullopt;  // EOF / cancel: treated as a closed link
  auto message = wire::decode_to_slave(frame->type, frame->payload, *inst_);
  if (!message) return std::nullopt;  // corrupt directive: stop, don't guess
  return *std::move(message);
}

bool SocketTransport::send(FromSlave message) {
  return socket_->send_frame(wire::encode_from_slave(message)).ok();
}

}  // namespace pts::parallel
