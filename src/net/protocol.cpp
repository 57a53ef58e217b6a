#include "net/protocol.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <type_traits>

#include "parallel/codec.hpp"
#include "service/journal.hpp"
#include "util/check.hpp"

namespace pts {

/// Status on the wire: code byte + message. The code byte is validated on
/// the way in — an unknown code is a corrupt frame, not a new enumerator.
/// Status is built through its constructor, so the list reads the parts and
/// the decoder assembles them.
template <class V, parallel::codec::Of<Status> M>
void fields(V& v, M& status) {
  StatusCode code = status.code();
  std::string message = status.message();
  v.enumeration(code, StatusCode::kOk, StatusCode::kInternal);
  v.str(message, /*max_len=*/4096);
  if constexpr (!std::is_const_v<M>) status = Status(code, std::move(message));
}

}  // namespace pts

namespace pts::net {

using parallel::wire::MessageType;

void configure_tcp_connection(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::setsockopt(fd, SOL_SOCKET, SO_KEEPALIVE, &one, sizeof(one));
}

template <class V, parallel::codec::Of<SubmitJob> M>
void fields(V& v, M& m) {
  v.u64(m.request_id);
  v.str(m.tenant, /*max_len=*/256);
  v.i32(m.priority);
  v.optional_f64(m.deadline_seconds);
  v.enumeration(m.warm_start, service::WarmStartPolicy::kDisabled,
                service::WarmStartPolicy::kSimilar);
  v.flag(m.allow_dedup);
  fields(v, m.options);
  fields(v, m.instance);
}

template <class V, parallel::codec::Of<SubmitAck> M>
void fields(V& v, M& m) {
  v.u64(m.request_id);
  fields(v, m.status);
  v.u64(m.job_id);
  v.u64(m.content_hash);
  v.flag(m.deduplicated);
}

template <class V, parallel::codec::Of<JobEvent> M>
void fields(V& v, M& m) {
  v.u64(m.request_id);
  // One event kind today; any other byte is corruption.
  v.enumeration(m.kind, JobEvent::Kind::kAnytimeChunk,
                JobEvent::Kind::kAnytimeChunk);
  // The explicit cap keeps one frame's decode allocation bounded
  // independent of the payload ceiling.
  v.seq(m.anytime, obs::kAnytimeSampleBytes, kMaxAnytimeSamplesPerEvent);
}

template <class V, parallel::codec::Of<JobResultFrame> M>
void fields(V& v, M& m) {
  v.u64(m.request_id);
  fields(v, m.status);
  v.enumeration(m.origin, service::JobOrigin::kFresh,
                service::JobOrigin::kResumed);
  v.f64(m.best_value);
  v.optional(m.best);
  v.u64(m.total_moves);
  v.flag(m.reached_target);
  v.u64(m.slave_faults);
  v.f64(m.queue_seconds);
  v.f64(m.run_seconds);
  v.u64(m.start_sequence);
  v.str(m.tenant, /*max_len=*/256);
  v.u64(m.content_hash);
  v.flag(m.deduplicated);
  v.flag(m.warm_started);
}

template <class V, parallel::codec::Of<CancelJob> M>
void fields(V& v, M& m) {
  v.u64(m.request_id);
}

template <class V, parallel::codec::Of<Goodbye> M>
void fields(V& v, M& m) {
  v.str(m.reason, /*max_len=*/4096);
}

std::vector<std::uint8_t> encode_submit_job(const SubmitJob& m) {
  return parallel::wire::frame(MessageType::kSubmitJob, m);
}

Expected<SubmitJob> decode_submit_job(std::span<const std::uint8_t> payload) {
  SubmitJob blank{.instance = parallel::codec::blank_instance()};
  return parallel::codec::decode(payload, std::move(blank), "submit-job");
}

std::vector<std::uint8_t> encode_submit_ack(const SubmitAck& m) {
  return parallel::wire::frame(MessageType::kSubmitAck, m);
}

Expected<SubmitAck> decode_submit_ack(std::span<const std::uint8_t> payload) {
  return parallel::codec::decode(payload, SubmitAck{}, "submit-ack");
}

std::vector<std::uint8_t> encode_job_event(const JobEvent& m) {
  PTS_CHECK_MSG(m.anytime.size() <= kMaxAnytimeSamplesPerEvent,
                "job event exceeds the per-frame sample ceiling");
  return parallel::wire::frame(MessageType::kJobEvent, m);
}

Expected<JobEvent> decode_job_event(std::span<const std::uint8_t> payload) {
  return parallel::codec::decode(payload, JobEvent{}, "job-event");
}

std::vector<std::uint8_t> encode_job_result(const JobResultFrame& m) {
  return parallel::wire::frame(MessageType::kJobResult, m);
}

Expected<JobResultFrame> decode_job_result(std::span<const std::uint8_t> payload,
                                           const mkp::Instance& inst) {
  return parallel::codec::decode(payload, JobResultFrame{}, "job-result", &inst);
}

std::vector<std::uint8_t> encode_cancel_job(const CancelJob& m) {
  return parallel::wire::frame(MessageType::kCancelJob, m);
}

Expected<CancelJob> decode_cancel_job(std::span<const std::uint8_t> payload) {
  return parallel::codec::decode(payload, CancelJob{}, "cancel-job");
}

std::vector<std::uint8_t> encode_goodbye(const Goodbye& m) {
  return parallel::wire::frame(MessageType::kGoodbye, m);
}

Expected<Goodbye> decode_goodbye(std::span<const std::uint8_t> payload) {
  return parallel::codec::decode(payload, Goodbye{}, "goodbye");
}

}  // namespace pts::net
