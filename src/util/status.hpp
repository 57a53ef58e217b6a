#pragma once
// Structured error reporting for the library's outward-facing entry points.
//
// PTS_CHECK stays the right tool for internal invariants — a broken invariant
// means the library itself is wrong and recovery is meaningless. But "the
// caller passed an unknown preset name" or "the job's deadline passed" are
// not bugs; a service serving many callers must hand them back as values, not
// abort the process. Status carries a coarse code plus a human-readable
// message; Expected<T> is the result-or-error sum type the outward-facing
// APIs (the solver service, the codecs, the durable files) return.

#include <cstdint>
#include <string>
#include <utility>
#include <variant>

#include "util/check.hpp"

namespace pts {

/// Coarse error taxonomy, deliberately aligned with the canonical RPC codes
/// so a future network front-end can map them 1:1.
enum class StatusCode : std::uint8_t {
  kOk = 0,
  kInvalidArgument,    ///< the request itself is malformed (unknown preset...)
  kCancelled,          ///< cancelled by the caller before completion
  kDeadlineExceeded,   ///< the job's wall-clock deadline passed
  kResourceExhausted,  ///< rejected by backpressure (queue full / shed)
  kUnavailable,        ///< the service is shutting down
  kInternal,           ///< an unexpected failure inside the solver
};

[[nodiscard]] constexpr const char* to_string(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kInvalidArgument: return "INVALID_ARGUMENT";
    case StatusCode::kCancelled: return "CANCELLED";
    case StatusCode::kDeadlineExceeded: return "DEADLINE_EXCEEDED";
    case StatusCode::kResourceExhausted: return "RESOURCE_EXHAUSTED";
    case StatusCode::kUnavailable: return "UNAVAILABLE";
    case StatusCode::kInternal: return "INTERNAL";
  }
  return "?";
}

/// A code plus a message. Default-constructed Status is OK.
class Status {
 public:
  Status() = default;
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status invalid_argument(std::string msg) {
    return {StatusCode::kInvalidArgument, std::move(msg)};
  }
  static Status cancelled(std::string msg) {
    return {StatusCode::kCancelled, std::move(msg)};
  }
  static Status deadline_exceeded(std::string msg) {
    return {StatusCode::kDeadlineExceeded, std::move(msg)};
  }
  static Status resource_exhausted(std::string msg) {
    return {StatusCode::kResourceExhausted, std::move(msg)};
  }
  static Status unavailable(std::string msg) {
    return {StatusCode::kUnavailable, std::move(msg)};
  }
  static Status internal(std::string msg) {
    return {StatusCode::kInternal, std::move(msg)};
  }

  [[nodiscard]] bool ok() const { return code_ == StatusCode::kOk; }
  [[nodiscard]] StatusCode code() const { return code_; }
  [[nodiscard]] const std::string& message() const { return message_; }

  /// "DEADLINE_EXCEEDED: job deadline passed after 0.30s" — what examples
  /// and logs print.
  [[nodiscard]] std::string to_string() const {
    std::string out = pts::to_string(code_);
    if (!message_.empty()) {
      out += ": ";
      out += message_;
    }
    return out;
  }

  bool operator==(const Status& other) const = default;

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// Result-or-error: holds either a T or a non-OK Status — never both, never
/// neither. Construction from a value or from an error Status is implicit so
/// `return Status::invalid_argument(...)` and `return summary;` both read
/// naturally at return sites.
template <typename T>
class Expected {
 public:
  // NOLINTNEXTLINE(google-explicit-constructor): sum-type by design.
  Expected(T value) : data_(std::in_place_index<0>, std::move(value)) {}
  // NOLINTNEXTLINE(google-explicit-constructor)
  Expected(Status status) : data_(std::in_place_index<1>, std::move(status)) {
    PTS_CHECK_MSG(!std::get<1>(data_).ok(),
                  "an OK Status carries no value; construct Expected from a T");
  }

  [[nodiscard]] bool has_value() const { return data_.index() == 0; }
  explicit operator bool() const { return has_value(); }

  /// The error (or OK when a value is held) — safe to call either way.
  [[nodiscard]] const Status& status() const {
    static const Status kOk{};
    return has_value() ? kOk : std::get<1>(data_);
  }

  [[nodiscard]] T& value() & {
    PTS_CHECK_MSG(has_value(), "Expected::value() on an error");
    return std::get<0>(data_);
  }
  [[nodiscard]] const T& value() const& {
    PTS_CHECK_MSG(has_value(), "Expected::value() on an error");
    return std::get<0>(data_);
  }
  [[nodiscard]] T&& value() && {
    PTS_CHECK_MSG(has_value(), "Expected::value() on an error");
    return std::get<0>(std::move(data_));
  }

  [[nodiscard]] T& operator*() & { return value(); }
  [[nodiscard]] const T& operator*() const& { return value(); }
  [[nodiscard]] T* operator->() { return &value(); }
  [[nodiscard]] const T* operator->() const { return &value(); }

  [[nodiscard]] T value_or(T fallback) const& {
    return has_value() ? std::get<0>(data_) : std::move(fallback);
  }

 private:
  std::variant<T, Status> data_;
};

}  // namespace pts
