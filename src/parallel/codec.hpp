#pragma once
// The byte-level codec shared by every binary format in the system: the
// socket frames of all three ranges (parallel/wire.cpp, net/protocol.cpp,
// cluster/peer_protocol.cpp), the crash-safe master snapshot
// (parallel/snapshot.cpp), the solver-service job journal
// (service/journal.cpp) and the warm-start store (service/warm_start.cpp).
//
// Writer appends little-endian scalars to a byte buffer. Reader consumes
// them with bounds checking, latching an error instead of reading past the
// end; once latched, every further read returns zero without consuming.
//
// Field lists (DESIGN.md §8). Every message and every nested value is
// described once, as a template over a visitor, in its type's namespace (so
// `fields(v, x)` resolves by argument-dependent lookup):
//
//   template <class V, codec::Of<PeerPong> M>
//   void fields(V& v, M& m) { v.u64(m.seq); v.u32(m.running_jobs); ... }
//
// V is a Writer (M const; each call appends the field) or a Reader (M
// mutable; each call reads the field into M), so the encoder and the total
// decoder are one list of calls. The annotations the decoder needs — string
// caps, count minimum byte sizes and caps, enum ranges, optionals,
// since(version), check() — are arguments of those calls; DESIGN.md §8
// tabulates them. Resolution is compile-time: no virtual call, no
// std::function, no allocation per field.

#include <bit>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/check.hpp"
#include "util/status.hpp"

namespace pts::mkp {
class Instance;
}

namespace pts::parallel::codec {

/// `M` is `T` or `const T`: one description serves the Writer (which visits
/// a const message) and the Reader (which fills a mutable one).
template <class M, class T>
concept Of = std::same_as<std::remove_const_t<M>, T>;

/// No per-frame cap beyond what the remaining input can hold.
inline constexpr std::size_t kUncapped = std::numeric_limits<std::uint32_t>::max();

/// The default element codec of seq() and optional(): the element type's own
/// field list, found by argument-dependent lookup.
struct Described {
  template <class V, class T>
  void operator()(V& v, T& value) const {
    fields(v, value);
  }
};

/// What a blank message holds in an mkp::Instance member until the decoded
/// instance overwrites it: an Instance has no empty state. (parallel/wire.cpp)
[[nodiscard]] const mkp::Instance& blank_instance();

class Writer {
 public:
  // Scalars. Scoped enums do not convert, so they must use enumeration().
  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) { raw(&v, sizeof v); }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void flag(bool b) { u8(b ? 1 : 0); }
  void str(const std::string& s, std::size_t /*max_len*/ = 0) {
    u32(static_cast<std::uint32_t>(s.size()));
    out_.insert(out_.end(), s.begin(), s.end());
  }
  void f64_span(std::span<const double> values) {
    for (const double v : values) f64(v);
  }
  void bytes(std::span<const std::uint8_t> data) {
    out_.insert(out_.end(), data.begin(), data.end());
  }

  // Field-list annotations; only the Reader enforces them.
  template <class E>
  void enumeration(E e, E /*first*/, E /*last*/) {
    u8(static_cast<std::uint8_t>(e));
  }
  template <class Range, class Fn = Described>
  void seq(const Range& items, std::size_t /*min_bytes*/,
           std::size_t /*max_count*/ = kUncapped, Fn fn = {}) {
    u32(static_cast<std::uint32_t>(items.size()));
    for (const auto& item : items) fn(*this, item);
  }
  template <class T, class Fn = Described>
  void optional(const std::optional<T>& o, Fn fn = {}) {
    flag(o.has_value());
    if (o) fn(*this, *o);
  }
  void optional_f64(const std::optional<double>& o) {
    flag(o.has_value());
    f64(o.value_or(0.0));
  }
  template <class E>
  void optional_enum(const std::optional<E>& o, E first, E last) {
    flag(o.has_value());
    enumeration(o.value_or(E{}), first, last);
  }
  /// An optional member the layout requires (no flag on the wire).
  template <class T>
  const T& required(const std::optional<T>& o) {
    PTS_CHECK_MSG(o.has_value(), "encoding a required value that is absent");
    return *o;
  }
  /// Writers always write the newest format version.
  [[nodiscard]] bool since(std::uint8_t /*version*/) const { return true; }
  void check(bool /*cond*/, const char* /*what*/) {}

  /// Overwrites a u32 already written at byte offset `at` (a size prefix
  /// whose value is only known once the fields after it are written).
  void patch_u32(std::size_t at, std::uint32_t v) {
    PTS_CHECK(at + sizeof v <= out_.size());
    std::memcpy(out_.data() + at, &v, sizeof v);
  }

  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(out_); }
  [[nodiscard]] std::size_t size() const { return out_.size(); }

 private:
  void raw(const void* p, std::size_t n) {
    const auto* data = static_cast<const std::uint8_t*>(p);
    // Little-endian host assumed (x86/ARM Linux); static_assert the premise.
    static_assert(std::endian::native == std::endian::little,
                  "binary formats are little-endian; add byte swaps for this host");
    out_.insert(out_.end(), data, data + n);
  }

  std::vector<std::uint8_t> out_;
};

/// Reads fields back. Failures latch: the first semantic rejection (or a
/// truncation) is the verdict, and every later read is a no-op.
class Reader {
 public:
  static constexpr std::uint8_t kNewest = std::numeric_limits<std::uint8_t>::max();

  /// `inst` rebuilds solutions (needed only by lists that hold one);
  /// `version` is the format version of the bytes (journal, snapshot).
  explicit Reader(std::span<const std::uint8_t> bytes,
                  const mkp::Instance* inst = nullptr,
                  std::uint8_t version = kNewest)
      : bytes_(bytes), inst_(inst), version_(version) {}

  std::uint8_t u8() { return take<std::uint8_t>(); }
  std::uint16_t u16() { return take<std::uint16_t>(); }
  std::uint32_t u32() { return take<std::uint32_t>(); }
  std::uint64_t u64() { return take<std::uint64_t>(); }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  double f64() { return std::bit_cast<double>(u64()); }

  std::string str(std::size_t max_len) {
    const auto len = u32();
    if (!ok_ || len > max_len || len > remaining()) {
      ok_ = false;
      return {};
    }
    std::string s(reinterpret_cast<const char*>(bytes_.data() + pos_), len);
    pos_ += len;
    return s;
  }

  std::vector<double> f64_vec(std::size_t count) {
    std::vector<double> v;
    if (count > remaining() / sizeof(double)) {
      ok_ = false;
      return v;
    }
    v.reserve(count);
    for (std::size_t k = 0; k < count; ++k) v.push_back(f64());
    return v;
  }

  /// Bound check for a count prefix: every element needs at least
  /// `min_element_bytes` more input, so a count beyond remaining/min is
  /// corrupt regardless of content — reject before reserving anything.
  [[nodiscard]] bool plausible_count(std::uint64_t count,
                                     std::size_t min_element_bytes) {
    if (min_element_bytes == 0) min_element_bytes = 1;
    if (count > remaining() / min_element_bytes) ok_ = false;
    return ok_;
  }

  // -- Field-list visitor: each call reads one field into its argument. An
  //    enum read through a scalar would skip its range check, so enums must
  //    use enumeration(). --

  template <class T> requires(!std::is_enum_v<T>)
  void u8(T& x) { x = static_cast<T>(u8()); }
  template <class T> requires(!std::is_enum_v<T>)
  void u32(T& x) { x = static_cast<T>(u32()); }
  template <class T> requires(!std::is_enum_v<T>)
  void u64(T& x) { x = static_cast<T>(u64()); }
  template <class T> requires(!std::is_enum_v<T>)
  void i32(T& x) { x = static_cast<T>(i32()); }
  void f64(double& x) { x = f64(); }
  void flag(bool& b) { b = u8() != 0; }
  void str(std::string& s, std::size_t max_len) { s = str(max_len); }

  template <class E>
  void enumeration(E& e, E first, E last) {
    to_enum(u8(), e, first, last);
  }
  template <class Container, class Fn = Described>
  void seq(Container& items, std::size_t min_bytes,
           std::size_t max_count = kUncapped, Fn fn = {}) {
    const auto count = u32();
    if (!ok_) return;
    if (count > max_count) return fail("element count exceeds its per-frame cap");
    if (!plausible_count(count, min_bytes)) return;
    items.clear();
    items.reserve(count);
    for (std::uint32_t k = 0; k < count && ok_; ++k) {
      items.push_back(blank<typename Container::value_type>());
      fn(*this, items.back());
    }
  }
  template <class T, class Fn = Described>
  void optional(std::optional<T>& o, Fn fn = {}) {
    const bool present = u8() != 0;
    o.reset();
    if (present && ok_) fn(*this, o.emplace(blank<T>()));
  }
  void optional_f64(std::optional<double>& o) {
    const bool present = u8() != 0;
    const double value = f64();
    o.reset();
    if (present) o = value;
  }
  /// The value byte of an absent optional is padding: read, never validated.
  template <class E>
  void optional_enum(std::optional<E>& o, E first, E last) {
    const bool present = u8() != 0;
    const auto byte = u8();
    o.reset();
    if (present) to_enum(byte, o.emplace(), first, last);
  }
  template <class T>
  T& required(std::optional<T>& o) {
    return o.emplace(blank<T>());
  }
  [[nodiscard]] bool since(std::uint8_t version) const { return version_ >= version; }
  void check(bool cond, const char* what) {
    if (!cond && ok_) fail(what);
  }

  /// Rejects the input with `status` (first failure wins).
  void fail(Status status) {
    if (status_.ok()) status_ = std::move(status);
    ok_ = false;
  }
  void fail(const char* what) {
    fail(Status::invalid_argument(std::string("codec: ") + what));
  }

  /// Verdict on an open stream (more bytes may follow).
  [[nodiscard]] Status status(const char* what) const {
    if (!status_.ok()) return status_;
    if (!ok_) return truncated(what);
    return Status{};
  }
  /// Verdict on a whole input: it must also be fully consumed.
  [[nodiscard]] Status finish(const char* what) const {
    if (!status_.ok()) return status_;
    if (!done()) return truncated(what);
    return Status{};
  }

  [[nodiscard]] const mkp::Instance& instance() const {
    PTS_CHECK_MSG(inst_ != nullptr, "decoding a solution needs an instance");
    return *inst_;
  }
  /// Decodes what follows as written at format `version`.
  void set_version(std::uint8_t version) { version_ = version; }

  [[nodiscard]] std::size_t remaining() const { return bytes_.size() - pos_; }
  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] bool done() const { return ok_ && pos_ == bytes_.size(); }

 private:
  template <typename T>
  T take() {
    if (!ok_ || remaining() < sizeof(T)) {
      ok_ = false;
      pos_ = bytes_.size();
      return T{};
    }
    T v;
    std::memcpy(&v, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  static Status truncated(const char* what) {
    return Status::invalid_argument(std::string("codec: truncated or corrupt ") +
                                    what);
  }

  template <class E>
  void to_enum(std::uint8_t byte, E& e, E first, E last) {
    if (byte >= static_cast<std::uint8_t>(first) &&
        byte <= static_cast<std::uint8_t>(last)) {
      e = static_cast<E>(byte);
    } else if (ok_) {
      fail(Status::invalid_argument("codec: enum byte " + std::to_string(byte) +
                                    " is out of range"));
    }
  }

  /// A fresh element to decode into. Solutions have no default state; they
  /// start empty over the reader's instance.
  template <class T>
  T blank() const {
    if constexpr (std::is_default_constructible_v<T>) {
      return T{};
    } else if constexpr (std::is_same_v<T, mkp::Instance>) {
      return blank_instance();
    } else {
      return T(instance());
    }
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
  bool ok_ = true;
  const mkp::Instance* inst_;
  std::uint8_t version_;
  Status status_;
};

/// Decodes all of `bytes` into `message` (a blank value) through its field
/// list. Trailing bytes are an error: decoders are exact, not prefix-tolerant.
template <class M>
Expected<M> decode(std::span<const std::uint8_t> bytes, M message,
                   const char* what, const mkp::Instance* inst = nullptr) {
  Reader r(bytes, inst);
  fields(r, message);
  if (auto status = r.finish(what); !status.ok()) return status;
  return message;
}

/// Encodes `value`'s field list into a fresh buffer (no frame header).
template <class M>
std::vector<std::uint8_t> encode(const M& value) {
  Writer w;
  fields(w, value);
  return w.take();
}

}  // namespace pts::parallel::codec
