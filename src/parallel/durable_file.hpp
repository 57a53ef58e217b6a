#pragma once
// Durable files (DESIGN.md §9 "Durable files"): the one module through which
// the on-disk formats — master checkpoints (PTSC), warm-start entries (PTSW)
// and the job journal (PTSJ) — touch the file system. Each format keeps only
// its body and its record framing. read() refuses a file over its ceiling by
// size before reading a byte; a Source reads one piece at a time; replace()
// is tmp + fsync + rename + directory fsync; seal()/unseal() are the
// CRC-guarded container PTSC and PTSW share.
// Every failure is a Status whose message starts with the format's owner.

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/status.hpp"

namespace pts::parallel::durable {

/// One on-disk format: who owns it (message prefix and noun), its magic and
/// the version range its reader accepts.
struct Format {
  const char* owner;  ///< "snapshot", "journal", "warm-start store"
  const char* noun;   ///< what one file is: "checkpoint", "job journal", ...
  std::array<std::uint8_t, 4> magic;
  std::uint8_t min_version;
  std::uint8_t version;  ///< written by tag() and seal(); newest accepted
};

/// magic + version: the journal's file header and the seal's first bytes.
inline constexpr std::size_t kTagBytes = 5;
/// tag | u32 crc32(body) | u64 body length.
inline constexpr std::size_t kSealHeaderBytes = 17;
/// Ceiling on one sealed body, mirroring wire::kMaxPayloadBytes: a corrupt
/// length must be rejected before any allocation happens.
inline constexpr std::uint64_t kMaxBodyBytes = 256ull << 20;
inline constexpr std::uint64_t kMaxSealedFileBytes =
    kSealHeaderBytes + kMaxBodyBytes;

[[nodiscard]] std::vector<std::uint8_t> tag(const Format& format);
/// Checks the tag at the head of `bytes`; returns its version.
[[nodiscard]] Expected<std::uint8_t> check_tag(
    const Format& format, std::span<const std::uint8_t> bytes);

/// `body` sealed at `format.version`.
[[nodiscard]] std::vector<std::uint8_t> seal(
    const Format& format, std::span<const std::uint8_t> body);

struct Sealed {
  std::uint8_t version = 0;
  std::uint32_t crc = 0;
  std::uint64_t length = 0;
  std::span<const std::uint8_t> body;  ///< points into the image
};

/// Header checks alone (tag, body ceiling) over the first bytes of an image:
/// `body` is whatever follows in `head`, neither length- nor CRC-checked.
[[nodiscard]] Expected<Sealed> unseal_head(const Format& format,
                                           std::span<const std::uint8_t> head);
/// Total check of a whole image: the header, then length and CRC.
[[nodiscard]] Expected<Sealed> unseal(const Format& format,
                                      std::span<const std::uint8_t> image);

/// A file open for reading from its start; closes on destruction. The
/// journal reads its records through one, so it never holds more than one.
class Source {
 public:
  /// Owns `fd`; `size` is the file's size when it was opened.
  Source(int fd, const char* owner, std::string path, std::uint64_t size)
      : fd_(fd), owner_(owner), path_(std::move(path)), size_(size) {}
  Source(const Source&) = delete;
  Source& operator=(const Source&) = delete;
  ~Source();

  [[nodiscard]] std::uint64_t size() const { return size_; }
  /// The next `n` bytes of the file; fewer only at its end.
  [[nodiscard]] Expected<std::vector<std::uint8_t>> next(std::uint64_t n);

 private:
  int fd_;
  const char* owner_;
  std::string path_;  ///< named in error messages
  std::uint64_t size_;
};

/// Opens `path` for reading. A missing file is kUnavailable ("<owner>: no
/// <noun> at <path>"); I/O failures are kInternal.
[[nodiscard]] Expected<std::unique_ptr<Source>> open(const Format& format,
                                                     const std::string& path);

/// Reads all of `path`. A file over `max_bytes` is rejected by its size
/// before any byte is read (kInvalidArgument); otherwise as open().
[[nodiscard]] Expected<std::vector<std::uint8_t>> read(
    const Format& format, const std::string& path, std::uint64_t max_bytes);
/// Reads at most `limit` bytes from the head of `path`.
[[nodiscard]] Expected<std::vector<std::uint8_t>> read_head(
    const Format& format, const std::string& path, std::size_t limit);

/// A file open for writing; closes on destruction.
class File {
 public:
  /// Owns `fd`.
  File(int fd, const char* owner, std::string path)
      : fd_(fd), owner_(owner), path_(std::move(path)) {}
  File(const File&) = delete;
  File& operator=(const File&) = delete;
  ~File();

  /// One write of all of `bytes` (resumed only across short writes), then
  /// fsync: a crash tears at most these bytes, never earlier ones.
  [[nodiscard]] Status append(std::span<const std::uint8_t> bytes);

 private:
  friend Expected<std::unique_ptr<File>> replace(
      const Format&, const std::string&, const std::string&,
      std::span<const std::uint8_t>);

  int fd_;
  const char* owner_;
  std::string path_;  ///< named in error messages
};

/// Creates or truncates `path` for writing.
[[nodiscard]] Expected<std::unique_ptr<File>> create(const Format& format,
                                                     const std::string& path);

/// Writes `image` to `tmp`, fsyncs it, renames it over `path` and fsyncs the
/// directory, so a crash leaves the old file or the new one, never a torn
/// one. The new file stays open at its end for a caller that goes on
/// appending (journal compaction); others drop it.
[[nodiscard]] Expected<std::unique_ptr<File>> replace(
    const Format& format, const std::string& path, const std::string& tmp,
    std::span<const std::uint8_t> image);

/// `path.tmp.<pid>.<seq>`: a tmp name no other writer shares, for files that
/// several threads (distinct `seq`) or processes (the pid) may replace.
[[nodiscard]] std::string unique_tmp_path(const std::string& path,
                                          std::uint64_t seq);

}  // namespace pts::parallel::durable
