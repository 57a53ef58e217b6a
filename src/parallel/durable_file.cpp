#include "parallel/durable_file.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>

#include "parallel/codec.hpp"
#include "util/crc32.hpp"

namespace pts::parallel::durable {

namespace {

Status invalid(const Format& format, const std::string& what) {
  return Status::invalid_argument(std::string(format.owner) + ": " + what);
}

Status io_error(const char* owner, const std::string& what) {
  return Status::internal(std::string(owner) + ": " + what + ": " +
                          std::strerror(errno));
}

Status too_large(const Format& format) {
  return invalid(format,
                 std::string("file exceeds the ") + format.noun + " ceiling");
}

}  // namespace

std::vector<std::uint8_t> tag(const Format& format) {
  std::vector<std::uint8_t> out(format.magic.begin(), format.magic.end());
  out.push_back(format.version);
  return out;
}

Expected<std::uint8_t> check_tag(const Format& format,
                                 std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kTagBytes ||
      !std::equal(format.magic.begin(), format.magic.end(), bytes.begin())) {
    return invalid(format, std::string("bad magic (not a ") + format.noun +
                               " file)");
  }
  const std::uint8_t version = bytes[4];
  if (version < format.min_version || version > format.version) {
    return invalid(format, "unsupported version " + std::to_string(version) +
                               " (accepted " +
                               std::to_string(format.min_version) + ".." +
                               std::to_string(format.version) + ")");
  }
  return version;
}

std::vector<std::uint8_t> seal(const Format& format,
                               std::span<const std::uint8_t> body) {
  codec::Writer w;
  w.bytes(tag(format));
  w.u32(crc32(body));
  w.u64(body.size());
  w.bytes(body);
  return w.take();
}

Expected<Sealed> unseal_head(const Format& format,
                             std::span<const std::uint8_t> head) {
  if (head.size() < kSealHeaderBytes) {
    return invalid(format, "truncated or corrupt header (file too short)");
  }
  auto version = check_tag(format, head);
  if (!version) return version.status();
  codec::Reader r(head.subspan(kTagBytes));
  const auto crc = r.u32();
  const auto length = r.u64();
  if (length > kMaxBodyBytes) {
    return invalid(format, "body length " + std::to_string(length) +
                               " exceeds the " + format.noun + " ceiling");
  }
  return Sealed{*version, crc, length, head.subspan(kSealHeaderBytes)};
}

Expected<Sealed> unseal(const Format& format,
                        std::span<const std::uint8_t> image) {
  auto sealed = unseal_head(format, image);
  if (!sealed) return sealed;
  if (sealed->length != sealed->body.size()) {
    return invalid(format,
                   "truncated or corrupt body (length prefix disagrees with "
                   "file size)");
  }
  if (crc32(sealed->body) != sealed->crc) {
    return invalid(format,
                   std::string("CRC mismatch (corrupt ") + format.noun + ")");
  }
  return sealed;
}

Source::~Source() { ::close(fd_); }

Expected<std::vector<std::uint8_t>> Source::next(std::uint64_t n) {
  std::vector<std::uint8_t> bytes;
  std::uint8_t buf[1 << 16];
  while (bytes.size() < n) {
    const auto got = ::read(
        fd_, buf, std::min<std::uint64_t>(sizeof buf, n - bytes.size()));
    if (got < 0 && errno == EINTR) continue;
    if (got < 0) return io_error(owner_, "read " + path_);
    if (got == 0) break;
    bytes.insert(bytes.end(), buf, buf + got);
  }
  return bytes;
}

Expected<std::unique_ptr<Source>> open(const Format& format,
                                       const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0 && errno == ENOENT) {
    return Status::unavailable(std::string(format.owner) + ": no " +
                               format.noun + " at " + path);
  }
  if (fd < 0) return io_error(format.owner, "open " + path);
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    const auto status = io_error(format.owner, "stat " + path);
    ::close(fd);
    return status;
  }
  return std::make_unique<Source>(fd, format.owner, path,
                                  static_cast<std::uint64_t>(st.st_size));
}

Expected<std::vector<std::uint8_t>> read(const Format& format,
                                         const std::string& path,
                                         std::uint64_t max_bytes) {
  auto source = open(format, path);
  if (!source) return source.status();
  if ((*source)->size() > max_bytes) return too_large(format);
  // One byte past the ceiling, so a file that grew since its size was
  // checked is refused too rather than cut short.
  auto bytes = (*source)->next(max_bytes + 1);
  if (bytes && bytes->size() > max_bytes) return too_large(format);
  return bytes;
}

Expected<std::vector<std::uint8_t>> read_head(const Format& format,
                                              const std::string& path,
                                              std::size_t limit) {
  auto source = open(format, path);
  if (!source) return source.status();
  return (*source)->next(limit);
}

File::~File() { ::close(fd_); }

Status File::append(std::span<const std::uint8_t> bytes) {
  // write(2) until done: short writes happen on signals even for regular
  // files.
  for (std::size_t off = 0; off < bytes.size();) {
    const auto n = ::write(fd_, bytes.data() + off, bytes.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return io_error(owner_, "write " + path_);
    off += static_cast<std::size_t>(n);
  }
  if (::fsync(fd_) != 0) return io_error(owner_, "fsync " + path_);
  return Status{};
}

Expected<std::unique_ptr<File>> create(const Format& format,
                                       const std::string& path) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return io_error(format.owner, "open " + path);
  return std::make_unique<File>(fd, format.owner, path);
}

Expected<std::unique_ptr<File>> replace(const Format& format,
                                        const std::string& path,
                                        const std::string& tmp,
                                        std::span<const std::uint8_t> image) {
  auto file = create(format, tmp);
  if (!file) return file;
  // fsync before rename: the rename must never become visible while the data
  // behind it is still only in the page cache — that ordering is the whole
  // crash-safety argument.
  if (auto status = (*file)->append(image); !status.ok()) {
    ::unlink(tmp.c_str());
    return status;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const auto status = io_error(format.owner, "rename " + tmp + " -> " + path);
    ::unlink(tmp.c_str());
    return status;
  }
  (*file)->path_ = path;  // the fd names the renamed inode
  // Persist the rename itself. The data is already synced, so a failure here
  // only delays durability of the directory entry: still success.
  const auto dir = std::filesystem::path(path).parent_path();
  const int dir_fd =
      ::open(dir.empty() ? "." : dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);
    ::close(dir_fd);
  }
  return file;
}

std::string unique_tmp_path(const std::string& path, std::uint64_t seq) {
  return path + ".tmp." + std::to_string(static_cast<long long>(::getpid())) +
         "." + std::to_string(seq);
}

}  // namespace pts::parallel::durable
