#include "parallel/snapshot.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "parallel/codec.hpp"
#include "parallel/wire.hpp"
#include "util/crc32.hpp"

namespace pts::parallel::snapshot {

namespace {

using codec::Reader;
using codec::Writer;

constexpr std::uint8_t kMagic[4] = {'P', 'T', 'S', 'C'};

Status corrupt(const char* what) {
  return Status::invalid_argument(std::string("snapshot: truncated or corrupt ") +
                                  what);
}

}  // namespace

// -- Field lists of the checkpoint body. A v1 body ends before the core
//    section. --

template <class V, codec::Of<SlaveState> M>
void fields(V& v, M& s) {
  fields(v, s.strategy);
  v.i32(s.score);
  v.optional(s.initial);
  v.seq(s.b_best, wire::solution_min_bytes(v));
  v.u64(s.rounds_unchanged);
  v.u64(s.moves_before_round);
  v.u64(s.consecutive_faults);
  v.flag(s.active);
}

template <class V, codec::Of<CoreSection> M>
void fields(V& v, M& core) {
  // A disengaged run writes the single 0 flag byte.
  bool engaged = core.engaged();
  v.flag(engaged);
  if (!engaged) return;
  v.u32(core.full_instance_fingerprint);
  v.seq(core.status, /*min_bytes=*/1);
  // engaged() is defined by non-emptiness: an engaged-but-empty section is
  // self-contradictory.
  v.check(!core.status.empty(), "snapshot core section is engaged but empty");
}

/// The identity block, decoded (and checked against the instance) before any
/// solution bits are trusted.
template <class V, codec::Of<MasterCheckpoint> M>
void identity_fields(V& v, M& cp) {
  v.u32(cp.instance_fingerprint);
  v.u64(cp.seed);
  v.u32(cp.num_slaves);
  v.flag(cp.share_solutions);
  v.flag(cp.adapt_strategies);
  v.u64(cp.next_round);
}

template <class V, codec::Of<MasterCheckpoint> M>
void state_fields(V& v, M& cp) {
  fields(v, cp.best);
  for (auto& word : cp.master_rng_state) v.u64(word);
  // Each slave record costs at least strategy + score + flags.
  v.seq(cp.slaves, /*min_bytes=*/4 * 8 + 4);
  v.check(cp.slaves.size() == cp.num_slaves,
          "snapshot slave table count disagrees with its header");
  v.u64(cp.total_moves);
  v.f64(cp.elapsed_seconds);
  v.u64(cp.rounds_completed);
  v.u64(cp.strategy_retunes);
  v.u64(cp.global_best_injections);
  v.u64(cp.random_restarts);
  v.u64(cp.relink_improvements);
  v.u64(cp.slave_faults);
  v.u64(cp.slave_respawns);
  if (v.since(2)) fields(v, cp.core);
}

namespace {

std::vector<std::uint8_t> encode_body(const MasterCheckpoint& cp) {
  Writer w;
  identity_fields(w, cp);
  state_fields(w, cp);
  return w.take();
}

Expected<MasterCheckpoint> decode_body(std::span<const std::uint8_t> body,
                                       std::uint8_t version,
                                       const mkp::Instance& inst) {
  Reader r(body, &inst, version);
  MasterCheckpoint cp(inst);
  identity_fields(r, cp);
  if (!r.ok()) return corrupt("checkpoint header fields");
  // Reject a foreign file before trusting any solution bits against `inst` —
  // a checkpoint of another instance would otherwise fail with a confusing
  // item-count or value-mismatch error deep inside the solution codec.
  if (cp.instance_fingerprint != instance_fingerprint(inst)) {
    return Status::invalid_argument(
        "snapshot: checkpoint was written for a different instance "
        "(fingerprint mismatch)");
  }
  state_fields(r, cp);
  if (auto status = r.finish("checkpoint body"); !status.ok()) return status;
  return cp;
}

/// write(2) until done; short writes happen on signals even for regular files.
bool write_all(int fd, std::span<const std::uint8_t> bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const auto n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

Status io_error(const std::string& what) {
  return Status::internal("snapshot: " + what + ": " + std::strerror(errno));
}

}  // namespace

std::uint32_t instance_fingerprint(const mkp::Instance& inst) {
  Writer w;
  wire::put_instance(w, inst);
  const auto bytes = w.take();
  return crc32(bytes);
}

std::uint64_t instance_hash64(const mkp::Instance& inst) {
  Writer w;
  wire::put_instance(w, inst);
  const auto bytes = w.take();
  // FNV-1a 64: tiny, stable across platforms, and strong enough for a
  // byte-verified content index.
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::vector<std::uint8_t> encode_checkpoint(const MasterCheckpoint& checkpoint) {
  const auto body = encode_body(checkpoint);
  Writer header;
  for (const auto b : kMagic) header.u8(b);
  header.u8(kSnapshotVersion);
  header.u32(crc32(body));
  header.u64(body.size());
  auto out = header.take();
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

Expected<MasterCheckpoint> decode_checkpoint(std::span<const std::uint8_t> bytes,
                                             const mkp::Instance& inst) {
  if (bytes.size() < kSnapshotHeaderBytes) {
    return corrupt("header (file too short)");
  }
  Reader r(bytes.first(kSnapshotHeaderBytes));
  std::uint8_t magic[4];
  for (auto& b : magic) b = r.u8();
  const auto version = r.u8();
  const auto crc = r.u32();
  const auto body_size = r.u64();
  if (std::memcmp(magic, kMagic, 4) != 0) {
    return Status::invalid_argument("snapshot: bad magic (not a checkpoint file)");
  }
  if (version < kSnapshotMinVersion || version > kSnapshotVersion) {
    return Status::invalid_argument(
        "snapshot: unsupported version " + std::to_string(version) +
        " (accepted " + std::to_string(kSnapshotMinVersion) + ".." +
        std::to_string(kSnapshotVersion) + ")");
  }
  if (body_size > kMaxBodyBytes) {
    return Status::invalid_argument("snapshot: body length " +
                                    std::to_string(body_size) +
                                    " exceeds the checkpoint ceiling");
  }
  if (body_size != bytes.size() - kSnapshotHeaderBytes) {
    return corrupt("body (length prefix disagrees with file size)");
  }
  const auto body = bytes.subspan(kSnapshotHeaderBytes);
  if (crc32(body) != crc) {
    return Status::invalid_argument("snapshot: CRC mismatch (corrupt checkpoint)");
  }
  return decode_body(body, version, inst);
}

Status save_checkpoint(const std::string& path,
                       const MasterCheckpoint& checkpoint) {
  if (path.empty()) {
    return Status::invalid_argument("snapshot: empty checkpoint path");
  }
  const auto image = encode_checkpoint(checkpoint);
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return io_error("open " + tmp);
  if (!write_all(fd, image)) {
    const auto status = io_error("write " + tmp);
    ::close(fd);
    ::unlink(tmp.c_str());
    return status;
  }
  // fsync before rename: the rename must never become visible while the data
  // behind it is still only in the page cache — that ordering is the whole
  // crash-safety argument.
  if (::fsync(fd) != 0) {
    const auto status = io_error("fsync " + tmp);
    ::close(fd);
    ::unlink(tmp.c_str());
    return status;
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const auto status = io_error("rename " + tmp + " -> " + path);
    ::unlink(tmp.c_str());
    return status;
  }
  // Persist the rename itself. Failure here is not fatal to correctness of
  // the file contents (the data is synced), so report success but still try.
  const auto dir = std::filesystem::path(path).parent_path();
  const std::string dir_path = dir.empty() ? "." : dir.string();
  const int dir_fd = ::open(dir_path.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);
    ::close(dir_fd);
  }
  return Status{};
}

Expected<MasterCheckpoint> load_checkpoint(const std::string& path,
                                           const mkp::Instance& inst) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) {
      return Status::unavailable("snapshot: no checkpoint at " + path);
    }
    return io_error("open " + path);
  }
  std::vector<std::uint8_t> bytes;
  std::uint8_t buf[1 << 16];
  for (;;) {
    const auto n = ::read(fd, buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) continue;
      const auto status = io_error("read " + path);
      ::close(fd);
      return status;
    }
    if (n == 0) break;
    bytes.insert(bytes.end(), buf, buf + n);
    if (bytes.size() > kMaxBodyBytes + kSnapshotHeaderBytes) {
      ::close(fd);
      return Status::invalid_argument(
          "snapshot: file exceeds the checkpoint ceiling");
    }
  }
  ::close(fd);
  return decode_checkpoint(bytes, inst);
}

Status check_compatible(const MasterCheckpoint& checkpoint,
                        const mkp::Instance& inst, std::uint64_t seed,
                        std::size_t num_slaves, bool share_solutions,
                        bool adapt_strategies) {
  if (checkpoint.instance_fingerprint != instance_fingerprint(inst)) {
    return Status::invalid_argument(
        "snapshot: checkpoint was written for a different instance");
  }
  if (checkpoint.seed != seed) {
    return Status::invalid_argument(
        "snapshot: checkpoint seed " + std::to_string(checkpoint.seed) +
        " does not match configured seed " + std::to_string(seed));
  }
  if (checkpoint.num_slaves != num_slaves) {
    return Status::invalid_argument(
        "snapshot: checkpoint has " + std::to_string(checkpoint.num_slaves) +
        " slaves but the run is configured for " + std::to_string(num_slaves));
  }
  if (checkpoint.share_solutions != share_solutions ||
      checkpoint.adapt_strategies != adapt_strategies) {
    return Status::invalid_argument(
        "snapshot: checkpoint cooperation mode does not match the configured "
        "mode");
  }
  return Status{};
}

}  // namespace pts::parallel::snapshot
