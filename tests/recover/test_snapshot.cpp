// Snapshot format hardening: a checkpoint written by a real run must load
// back exactly, and every corruption a crash or a stray file can produce —
// truncation, flipped bytes, foreign magic, version drift, oversized length
// prefixes, a checkpoint for a different instance — must come back as a
// Status from the total decoder, never a crash or an unbounded allocation.
// The truncation and flip sweeps also run over a warm-start entry, the other
// sealed format, which must then miss.
#include "parallel/snapshot.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "mkp/generator.hpp"
#include "parallel/runner.hpp"
#include "service/warm_start.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"

namespace pts::parallel::snapshot {
namespace {

mkp::Instance test_instance() {
  return mkp::generate_gk({.num_items = 50, .num_constraints = 5}, 17);
}

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

/// Runs a short CTS2 run that checkpoints to `path`, so every test works on
/// a file the real write path produced (atomic tmp+rename, real state).
ParallelResult run_with_checkpoint(const mkp::Instance& inst,
                                   const std::string& path,
                                   std::size_t rounds = 4) {
  ParallelConfig config;
  config.mode = CooperationMode::kCooperativeAdaptive;
  config.num_slaves = 3;
  config.search_iterations = rounds;
  config.work_per_slave_round = 1'000;
  config.seed = 29;
  config.checkpoint_path = path;
  return run_parallel_tabu_search(inst, config);
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

TEST(Snapshot, RoundTripsThroughARealRun) {
  const auto inst = test_instance();
  const auto path = temp_path("snapshot_roundtrip.ckpt");
  const auto run = run_with_checkpoint(inst, path);
  ASSERT_TRUE(run.status.ok());
  EXPECT_GE(run.master.checkpoints_written, 1U);
  EXPECT_EQ(run.master.checkpoint_failures, 0U);

  auto loaded = load_checkpoint(path, inst);
  ASSERT_TRUE(loaded) << loaded.status().to_string();
  EXPECT_EQ(loaded->seed, 29U);
  EXPECT_EQ(loaded->num_slaves, 3U);
  EXPECT_TRUE(loaded->share_solutions);
  EXPECT_TRUE(loaded->adapt_strategies);
  EXPECT_EQ(loaded->next_round, 4U);
  EXPECT_EQ(loaded->rounds_completed, 4U);
  EXPECT_EQ(loaded->slaves.size(), 3U);
  EXPECT_DOUBLE_EQ(loaded->best.value(), run.best_value);
  EXPECT_EQ(loaded->best, run.best);
  EXPECT_EQ(loaded->instance_fingerprint, instance_fingerprint(inst));
  EXPECT_TRUE(check_compatible(*loaded, inst, 29, 3, true, true).ok());
  std::remove(path.c_str());
}

TEST(Snapshot, EncodeDecodeRoundTripsInMemory) {
  const auto inst = test_instance();
  const auto path = temp_path("snapshot_mem.ckpt");
  ASSERT_TRUE(run_with_checkpoint(inst, path).status.ok());
  const auto image = read_file(path);
  auto decoded = decode_checkpoint(image, inst);
  ASSERT_TRUE(decoded) << decoded.status().to_string();
  EXPECT_EQ(encode_checkpoint(*decoded), image);
  std::remove(path.c_str());
}

/// A sealed image and a judge of whether a copy of it is accepted. The
/// corruption sweeps below run over two: a checkpoint decoded in memory, and
/// a warm-start entry handed on disk to a real store, looked up under
/// kSimilar so both the exact read and the feature scan see the damage.
struct SealedInput {
  std::string name;
  std::vector<std::uint8_t> image;
  std::function<bool(const std::vector<std::uint8_t>&)> accepts;
};

std::vector<SealedInput> sealed_inputs(const std::string& tag) {
  const auto inst = std::make_shared<const mkp::Instance>(test_instance());
  const auto path = temp_path(("snapshot_" + tag + ".ckpt").c_str());
  EXPECT_TRUE(run_with_checkpoint(*inst, path).status.ok());
  const auto checkpoint = load_checkpoint(path, *inst);
  EXPECT_TRUE(checkpoint) << checkpoint.status().to_string();
  std::vector<SealedInput> inputs;
  inputs.push_back({"checkpoint", read_file(path), [inst](const auto& bytes) {
                      return decode_checkpoint(bytes, *inst).has_value();
                    }});
  std::remove(path.c_str());

  const auto dir = temp_path(("snapshot_" + tag + "_warm").c_str());
  std::filesystem::remove_all(dir);
  const auto store = std::make_shared<service::WarmStartStore>(dir);
  const auto hash = instance_hash64(*inst);
  EXPECT_TRUE(
      store->save(*inst, hash, checkpoint->best, checkpoint->slaves).ok());
  std::string entry;
  for (const auto& file : std::filesystem::directory_iterator(dir)) {
    entry = file.path().string();
  }
  inputs.push_back({"warm-start entry", read_file(entry),
                    [inst, store, hash, entry](const auto& bytes) {
                      write_file(entry, bytes);
                      return store
                          ->lookup(*inst, hash,
                                   service::WarmStartPolicy::kSimilar)
                          .has_value();
                    }});
  return inputs;
}

TEST(Snapshot, TruncatedFileIsRejectedAtEveryLength) {
  for (const auto& input : sealed_inputs("trunc")) {
    ASSERT_GT(input.image.size(), kSnapshotHeaderBytes) << input.name;
    ASSERT_TRUE(input.accepts(input.image)) << input.name;
    for (std::size_t keep = 0; keep < input.image.size(); ++keep) {
      const std::vector<std::uint8_t> cut(input.image.begin(),
                                          input.image.begin() + keep);
      EXPECT_FALSE(input.accepts(cut))
          << input.name << ": accepted a " << keep << "-byte prefix";
    }
  }
  std::filesystem::remove_all(temp_path("snapshot_trunc_warm"));
}

TEST(Snapshot, AnySingleFlippedByteIsRejected) {
  // Every byte of an image is load-bearing: magic, version, CRC, length and
  // body are each covered by a dedicated check. No flip at any position may
  // be accepted (and none may crash or over-allocate).
  Rng rng(2026);
  for (const auto& input : sealed_inputs("flip")) {
    ASSERT_TRUE(input.accepts(input.image)) << input.name;
    for (std::size_t pos = 0; pos < input.image.size(); ++pos) {
      auto fuzzed = input.image;
      fuzzed[pos] ^= static_cast<std::uint8_t>(1 + rng.index(255));
      EXPECT_FALSE(input.accepts(fuzzed))
          << input.name << ": accepted a flip at byte " << pos;
    }
  }
  std::filesystem::remove_all(temp_path("snapshot_flip_warm"));
}

TEST(Snapshot, FlippedCrcOnDiskIsRejected) {
  const auto inst = test_instance();
  const auto path = temp_path("snapshot_crc.ckpt");
  ASSERT_TRUE(run_with_checkpoint(inst, path).status.ok());
  auto image = read_file(path);
  image[5] ^= 0xFF;  // CRC field lives at offset 5 (after magic + version)
  write_file(path, image);
  const auto loaded = load_checkpoint(path, inst);
  ASSERT_FALSE(loaded);
  EXPECT_NE(loaded.status().to_string().find("CRC"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Snapshot, WrongMagicAndVersionAreRejected) {
  const auto inst = test_instance();
  const auto path = temp_path("snapshot_magic.ckpt");
  ASSERT_TRUE(run_with_checkpoint(inst, path).status.ok());
  const auto image = read_file(path);

  auto foreign = image;
  foreign[0] = 'X';
  auto magic_result = decode_checkpoint(foreign, inst);
  ASSERT_FALSE(magic_result);
  EXPECT_NE(magic_result.status().to_string().find("magic"), std::string::npos);

  auto future_version = image;
  future_version[4] = kSnapshotVersion + 1;
  auto version_result = decode_checkpoint(future_version, inst);
  ASSERT_FALSE(version_result);
  EXPECT_NE(version_result.status().to_string().find("version"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(Snapshot, OversizedLengthPrefixesAreRejectedBeforeAllocating) {
  const auto inst = test_instance();
  const auto path = temp_path("snapshot_len.ckpt");
  ASSERT_TRUE(run_with_checkpoint(inst, path).status.ok());
  const auto image = read_file(path);

  // Body-size header pumped past the ceiling: rejected by the cap check.
  auto huge = image;
  const std::uint64_t absurd = kMaxBodyBytes + 1;
  std::memcpy(huge.data() + 9, &absurd, sizeof absurd);
  auto capped = decode_checkpoint(huge, inst);
  ASSERT_FALSE(capped);
  EXPECT_NE(capped.status().to_string().find("ceiling"), std::string::npos);

  // Body-size merely wrong (claims more than the file holds): rejected by
  // the length/file-size agreement check.
  auto wrong = image;
  const std::uint64_t off_by_some = image.size();  // > actual body size
  std::memcpy(wrong.data() + 9, &off_by_some, sizeof off_by_some);
  EXPECT_FALSE(decode_checkpoint(wrong, inst));

  // Corrupt in-body counts with a RECOMPUTED CRC, so the plausible_count
  // bounds — not the checksum — must do the rejecting: splice 0xFFFFFFFF
  // over every aligned u32 in the body and re-CRC. Splices landing in fields
  // where any bit pattern is legal (rng state, aggregates) may still decode;
  // the ones hitting a count or a solution must fail, and none may crash or
  // trigger an unbounded allocation.
  std::size_t rejected = 0;
  for (std::size_t pos = kSnapshotHeaderBytes; pos + 4 <= image.size();
       pos += 4) {
    auto spliced = image;
    const std::uint32_t absurd_count = 0xFFFFFFFF;
    std::memcpy(spliced.data() + pos, &absurd_count, sizeof absurd_count);
    const std::uint32_t crc =
        crc32(std::span(spliced).subspan(kSnapshotHeaderBytes));
    std::memcpy(spliced.data() + 5, &crc, sizeof crc);
    if (!decode_checkpoint(spliced, inst)) ++rejected;
  }
  EXPECT_GT(rejected, 0U);
  std::remove(path.c_str());
}

TEST(Snapshot, CheckpointForAnotherInstanceIsForeign) {
  const auto inst = test_instance();
  const auto other = mkp::generate_gk({.num_items = 50, .num_constraints = 5}, 18);
  const auto path = temp_path("snapshot_foreign.ckpt");
  ASSERT_TRUE(run_with_checkpoint(inst, path).status.ok());
  const auto loaded = load_checkpoint(path, other);
  ASSERT_FALSE(loaded);
  EXPECT_NE(loaded.status().to_string().find("different instance"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(Snapshot, CheckCompatibleRejectsConfigDrift) {
  const auto inst = test_instance();
  const auto path = temp_path("snapshot_drift.ckpt");
  ASSERT_TRUE(run_with_checkpoint(inst, path).status.ok());
  auto cp = load_checkpoint(path, inst);
  ASSERT_TRUE(cp);
  EXPECT_TRUE(check_compatible(*cp, inst, 29, 3, true, true).ok());
  EXPECT_FALSE(check_compatible(*cp, inst, 30, 3, true, true).ok());   // seed
  EXPECT_FALSE(check_compatible(*cp, inst, 29, 4, true, true).ok());   // width
  EXPECT_FALSE(check_compatible(*cp, inst, 29, 3, false, true).ok());  // mode
  EXPECT_FALSE(check_compatible(*cp, inst, 29, 3, true, false).ok());  // mode
  std::remove(path.c_str());
}

TEST(Snapshot, MissingFileIsUnavailableNotCorrupt) {
  const auto inst = test_instance();
  const auto loaded = load_checkpoint(temp_path("no_such_checkpoint.ckpt"), inst);
  ASSERT_FALSE(loaded);
  EXPECT_EQ(loaded.status().code(), StatusCode::kUnavailable);
}

TEST(Snapshot, CoreSectionRoundTrips) {
  // The v2 body tail carries the core-reduction fixing verbatim; it must
  // survive encode → decode bit-for-bit alongside everything else.
  const auto inst = test_instance();
  const auto path = temp_path("snapshot_core.ckpt");
  ASSERT_TRUE(run_with_checkpoint(inst, path).status.ok());
  auto loaded = load_checkpoint(path, inst);
  ASSERT_TRUE(loaded);
  EXPECT_FALSE(loaded->core.engaged());  // plain run writes a disengaged tail

  MasterCheckpoint with_core = *loaded;
  with_core.core.full_instance_fingerprint = 0xDEADBEEFu;
  with_core.core.status = {bounds::FixedValue::kZero, bounds::FixedValue::kFree,
                           bounds::FixedValue::kOne, bounds::FixedValue::kOne,
                           bounds::FixedValue::kFree};
  const auto image = encode_checkpoint(with_core);
  auto decoded = decode_checkpoint(image, inst);
  ASSERT_TRUE(decoded) << decoded.status().to_string();
  EXPECT_TRUE(decoded->core.engaged());
  EXPECT_EQ(decoded->core, with_core.core);
  EXPECT_EQ(decoded->best, with_core.best);
  std::remove(path.c_str());
}

TEST(Snapshot, V1ImageStillDecodes) {
  // Forward compatibility promise: a checkpoint written by the previous
  // format version (no core tail at all) must load with a disengaged core
  // section, not be rejected as corrupt.
  const auto inst = test_instance();
  const auto path = temp_path("snapshot_v1.ckpt");
  ASSERT_TRUE(run_with_checkpoint(inst, path).status.ok());
  auto image = read_file(path);
  ASSERT_GT(image.size(), kSnapshotHeaderBytes + 1);

  // A disengaged v2 body is exactly the v1 body plus one engaged=0 byte:
  // strip it, stamp version 1, and re-seal the CRC and length fields.
  image.pop_back();
  image[4] = 1;  // version byte (after the 4-byte magic)
  const std::span<const std::uint8_t> body(image.data() + kSnapshotHeaderBytes,
                                           image.size() - kSnapshotHeaderBytes);
  const std::uint32_t crc = crc32(body);
  const std::uint64_t size = body.size();
  std::memcpy(image.data() + 5, &crc, sizeof(crc));
  std::memcpy(image.data() + 9, &size, sizeof(size));

  auto decoded = decode_checkpoint(image, inst);
  ASSERT_TRUE(decoded) << decoded.status().to_string();
  EXPECT_FALSE(decoded->core.engaged());
  EXPECT_EQ(decoded->next_round, 4U);
  std::remove(path.c_str());
}

TEST(Snapshot, EngagedFlagWithEmptyStatusIsCorrupt) {
  // engaged=1 followed by a zero-length status vector is self-contradictory
  // — engaged() is defined by non-emptiness — so the decoder rejects it
  // rather than materialising a lying section.
  const auto inst = test_instance();
  const auto path = temp_path("snapshot_core_lie.ckpt");
  ASSERT_TRUE(run_with_checkpoint(inst, path).status.ok());
  auto image = read_file(path);
  // Replace the trailing engaged=0 byte with engaged=1 + fingerprint + count=0.
  image.pop_back();
  image.push_back(1);
  for (int k = 0; k < 8; ++k) image.push_back(0);  // fingerprint u32 + count u32
  const std::span<const std::uint8_t> body(image.data() + kSnapshotHeaderBytes,
                                           image.size() - kSnapshotHeaderBytes);
  const std::uint32_t crc = crc32(body);
  const std::uint64_t size = body.size();
  std::memcpy(image.data() + 5, &crc, sizeof(crc));
  std::memcpy(image.data() + 9, &size, sizeof(size));

  const auto decoded = decode_checkpoint(image, inst);
  ASSERT_FALSE(decoded);
  EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pts::parallel::snapshot
