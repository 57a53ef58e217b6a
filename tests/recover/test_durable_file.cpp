// The durable-file module every on-disk format goes through: the read
// ceiling holds before a byte is read, replace() leaves the old file or the
// new one and no tmp, the replaced file stays open for appends, and the
// sealed container rejects each damaged header field with the owner's
// prefix. The formats' own suites cover their bodies.
#include "parallel/durable_file.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "read_accounting.hpp"

namespace pts::parallel::durable {
namespace {

namespace fs = std::filesystem;
using Bytes = std::vector<std::uint8_t>;

constexpr Format kFormat{"test", "test file", {'T', 'E', 'S', 'T'}, 2, 3};

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

Bytes read_back(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const Bytes& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

bool starts_with(const Status& status, const std::string& prefix) {
  return status.message().rfind(prefix, 0) == 0;
}

TEST(DurableFile, ReadRefusesAFileOverItsCeilingBeforeReadingIt) {
  const auto path = temp_path("durable_ceiling.bin");
  write_file(path, Bytes(64, 0xAB));
  const auto under = read(kFormat, path, 63);
  ASSERT_FALSE(under);
  EXPECT_EQ(under.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(starts_with(under.status(), "test: file exceeds the test file "
                                          "ceiling"))
      << under.status().to_string();
  const auto at = read(kFormat, path, 64);
  ASSERT_TRUE(at) << at.status().to_string();
  EXPECT_EQ(*at, Bytes(64, 0xAB));

  // A sparse file one byte over the sealed ceiling: refused by its size, so
  // none of its 256 MiB is read.
  fs::resize_file(path, kMaxSealedFileBytes + 1);
  const auto before = bytes_read_so_far();
  EXPECT_FALSE(read(kFormat, path, kMaxSealedFileBytes));
  if (const auto after = bytes_read_so_far(); before && after) {
    EXPECT_LT(*after - *before, 1u << 20);
  }
  std::remove(path.c_str());
}

TEST(DurableFile, MissingFileIsUnavailableAndHeadReadsStopAtTheLimit) {
  const auto missing = read(kFormat, temp_path("durable_missing.bin"), 10);
  ASSERT_FALSE(missing);
  EXPECT_EQ(missing.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(starts_with(missing.status(), "test: no test file at "));

  const auto path = temp_path("durable_head.bin");
  Bytes bytes(100);
  for (std::size_t k = 0; k < bytes.size(); ++k) {
    bytes[k] = static_cast<std::uint8_t>(k);
  }
  write_file(path, bytes);
  const auto head = read_head(kFormat, path, 10);
  ASSERT_TRUE(head);
  EXPECT_EQ(*head, Bytes(bytes.begin(), bytes.begin() + 10));
  const auto whole = read_head(kFormat, path, 1000);
  ASSERT_TRUE(whole);
  EXPECT_EQ(*whole, bytes);
  std::remove(path.c_str());
}

TEST(DurableFile, ReplaceLeavesNoTmpAndKeepsTheNewFileOpenForAppends) {
  const auto path = temp_path("durable_replace.bin");
  const auto tmp = path + ".tmp";
  write_file(path, Bytes{1, 2, 3});
  auto file = replace(kFormat, path, tmp, Bytes{4, 5});
  ASSERT_TRUE(file) << file.status().to_string();
  EXPECT_FALSE(fs::exists(tmp));
  EXPECT_EQ(read_back(path), (Bytes{4, 5}));
  ASSERT_TRUE((*file)->append(Bytes{6}).ok());
  EXPECT_EQ(read_back(path), (Bytes{4, 5, 6}));
  std::remove(path.c_str());
}

TEST(DurableFile, FailedReplaceKeepsTheOldFileAndRemovesTheTmp) {
  // A directory in the target's place: the rename fails after the tmp was
  // written and synced.
  const auto path = temp_path("durable_replace_dir");
  const auto tmp = path + ".tmp";
  fs::remove_all(path);
  fs::create_directories(path + "/occupied");
  const auto file = replace(kFormat, path, tmp, Bytes{7});
  ASSERT_FALSE(file);
  EXPECT_EQ(file.status().code(), StatusCode::kInternal);
  EXPECT_TRUE(starts_with(file.status(), "test: rename " + tmp + " -> " + path))
      << file.status().to_string();
  EXPECT_FALSE(fs::exists(tmp));
  EXPECT_TRUE(fs::is_directory(path + "/occupied"));
  fs::remove_all(path);

  EXPECT_NE(unique_tmp_path(path, 0), unique_tmp_path(path, 1));
  EXPECT_EQ(unique_tmp_path(path, 0).rfind(path + ".tmp.", 0), 0U);
}

TEST(DurableFile, SealRejectsEachDamagedHeaderFieldWithTheOwnersPrefix) {
  const Bytes body{10, 20, 30, 40};
  const auto image = seal(kFormat, body);
  ASSERT_EQ(image.size(), kSealHeaderBytes + body.size());
  const auto sealed = unseal(kFormat, image);
  ASSERT_TRUE(sealed) << sealed.status().to_string();
  EXPECT_EQ(sealed->version, 3);
  EXPECT_EQ(Bytes(sealed->body.begin(), sealed->body.end()), body);

  const auto rejects = [](Bytes damaged, const char* what) {
    const auto result = unseal(kFormat, damaged);
    ASSERT_FALSE(result) << what;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << what;
    EXPECT_TRUE(starts_with(result.status(), std::string("test: ") + what))
        << result.status().to_string();
  };
  auto magic = image;
  magic[0] = 'X';
  rejects(magic, "bad magic");
  auto old_version = image;
  old_version[4] = 1;
  rejects(old_version, "unsupported version 1 (accepted 2..3)");
  auto crc = image;
  crc[5] ^= 0xFF;
  rejects(crc, "CRC mismatch");
  auto length = image;
  length[9] += 1;
  rejects(length, "truncated or corrupt body");
  auto huge = image;
  huge[16] = 0x01;  // length's top byte: far past the ceiling
  rejects(huge, "body length");
  rejects(Bytes(image.begin(), image.begin() + kSealHeaderBytes - 1),
          "truncated or corrupt header");

  // The head check skips length and CRC: the scan's cheap first pass.
  const auto head = unseal_head(kFormat, crc);
  ASSERT_TRUE(head);
  EXPECT_EQ(head->length, body.size());
  EXPECT_FALSE(unseal_head(kFormat, magic));
}

}  // namespace
}  // namespace pts::parallel::durable
