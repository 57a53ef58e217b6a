// The warm-start store on disk: an entry over the size ceiling misses and
// is replaced without being read, a weaker run never clobbers a stronger
// entry, and tmp files a crashed save left behind are swept. Corrupt entries
// ride the Snapshot truncation and flip sweeps (test_snapshot.cpp).
#include "service/warm_start.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "mkp/generator.hpp"
#include "parallel/durable_file.hpp"
#include "read_accounting.hpp"

namespace pts::service {
namespace {

namespace fs = std::filesystem;

mkp::Instance test_instance() {
  return mkp::generate_gk({.num_items = 30, .num_constraints = 3}, 41);
}

/// A solution holding items 0..count-1, so its value grows with `count`.
mkp::Solution solution(const mkp::Instance& inst, std::size_t count) {
  mkp::Solution s(inst);
  for (std::size_t j = 0; j < count; ++j) s.add(j);
  return s;
}

std::vector<parallel::snapshot::SlaveState> one_slave() {
  parallel::snapshot::SlaveState slave;
  slave.strategy = {9, 1, 30, 4};
  slave.score = 6;
  return {slave};
}

/// A fresh store directory named after the test.
std::string fresh_dir(const char* name) {
  const auto dir = ::testing::TempDir() + name;
  fs::remove_all(dir);
  return dir;
}

std::string only_entry(const std::string& dir) {
  std::string path;
  for (const auto& entry : fs::directory_iterator(dir)) {
    path = entry.path().string();
  }
  return path;
}

TEST(WarmStartStore, OversizeEntryMissesAndSaveReplacesIt) {
  const auto dir = fresh_dir("warm_store_oversize");
  const auto inst = test_instance();
  constexpr std::uint64_t kHash = 0x5EED;
  WarmStartStore store(dir);
  ASSERT_TRUE(store.save(inst, kHash, solution(inst, 1), one_slave()).ok());
  const auto entry = only_entry(dir);
  const auto entry_bytes = fs::file_size(entry);
  ASSERT_TRUE(store.lookup(inst, kHash, WarmStartPolicy::kExact));

  // Extend the entry one byte past the ceiling. truncate(2) makes the tail
  // a hole, so the file costs no disk blocks; its header still parses, so
  // only the size check can turn it away.
  // Neither lookup nor the save's keep-the-best read may read the body:
  // the size alone refuses it.
  fs::resize_file(entry, parallel::durable::kMaxSealedFileBytes + 1);
  const auto before = bytes_read_so_far();
  EXPECT_FALSE(store.lookup(inst, kHash, WarmStartPolicy::kExact));
  EXPECT_FALSE(store.lookup(inst, kHash, WarmStartPolicy::kSimilar));
  EXPECT_EQ(fs::file_size(entry), parallel::durable::kMaxSealedFileBytes + 1);
  ASSERT_TRUE(store.save(inst, kHash, solution(inst, 1), one_slave()).ok());
  if (const auto after = bytes_read_so_far(); before && after) {
    EXPECT_LT(*after - *before, 1u << 20);
  }
  EXPECT_EQ(fs::file_size(entry), entry_bytes);
  EXPECT_TRUE(store.lookup(inst, kHash, WarmStartPolicy::kExact));
  fs::remove_all(dir);
}

TEST(WarmStartStore, WeakerSaveKeepsTheStrongerEntry) {
  const auto dir = fresh_dir("warm_store_keep_best");
  const auto inst = test_instance();
  constexpr std::uint64_t kHash = 0xBE57;
  WarmStartStore store(dir);
  const auto strong = solution(inst, 2);
  ASSERT_GT(strong.value(), solution(inst, 1).value());
  ASSERT_TRUE(store.save(inst, kHash, strong, one_slave()).ok());
  ASSERT_TRUE(store.save(inst, kHash, solution(inst, 1), one_slave()).ok());
  auto hit = store.lookup(inst, kHash, WarmStartPolicy::kExact);
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit->stored_best, strong.value());

  const auto stronger = solution(inst, 3);
  ASSERT_TRUE(store.save(inst, kHash, stronger, one_slave()).ok());
  hit = store.lookup(inst, kHash, WarmStartPolicy::kExact);
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit->stored_best, stronger.value());
  ASSERT_FALSE(hit->warm.initials.empty());
  EXPECT_EQ(hit->warm.initials.front(), stronger);
  fs::remove_all(dir);
}

TEST(WarmStartStore, TmpFilesOfACrashedSaveAreSweptOnOpen) {
  const auto dir = fresh_dir("warm_store_sweep");
  const auto inst = test_instance();
  {
    WarmStartStore store(dir);
    ASSERT_TRUE(store.save(inst, 1, solution(inst, 1), one_slave()).ok());
  }
  const auto entry = only_entry(dir);
  const auto orphan = entry + ".tmp.4242.7";
  std::ofstream(orphan) << "torn";
  ASSERT_TRUE(fs::exists(orphan));

  WarmStartStore reopened(dir);
  EXPECT_FALSE(fs::exists(orphan));
  EXPECT_TRUE(fs::exists(entry));
  EXPECT_TRUE(reopened.lookup(inst, 1, WarmStartPolicy::kExact));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace pts::service
