#include "tabu/tabu_list.hpp"

#include <gtest/gtest.h>

namespace pts::tabu {
namespace {

TEST(TabuList, FreshListForbidsNothing) {
  TabuList tabu(10);
  for (std::size_t j = 0; j < 10; ++j) {
    EXPECT_FALSE(tabu.is_add_tabu(j, 0));
    EXPECT_FALSE(tabu.is_drop_tabu(j, 0));
  }
}

TEST(TabuList, AddTabuLastsExactlyTenure) {
  TabuList tabu(5);
  tabu.forbid_add(2, /*iter=*/10, /*tenure=*/3);
  EXPECT_TRUE(tabu.is_add_tabu(2, 10));
  EXPECT_TRUE(tabu.is_add_tabu(2, 11));
  EXPECT_TRUE(tabu.is_add_tabu(2, 12));
  EXPECT_FALSE(tabu.is_add_tabu(2, 13));
}

TEST(TabuList, DropTabuIndependentOfAddTabu) {
  TabuList tabu(5);
  tabu.forbid_add(1, 0, 5);
  EXPECT_TRUE(tabu.is_add_tabu(1, 2));
  EXPECT_FALSE(tabu.is_drop_tabu(1, 2));
  tabu.forbid_drop(3, 0, 5);
  EXPECT_TRUE(tabu.is_drop_tabu(3, 2));
  EXPECT_FALSE(tabu.is_add_tabu(3, 2));
}

TEST(TabuList, ZeroTenureForbidsNothing) {
  TabuList tabu(5);
  tabu.forbid_add(0, 7, 0);
  EXPECT_FALSE(tabu.is_add_tabu(0, 7));
}

TEST(TabuList, RenewalExtendsExpiry) {
  TabuList tabu(5);
  tabu.forbid_add(0, 0, 2);
  tabu.forbid_add(0, 1, 2);  // renewed at iter 1
  EXPECT_TRUE(tabu.is_add_tabu(0, 2));
  EXPECT_FALSE(tabu.is_add_tabu(0, 3));
}

TEST(TabuList, ClearRemovesEverything) {
  TabuList tabu(5);
  tabu.forbid_add(0, 0, 100);
  tabu.forbid_drop(1, 0, 100);
  tabu.clear();
  EXPECT_FALSE(tabu.is_add_tabu(0, 1));
  EXPECT_FALSE(tabu.is_drop_tabu(1, 1));
}

TEST(TabuList, ActiveCountTracksExpiry) {
  TabuList tabu(6);
  tabu.forbid_add(0, 0, 2);
  tabu.forbid_add(1, 0, 5);
  tabu.forbid_add(2, 0, 10);
  const auto active = [&tabu](std::uint64_t iter) {
    std::size_t count = 0;
    for (std::size_t j = 0; j < tabu.num_items(); ++j) {
      count += tabu.is_add_tabu(j, iter) ? 1 : 0;
    }
    return count;
  };
  EXPECT_EQ(active(1), 3U);
  EXPECT_EQ(active(3), 2U);
  EXPECT_EQ(active(7), 1U);
  EXPECT_EQ(active(20), 0U);
}

TEST(TabuList, NumItems) {
  TabuList tabu(17);
  EXPECT_EQ(tabu.num_items(), 17U);
}

}  // namespace
}  // namespace pts::tabu
