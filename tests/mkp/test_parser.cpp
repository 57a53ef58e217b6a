#include "mkp/parser.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "mkp/generator.hpp"

namespace pts::mkp {
namespace {

constexpr const char* kSingle = R"(3 2 21
6 4 2
1 2 3
4 5 6
10 20
)";

TEST(Parser, ReadsSingleProblem) {
  std::istringstream in(kSingle);
  const auto inst = read_orlib_single(in, "p");
  EXPECT_EQ(inst.num_items(), 3U);
  EXPECT_EQ(inst.num_constraints(), 2U);
  EXPECT_DOUBLE_EQ(inst.profit(0), 6.0);
  EXPECT_DOUBLE_EQ(inst.weight(1, 2), 6.0);
  EXPECT_DOUBLE_EQ(inst.capacity(1), 20.0);
  ASSERT_TRUE(inst.known_optimum().has_value());
  EXPECT_DOUBLE_EQ(*inst.known_optimum(), 21.0);
}

TEST(Parser, ZeroOptimumMeansUnknown) {
  std::istringstream in("2 1 0\n3 4\n1 1\n2\n");
  const auto inst = read_orlib_single(in);
  EXPECT_FALSE(inst.known_optimum().has_value());
}

TEST(Parser, ReadsMultiProblemFile) {
  std::ostringstream file;
  file << "2\n" << kSingle << "2 1 0\n3 4\n1 1\n2\n";
  std::istringstream in(file.str());
  const auto instances = read_orlib(in, "multi");
  ASSERT_EQ(instances.size(), 2U);
  EXPECT_EQ(instances[0].name(), "multi-1");
  EXPECT_EQ(instances[1].name(), "multi-2");
  EXPECT_EQ(instances[1].num_items(), 2U);
}

TEST(Parser, LineBreaksAreInsignificant) {
  std::istringstream in("3 2 21 6 4 2 1 2 3 4 5 6 10 20");
  const auto inst = read_orlib_single(in);
  EXPECT_EQ(inst.num_items(), 3U);
  EXPECT_DOUBLE_EQ(inst.capacity(0), 10.0);
}

TEST(Parser, FractionalValuesSupported) {
  std::istringstream in("2 1 8706.1\n3.5 4.25\n1.5 2.5\n3.0\n");
  const auto inst = read_orlib_single(in);
  EXPECT_DOUBLE_EQ(inst.profit(0), 3.5);
  EXPECT_DOUBLE_EQ(*inst.known_optimum(), 8706.1);
}

TEST(Parser, TruncatedFileThrows) {
  std::istringstream in("3 2 0\n6 4\n");  // profits cut short
  EXPECT_THROW(read_orlib_single(in), ParseError);
}

TEST(Parser, GarbageTokenThrows) {
  std::istringstream in("3 two 0\n");
  EXPECT_THROW(read_orlib_single(in), ParseError);
}

TEST(Parser, ZeroItemCountThrows) {
  std::istringstream in("0 2 0\n");
  EXPECT_THROW(read_orlib_single(in), ParseError);
}

TEST(Parser, ZeroConstraintCountThrows) {
  std::istringstream in("3 0 0\n");
  EXPECT_THROW(read_orlib_single(in), ParseError);
}

TEST(Parser, NegativeCountThrows) {
  std::istringstream in("-3 2 0\n");
  EXPECT_THROW(read_orlib_single(in), ParseError);
}

TEST(Parser, FractionalCountThrows) {
  std::istringstream in("3.5 2 0\n");
  EXPECT_THROW(read_orlib_single(in), ParseError);
}

TEST(Parser, CountsWhoseProductWrapsThrow) {
  // n = 3 and m = 6148914691236517888: n * m wraps to 2048 in 64 bits. A
  // parser that sized the weight matrix from the header wrote past it at
  // the 2049th weight; this one only grows what it reads and runs out of
  // input (about 6 KB of weights).
  std::string file = "3 6148914691236517888 0\n1 1 1\n";
  for (int k = 0; k < 3000; ++k) file += "1 ";
  std::istringstream in(file);
  EXPECT_THROW(read_orlib_single(in), ParseError);
}

TEST(Parser, HugeProblemCountThrowsWithoutReserving) {
  std::istringstream in("9223372036854774784\n" + std::string(kSingle));
  EXPECT_THROW(read_orlib(in, "huge"), ParseError);
}

TEST(Parser, NonFiniteOrNonPositiveValuesThrow) {
  for (const char* text : {"2 1 0\nnan 4\n1 1\n2\n", "2 1 0\n3 inf\n1 1\n2\n",
                           "2 1 0\n3 0\n1 1\n2\n", "2 1 0\n3 4\n1 -1\n2\n",
                           "2 1 0\n3 4\n1 1\nnan\n"}) {
    std::istringstream in(text);
    EXPECT_THROW(read_orlib_single(in), ParseError) << text;
  }
}

TEST(Parser, NonFiniteTokensAreNamedNotTakenForEndOfInput) {
  for (const char* token : {"nan", "inf", "1e999"}) {
    std::istringstream in(std::string("2 1 0\n3 ") + token + "\n1 1\n2\n");
    try {
      (void)read_orlib_single(in);
      ADD_FAILURE() << token << " was accepted";
    } catch (const ParseError& e) {
      EXPECT_EQ(std::string(e.what()),
                std::string("expected a finite number for profit, got '") +
                    token + "'");
    }
  }
  std::istringstream truncated("2 1 0\n3");
  try {
    (void)read_orlib_single(truncated);
    ADD_FAILURE() << "a truncated file was accepted";
  } catch (const ParseError& e) {
    EXPECT_EQ(std::string(e.what()), "unexpected end of input while reading profit");
  }
}

TEST(Parser, MissingFileThrows) {
  EXPECT_THROW(read_orlib_file("/nonexistent/path/x.txt"), ParseError);
}

TEST(Parser, WriterRoundTripsSingle) {
  std::istringstream in(kSingle);
  const auto original = read_orlib_single(in, "orig");
  std::ostringstream out;
  write_orlib_single(out, original);
  std::istringstream in2(out.str());
  const auto reread = read_orlib_single(in2, "orig");
  EXPECT_EQ(reread.num_items(), original.num_items());
  EXPECT_EQ(reread.num_constraints(), original.num_constraints());
  for (std::size_t j = 0; j < original.num_items(); ++j) {
    EXPECT_DOUBLE_EQ(reread.profit(j), original.profit(j));
  }
  for (std::size_t i = 0; i < original.num_constraints(); ++i) {
    EXPECT_DOUBLE_EQ(reread.capacity(i), original.capacity(i));
    for (std::size_t j = 0; j < original.num_items(); ++j) {
      EXPECT_DOUBLE_EQ(reread.weight(i, j), original.weight(i, j));
    }
  }
  EXPECT_EQ(reread.known_optimum(), original.known_optimum());
}

TEST(Parser, WriterRoundTripsGeneratedBatch) {
  std::vector<Instance> batch;
  batch.push_back(generate_gk({.num_items = 20, .num_constraints = 3}, 1));
  batch.push_back(generate_gk({.num_items = 15, .num_constraints = 5}, 2));
  std::ostringstream out;
  write_orlib(out, batch);
  std::istringstream in(out.str());
  const auto reread = read_orlib(in, "rt");
  ASSERT_EQ(reread.size(), 2U);
  for (std::size_t k = 0; k < 2; ++k) {
    EXPECT_EQ(reread[k].num_items(), batch[k].num_items());
    for (std::size_t i = 0; i < batch[k].num_constraints(); ++i) {
      for (std::size_t j = 0; j < batch[k].num_items(); ++j) {
        EXPECT_DOUBLE_EQ(reread[k].weight(i, j), batch[k].weight(i, j));
      }
    }
  }
}

TEST(Parser, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/pts_parser_rt.txt";
  std::vector<Instance> batch;
  batch.push_back(generate_fp({.num_items = 12, .num_constraints = 4}, 7));
  write_orlib_file(path, batch);
  const auto reread = read_orlib_file(path);
  ASSERT_EQ(reread.size(), 1U);
  EXPECT_EQ(reread[0].num_items(), 12U);
  EXPECT_EQ(reread[0].num_constraints(), 4U);
}

}  // namespace
}  // namespace pts::mkp
