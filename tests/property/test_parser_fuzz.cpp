// Parser robustness: arbitrary corruption of well-formed input must yield a
// clean ParseError (or a successfully parsed instance when the corruption
// happens to stay well-formed) — never a crash, hang, or silent garbage
// with negative sizes.
#include <gtest/gtest.h>

#include <sstream>

#include "mkp/generator.hpp"
#include "mkp/parser.hpp"
#include "util/rng.hpp"

namespace pts::mkp {
namespace {

std::string well_formed_document(std::uint64_t seed) {
  std::ostringstream out;
  std::vector<Instance> batch;
  batch.push_back(generate_gk({.num_items = 12, .num_constraints = 3}, seed));
  batch.push_back(generate_fp({.num_items = 8, .num_constraints = 2}, seed));
  write_orlib(out, batch);
  return out.str();
}

class ParserFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParserFuzz, TruncationsAlwaysThrowOrParse) {
  const auto document = well_formed_document(GetParam());
  Rng rng(GetParam());
  for (int round = 0; round < 40; ++round) {
    const auto cut = rng.index(document.size());
    std::istringstream in(document.substr(0, cut));
    try {
      const auto instances = read_orlib(in, "fuzz");
      for (const auto& inst : instances) {
        EXPECT_GT(inst.num_items(), 0U);
        EXPECT_GT(inst.num_constraints(), 0U);
      }
    } catch (const ParseError&) {
      // expected for most cuts
    }
  }
}

TEST_P(ParserFuzz, ByteCorruptionNeverCrashes) {
  const auto document = well_formed_document(GetParam() + 100);
  Rng rng(GetParam() + 100);
  static constexpr char kNoise[] = {'x', '-', '.', '9', ' ', '\n', '#', '\0'};
  for (int round = 0; round < 60; ++round) {
    auto corrupted = document;
    const int edits = 1 + static_cast<int>(rng.index(5));
    for (int e = 0; e < edits; ++e) {
      corrupted[rng.index(corrupted.size())] = kNoise[rng.index(sizeof kNoise)];
    }
    std::istringstream in(corrupted);
    try {
      const auto instances = read_orlib(in, "fuzz");
      for (const auto& inst : instances) {
        EXPECT_GT(inst.num_items(), 0U);
        EXPECT_LE(inst.num_items(), 1000U);  // no absurd sizes from garbage
      }
    } catch (const ParseError&) {
    }
  }
}

TEST_P(ParserFuzz, TokenDeletionNeverCrashes) {
  const auto document = well_formed_document(GetParam() + 200);
  std::istringstream tokenizer(document);
  std::vector<std::string> tokens;
  for (std::string token; tokenizer >> token;) tokens.push_back(token);
  Rng rng(GetParam() + 200);
  for (int round = 0; round < 30; ++round) {
    auto mutated = tokens;
    mutated.erase(mutated.begin() + static_cast<long>(rng.index(mutated.size())));
    std::ostringstream out;
    for (const auto& token : mutated) out << token << ' ';
    std::istringstream in(out.str());
    try {
      (void)read_orlib(in, "fuzz");
    } catch (const ParseError&) {
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz, ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace pts::mkp
