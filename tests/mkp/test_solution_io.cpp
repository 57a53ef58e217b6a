#include "mkp/solution_io.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "mkp/generator.hpp"

namespace pts::mkp {
namespace {

Instance make_inst() { return generate_gk({.num_items = 20, .num_constraints = 3}, 1); }

TEST(SolutionIo, FormatIsHumanReadable) {
  const auto inst = make_inst();
  Solution s(inst);
  s.add(3);
  s.add(7);
  std::stringstream buffer;
  write_solution(buffer, s);
  const auto text = buffer.str();
  EXPECT_NE(text.find("mkpsol 1"), std::string::npos);
  EXPECT_NE(text.find("items 20"), std::string::npos);
  EXPECT_NE(text.find("selected 2 3 7"), std::string::npos);
}

}  // namespace
}  // namespace pts::mkp
