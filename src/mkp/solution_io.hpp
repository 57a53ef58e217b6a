#pragma once
// Solution persistence: a small line-oriented text format so solver runs can
// be saved and diffed (orlib_solver --save).
//
//   mkpsol 1                    <- magic + format version
//   instance <name>
//   items <n>
//   value <objective>
//   selected <k> j1 j2 ... jk   <- ascending indices

#include <iosfwd>
#include <stdexcept>
#include <string>

#include "mkp/solution.hpp"

namespace pts::mkp {

class SolutionIoError : public std::runtime_error {
 public:
  explicit SolutionIoError(const std::string& what) : std::runtime_error(what) {}
};

void write_solution(std::ostream& out, const Solution& solution);
void write_solution_file(const std::string& path, const Solution& solution);

}  // namespace pts::mkp
