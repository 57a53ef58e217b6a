#include "mkp/solution_io.hpp"

#include <fstream>

namespace pts::mkp {

void write_solution(std::ostream& out, const Solution& solution) {
  const auto items = solution.selected_items();
  out << "mkpsol 1\n";
  out << "instance " << solution.instance().name() << '\n';
  out << "items " << solution.num_items() << '\n';
  out << "value " << solution.value() << '\n';
  out << "selected " << items.size();
  for (auto j : items) out << ' ' << j;
  out << '\n';
}

void write_solution_file(const std::string& path, const Solution& solution) {
  std::ofstream out(path);
  if (!out) throw SolutionIoError("cannot open for writing: " + path);
  write_solution(out, solution);
}

}  // namespace pts::mkp
