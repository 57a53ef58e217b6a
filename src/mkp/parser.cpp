#include "mkp/parser.hpp"

#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>

namespace pts::mkp {

namespace {

double next_number(std::istream& in, const char* what) {
  std::string token;
  if (!(in >> token)) {
    throw ParseError(std::string("unexpected end of input while reading ") + what);
  }
  double value = 0.0;
  const char* last = token.data() + token.size();
  // from_chars takes no leading '+', which operator>> did.
  const auto [end, error] =
      std::from_chars(token.data() + (token.front() == '+'), last, value);
  if (error != std::errc{} || end != last || !std::isfinite(value)) {
    throw ParseError(std::string("expected a finite number for ") + what +
                     ", got '" + token + "'");
  }
  return value;
}

std::size_t next_count(std::istream& in, const char* what) {
  const double value = next_number(in, what);
  if (value < 0.0 || value != static_cast<double>(static_cast<long long>(value))) {
    throw ParseError(std::string("expected a non-negative integer for ") + what);
  }
  return static_cast<std::size_t>(value);
}

}  // namespace

Instance read_orlib_single(std::istream& in, const std::string& name) {
  const std::size_t n = next_count(in, "item count n");
  const std::size_t m = next_count(in, "constraint count m");
  if (n == 0) throw ParseError("item count n must be positive");
  if (m == 0) throw ParseError("constraint count m must be positive");
  const double opt = next_number(in, "recorded optimum");

  // No vector is sized from a header count: each grows only as numbers are
  // read, so a forged count ends in "unexpected end of input", never in an
  // allocation the file cannot fill (or an n * m that wraps).
  std::vector<double> profits;
  for (std::size_t j = 0; j < n; ++j) profits.push_back(next_number(in, "profit"));
  std::vector<double> weights;
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) weights.push_back(next_number(in, "weight"));
  }
  std::vector<double> capacities;
  for (std::size_t i = 0; i < m; ++i) capacities.push_back(next_number(in, "capacity"));

  Instance instance(name, std::move(profits), std::move(weights), std::move(capacities));
  if (const auto issues = instance.validate(); !issues.empty()) {
    throw ParseError(issues.front());
  }
  if (opt > 0.0) instance.set_known_optimum(opt);
  return instance;
}

std::vector<Instance> read_orlib(std::istream& in, const std::string& base_name) {
  const std::size_t count = next_count(in, "problem count");
  std::vector<Instance> instances;
  for (std::size_t k = 0; k < count; ++k) {
    instances.push_back(read_orlib_single(in, base_name + "-" + std::to_string(k + 1)));
  }
  return instances;
}

std::vector<Instance> read_orlib_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ParseError("cannot open file: " + path);
  return read_orlib(in, path);
}

void write_orlib_single(std::ostream& out, const Instance& instance) {
  const std::size_t n = instance.num_items();
  const std::size_t m = instance.num_constraints();
  out << n << ' ' << m << ' ' << instance.known_optimum().value_or(0.0) << '\n';
  for (std::size_t j = 0; j < n; ++j) {
    out << instance.profit(j) << (j + 1 == n ? '\n' : ' ');
  }
  for (std::size_t i = 0; i < m; ++i) {
    const auto row = instance.weights_row(i);
    for (std::size_t j = 0; j < n; ++j) {
      out << row[j] << (j + 1 == n ? '\n' : ' ');
    }
  }
  for (std::size_t i = 0; i < m; ++i) {
    out << instance.capacity(i) << (i + 1 == m ? '\n' : ' ');
  }
}

void write_orlib(std::ostream& out, const std::vector<Instance>& instances) {
  out << instances.size() << '\n';
  for (const auto& instance : instances) write_orlib_single(out, instance);
}

void write_orlib_file(const std::string& path, const std::vector<Instance>& instances) {
  std::ofstream out(path);
  if (!out) throw ParseError("cannot open file for writing: " + path);
  write_orlib(out, instances);
}

}  // namespace pts::mkp
