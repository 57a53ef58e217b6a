#include "spans.hpp"

#include <cstdio>

namespace perfbench {

std::uint64_t SpanLog::add(const char* name, std::uint64_t trace,
                           std::uint64_t parent, Time start, Time end) {
  if (!enabled_) return 0;
  const std::uint64_t id = spans_.size() + 1;
  spans_.push_back({name, id, parent, trace, start, end});
  return id;
}

bool SpanLog::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const auto us = [this](Time t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  std::fputs("[\n", f);
  for (std::size_t k = 0; k < spans_.size(); ++k) {
    const Span& s = spans_[k];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,\"trace\":%llu,"
                 "\"start_us\":%.3f,\"end_us\":%.3f}%s\n",
                 s.name, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.trace), us(s.start), us(s.end),
                 k + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
