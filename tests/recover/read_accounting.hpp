#pragma once
// Bytes this process has read so far, from the kernel's per-task I/O
// accounting: a test reads it before and after a call to show the call read
// (almost) nothing.

#include <cstdint>
#include <fstream>
#include <optional>
#include <string>

namespace pts {

/// rchar of /proc/self/io: bytes moved by read(2) and friends, page cache or
/// not. nullopt where the kernel keeps no such accounting.
inline std::optional<std::uint64_t> bytes_read_so_far() {
  std::ifstream io("/proc/self/io");
  std::string key;
  std::uint64_t value = 0;
  while (io >> key >> value) {
    if (key == "rchar:") return value;
  }
  return std::nullopt;
}

}  // namespace pts
