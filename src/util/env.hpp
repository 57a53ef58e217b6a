#pragma once
// Environment knobs: the chaos rates and test hooks every socket stack reads
// once at construction (PTS_CHAOS_*, PTS_CHAOS_NET_*, PTS_CHAOS_NODE_*).

#include <cstdint>
#include <cstdlib>

namespace pts {

/// `name` parsed as a base-10 unsigned integer; `fallback` when the variable
/// is unset or empty.
[[nodiscard]] inline std::uint32_t env_u32(const char* name,
                                           std::uint32_t fallback = 0) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return static_cast<std::uint32_t>(std::strtoul(value, nullptr, 10));
}

}  // namespace pts
