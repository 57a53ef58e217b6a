#include "util/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace pts::simd {

namespace {

bool cpu_has_avx2() noexcept {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

Kind probe_best() noexcept {
#if defined(__aarch64__)
  return Kind::kNeon;  // NEON is architecturally baseline on AArch64
#else
  return cpu_has_avx2() ? Kind::kAvx2 : Kind::kScalar;
#endif
}

bool supported(Kind kind) noexcept {
  switch (kind) {
    case Kind::kScalar:
      return true;
    case Kind::kAvx2:
      return cpu_has_avx2();
    case Kind::kNeon:
#if defined(__aarch64__)
      return true;
#else
      return false;
#endif
  }
  return false;
}

Kind initial_kind() noexcept {
  if (const char* env = std::getenv("PTS_SIMD")) {
    if (std::strcmp(env, "scalar") == 0) return Kind::kScalar;
    if (std::strcmp(env, "avx2") == 0 && supported(Kind::kAvx2)) return Kind::kAvx2;
    if (std::strcmp(env, "neon") == 0 && supported(Kind::kNeon)) return Kind::kNeon;
    if (std::strcmp(env, "auto") == 0) return probe_best();
    // Unknown or unsupported request: fall through to the default rather
    // than abort — kernels must stay runnable everywhere.
  }
  return probe_best();
}

std::atomic<Kind>& active_slot() noexcept {
  static std::atomic<Kind> slot{initial_kind()};
  return slot;
}

}  // namespace

const char* to_string(Kind kind) noexcept {
  switch (kind) {
    case Kind::kScalar:
      return "scalar";
    case Kind::kAvx2:
      return "avx2";
    case Kind::kNeon:
      return "neon";
  }
  return "unknown";
}

Kind best_supported() noexcept { return probe_best(); }

Kind active() noexcept { return active_slot().load(std::memory_order_relaxed); }

bool set_active(Kind kind) noexcept {
  if (!supported(kind)) return false;
  active_slot().store(kind, std::memory_order_relaxed);
  return true;
}

}  // namespace pts::simd
