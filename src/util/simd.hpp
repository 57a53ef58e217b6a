#pragma once
// Runtime SIMD dispatch for the hot kernels (DESIGN.md "Data layout & move
// kernels", "Runtime SIMD dispatch").
//
// The vector kernels (tabu/kernels_simd.cpp, util/bitvec.cpp word scans) are
// always COMPILED when the target architecture can express them — AVX2 via
// per-function target attributes on x86-64, NEON unconditionally on AArch64 —
// but only EXECUTED when (a) the CPU supports them and (b) the active kind
// says so. The active kind is resolved once at startup:
//
//   * PTS_SIMD=scalar|avx2|neon|auto in the environment always wins;
//   * otherwise the default is best_supported(), in every build.
//
// Every vector kernel is required to be BIT-COMPATIBLE with its scalar
// counterpart (same accumulation tree, no FMA contraction), so switching
// kinds never changes a fixed-seed trajectory; tests/tabu assert this, and
// the golden trajectory test runs once more under PTS_SIMD=scalar.
// set_active() exists for those tests and for benchmark A/B columns, not for
// steering production runs mid-flight — it is a process-wide switch.

#include <cstddef>
#include <cstdint>

namespace pts::simd {

enum class Kind : std::uint8_t { kScalar = 0, kAvx2 = 1, kNeon = 2 };

/// Doubles per padded column group; Instance pads the column-major mirror
/// stride to a multiple of this so vector loads never read past a column.
inline constexpr std::size_t kLaneWidth = 4;

[[nodiscard]] const char* to_string(Kind kind) noexcept;

/// Best kind this binary AND this CPU can execute (compile-time availability
/// of the intrinsics TU plus a runtime CPUID/feature probe).
[[nodiscard]] Kind best_supported() noexcept;

/// The kind kernels dispatch on right now.
[[nodiscard]] Kind active() noexcept;

/// Switch the process-wide dispatch. Returns false (and leaves the active
/// kind unchanged) when `kind` is not supported here; kScalar always works.
bool set_active(Kind kind) noexcept;

}  // namespace pts::simd
