// Runtime SIMD capability dispatch for the simulator's batch kernels.
//
// Kernels (src/simd/inject.hpp) are compiled per instruction set with
// function-level target attributes — no per-file compiler flags, so one
// binary runs everywhere and picks the widest usable path at startup.
// The scalar path is not a degraded fallback: it is the bit-identity
// oracle every vector path must reproduce exactly (the engine-equivalence
// suite and the CI forced-scalar job both enforce this).
//
// Selection order:
//   1. KSW_SIMD environment variable: "off"/"scalar" forces the scalar
//      oracle, "avx2" requests AVX2 (scalar if unsupported), "auto"/unset
//      detects.
//   2. CPU detection (__builtin_cpu_supports).
// The result is cached on first use; tests that need to exercise a
// specific path in-process use ScopedForceLevel instead of the
// environment.
#pragma once

namespace ksw::simd {

enum class Level {
  kScalar = 0,
  kAvx2 = 1,
};

/// Canonical lowercase name ("scalar", "avx2").
[[nodiscard]] const char* to_string(Level level) noexcept;

/// The dispatch level in effect (env override, else CPU detection;
/// cached after the first call).
[[nodiscard]] Level active_level() noexcept;

/// True when the CPU supports `level` (ignores KSW_SIMD and overrides).
[[nodiscard]] bool cpu_supports(Level level) noexcept;

/// RAII override for tests: forces a level on construction (a level the
/// CPU lacks clamps to scalar), restores the previous selection on
/// destruction. Not thread-safe against concurrent dispatch changes
/// (tests force before spawning work).
class ScopedForceLevel {
 public:
  explicit ScopedForceLevel(Level level) noexcept;
  ~ScopedForceLevel();

  ScopedForceLevel(const ScopedForceLevel&) = delete;
  ScopedForceLevel& operator=(const ScopedForceLevel&) = delete;

 private:
  int previous_;  ///< the override being replaced; -1 when none
};

}  // namespace ksw::simd
