#include "simd/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace ksw::simd {

namespace {

// -1 = no override; otherwise a Level value.
std::atomic<int> g_override{-1};

Level detect() noexcept {
  if (const char* env = std::getenv("KSW_SIMD")) {
    if (std::strcmp(env, "off") == 0 || std::strcmp(env, "scalar") == 0)
      return Level::kScalar;
    if (std::strcmp(env, "avx2") == 0)
      return cpu_supports(Level::kAvx2) ? Level::kAvx2 : Level::kScalar;
    // "auto" or anything unrecognized: fall through to detection.
  }
  return cpu_supports(Level::kAvx2) ? Level::kAvx2 : Level::kScalar;
}

}  // namespace

const char* to_string(Level level) noexcept {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kAvx2:
      return "avx2";
  }
  return "scalar";
}

bool cpu_supports(Level level) noexcept {
  switch (level) {
    case Level::kScalar:
      return true;
    case Level::kAvx2:
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
  }
  return false;
}

Level active_level() noexcept {
  const int forced = g_override.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<Level>(forced);
  static const Level detected = detect();
  return detected;
}

ScopedForceLevel::ScopedForceLevel(Level level) noexcept
    : previous_(g_override.load(std::memory_order_relaxed)) {
  if (!cpu_supports(level)) level = Level::kScalar;
  g_override.store(static_cast<int>(level), std::memory_order_relaxed);
}

ScopedForceLevel::~ScopedForceLevel() {
  g_override.store(previous_, std::memory_order_relaxed);
}

}  // namespace ksw::simd
