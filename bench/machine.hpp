// The `machine` block of a BENCH_*.json record: what the numbers were
// measured on, so a gate compares like with like. The compiler and
// build type come from KSW_BENCH_COMPILER / KSW_BENCH_BUILD_TYPE, which
// bench/CMakeLists.txt defines for every probe.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <thread>

#include "io/json.hpp"
#include "simd/simd.hpp"

namespace ksw::bench {

inline io::Json machine_block() {
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  for (std::string line; std::getline(info, line);) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon != std::string::npos)
      cpu = line.substr(line.find_first_not_of(' ', colon + 1));
    break;
  }
  io::Json m = io::Json::object();
  m.set("nproc",
        static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  m.set("cpu", cpu);
  m.set("compiler", KSW_BENCH_COMPILER);
  m.set("build_type", KSW_BENCH_BUILD_TYPE);
  m.set("simd", simd::to_string(simd::active_level()));
  return m;
}

}  // namespace ksw::bench
