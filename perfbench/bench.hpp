// Shared types of the repository benchmark (perfbench): run options, the
// metric ledger, timing/statistics helpers, and the trace ledger that turns
// ksw.trace/v1 spans into per-layer metrics.
//
// The benchmark drives the libraries only through their public entry
// points. Every span is opened here, around a call into a layer; no
// program code is instrumented for it.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/span.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Test hook: "response" corrupts one serve response, "tally" alters one
  /// simulation tally, before the oracles see them. Empty = off.
  std::string inject;
  /// Directory for the ksw.trace/v1 file of a traced run.
  std::string trace_dir = ".";
};

/// What one workload run reports. `metrics` holds name -> value; units come
/// from the metric catalogue (main.cpp).
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few oracle messages
  std::map<std::string, double> metrics;
  /// Extra record fields (exact counts, fingerprints) printed on the
  /// record line, not in the result object.
  std::map<std::string, std::string> notes;
  std::string trace_file;

  /// Count one operation and its oracle verdict.
  void check(bool ok, const std::string& what);
};

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Nearest-rank quantile of an unsorted sample (q in [0,1]); 0 if empty.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Peak resident set of this process, MiB.
[[nodiscard]] double peak_rss_mb();

/// nproc, CPU model, compiler, build type and runtime SIMD level.
[[nodiscard]] std::map<std::string, std::string> machine_block();

/// 64-bit FNV-1a accumulator for exact-integer fingerprints.
class Fingerprint {
 public:
  void add(std::uint64_t x) noexcept {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (x >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ull;
    }
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }
  /// Folded to 52 bits so it survives a JSON double exactly.
  [[nodiscard]] double as_number() const noexcept {
    return static_cast<double>((h_ ^ (h_ >> 52)) & ((1ull << 52) - 1));
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Spans of one traced run: kept in memory by obs::Tracer, written once as
/// ksw.trace/v1, and read back with the same parser `kswsim trace
/// summarize` uses, so every per-layer metric is derived from the file.
class TraceLedger {
 public:
  TraceLedger();

  [[nodiscard]] ksw::obs::Tracer* tracer() noexcept { return &tracer_; }

  /// Render, write to `path`, parse back. Throws on I/O or parse failure
  /// and when the tracer dropped spans.
  void write_and_reload(const std::string& path);

  /// Durations (ns) of spans named `name`, optionally only those whose
  /// label `key` equals `value`.
  [[nodiscard]] std::vector<double> durations(const std::string& name,
                                              const std::string& key = {},
                                              const std::string& value = {})
      const;
  /// Sum of a numeric label over spans named `name` (filtered likewise).
  [[nodiscard]] double label_sum(const std::string& name,
                                 const std::string& label,
                                 const std::string& key = {},
                                 const std::string& value = {}) const;

 private:
  ksw::obs::Tracer tracer_;
  std::vector<ksw::obs::SpanRecord> spans_;
};

[[nodiscard]] double sum(const std::vector<double>& v);

// Workloads (sim_workloads.cpp, serve_workloads.cpp).
[[nodiscard]] bool is_sim_workload(const std::string& name);
[[nodiscard]] bool is_serve_workload(const std::string& name);
[[nodiscard]] Outcome run_sim(const Options& opts);
[[nodiscard]] Outcome run_serve(const Options& opts);

/// Simulation config names, in catalogue order (per-config metrics).
[[nodiscard]] std::vector<std::string> sim_config_names();
/// Analytic serve kernels, in catalogue order.
[[nodiscard]] std::vector<std::string> serve_kernel_names();

}  // namespace perfbench
