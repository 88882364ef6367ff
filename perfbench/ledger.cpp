// Statistics, machine description and the trace ledger of perfbench.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "obs/trace_export.hpp"
#include "simd/simd.hpp"

namespace perfbench {

void Outcome::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::map<std::string, std::string> machine_block() {
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  for (std::string line; std::getline(info, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        cpu = line.substr(colon + 1);
        cpu.erase(0, cpu.find_first_not_of(' '));
      }
      break;
    }
  }
  return {
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"cpu", cpu},
      {"compiler", KSW_BENCH_COMPILER},
      {"build_type", KSW_BENCH_BUILD_TYPE},
      {"simd", ksw::simd::to_string(ksw::simd::active_level())},
  };
}

TraceLedger::TraceLedger() : tracer_(1u << 18) {}

void TraceLedger::write_and_reload(const std::string& path) {
  const std::string text =
      ksw::obs::render_trace_jsonl(tracer_.snapshot(), tracer_.dropped());
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
    if (!out) throw std::runtime_error("cannot write trace " + path);
  }
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  std::uint64_t dropped = 0;
  spans_ = ksw::obs::parse_trace_jsonl(buf.str(), &dropped);
  // Every per-layer metric is a sum or quantile over the spans, so a
  // trace that lost spans cannot give them.
  if (dropped != 0)
    throw std::runtime_error("trace dropped " + std::to_string(dropped) +
                             " spans; raise the tracer capacity");
}

namespace {

bool matches(const ksw::obs::SpanRecord& s, const std::string& name,
             const std::string& key, const std::string& value) {
  if (s.name != name) return false;
  if (key.empty()) return true;
  for (const auto& [k, v] : s.labels)
    if (k == key) return v == value;
  return false;
}

}  // namespace

std::vector<double> TraceLedger::durations(const std::string& name,
                                           const std::string& key,
                                           const std::string& value) const {
  std::vector<double> out;
  for (const auto& s : spans_)
    if (matches(s, name, key, value))
      out.push_back(static_cast<double>(s.dur_ns));
  return out;
}

double TraceLedger::label_sum(const std::string& name,
                              const std::string& label,
                              const std::string& key,
                              const std::string& value) const {
  double total = 0.0;
  for (const auto& s : spans_) {
    if (!matches(s, name, key, value)) continue;
    for (const auto& [k, v] : s.labels)
      if (k == label) total += std::stod(v);
  }
  return total;
}

}  // namespace perfbench
