// perfbench: the repository benchmark harness.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-dir DIR] [--inject response|tally]
//   perfbench --list-metrics
//
// Runs one workload (sim_fast, sim_general, serve_hot, serve_cold), checks
// every output against its oracle, and prints two lines on stdout: a
// ksw.perfbench/v1 record (machine block, exact counts, oracle failures)
// and, last, the result object {"correct","attempted","failed","metrics"}.
// --trace 0 reports the end-to-end metrics of an untraced run; --trace 1
// runs the traced decomposition and reports the per-layer metrics. Exit
// status: 0 all oracles passed, 1 an oracle failed, 2 usage error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {
namespace {

struct MetricSpec {
  std::string name;
  std::string unit;
  std::string better;  ///< "higher" | "lower"
  double bound = 0.0;  ///< end-to-end only
};

std::vector<MetricSpec> end_to_end_catalogue() {
  return {
      {"throughput", "items/s", "higher", 0.25},
      {"batch_p50_ms", "ms", "lower", 0.25},
      {"batch_p90_ms", "ms", "lower", 0.25},
      {"setup_s", "s", "lower", 0.25},
      {"peak_rss_mb", "MiB", "lower", 0.1},
  };
}

std::vector<MetricSpec> per_layer_catalogue() {
  std::vector<MetricSpec> out;
  const auto add = [&](std::string name, std::string unit,
                       std::string better) {
    out.push_back({std::move(name), std::move(unit), std::move(better), 0.0});
  };
  for (const std::string& c : sim_config_names())
    add("sim.ns_per_packet." + c, "ns", "lower");
  for (const std::string& c : sim_config_names())
    add("sim.ns_per_port_cycle." + c, "ns", "lower");
  add("sim.replicate_s.p50", "s", "lower");
  add("sim.replicate_s.max", "s", "lower");
  add("sim.merge_ms", "ms", "lower");
  add("sim.packets_delivered", "count", "higher");
  add("sim.packets_dropped", "count", "lower");
  add("sim.fingerprint", "hash", "higher");
  add("par.idle_share", "fraction", "lower");
  for (const char* layer :
       {"parse", "canonical", "cache_lookup", "cache_insert", "render"}) {
    add(std::string("serve.") + layer + "_us.p50", "us", "lower");
    add(std::string("serve.") + layer + "_us.total", "us", "lower");
  }
  for (const std::string& k : serve_kernel_names())
    add("serve.eval_us." + k, "us", "lower");
  add("pgf.distribution_us", "us", "lower");
  add("core.moments_us", "us", "lower");
  add("serve.dispatch_share", "fraction", "lower");
  add("serve.cache.hits", "count", "higher");
  add("serve.cache.misses", "count", "lower");
  add("serve.hit_ratio", "fraction", "higher");
  add("serve.redundant_evals", "count", "lower");
  add("serve.batch_p99_ms", "ms", "lower");
  add("obs.trace_overhead", "fraction", "lower");
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string string_map(const std::map<std::string, std::string>& m) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ',';
    out += '"' + json_escape(k) + "\":\"" + json_escape(v) + '"';
  }
  return out + "}";
}

void list_metrics() {
  std::string out = "{\"end_to_end\":[";
  bool first = true;
  for (const MetricSpec& m : end_to_end_catalogue()) {
    out += first ? "" : ",";
    first = false;
    out += "{\"name\":\"" + m.name + "\",\"unit\":\"" + m.unit +
           "\",\"better\":\"" + m.better + "\",\"bound\":" + number(m.bound) +
           "}";
  }
  out += "],\"per_layer\":[";
  first = true;
  for (const MetricSpec& m : per_layer_catalogue()) {
    out += first ? "" : ",";
    first = false;
    out += "{\"name\":\"" + m.name + "\",\"unit\":\"" + m.unit +
           "\",\"better\":\"" + m.better + "\"}";
  }
  std::printf("%s]}\n", out.c_str());
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "sim_fast|sim_general|serve_hot|serve_cold --seed N "
               "--seconds S --trace 0|1 [--trace-dir DIR] "
               "[--inject response|tally]\n       perfbench --list-metrics\n",
               why.c_str());
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options opts;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-metrics") {
      list_metrics();
      std::exit(0);
    }
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        opts.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        opts.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        opts.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        opts.trace = value == "1";
      } else if (arg == "--trace-dir") {
        opts.trace_dir = value;
      } else if (arg == "--inject") {
        opts.inject = value;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg + ": " + value);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(opts.seconds > 0.0) || opts.seconds > 600.0)
    usage("--seconds must lie in (0, 600]");
  const bool sim = is_sim_workload(opts.workload);
  if (!sim && !is_serve_workload(opts.workload))
    usage("unknown workload " + opts.workload);
  if (!opts.inject.empty() &&
      opts.inject != (sim ? std::string("tally") : std::string("response")))
    usage("--inject " + opts.inject + " does not apply to " + opts.workload);
  return opts;
}

int run(const Options& opts) {
  Outcome outcome = is_sim_workload(opts.workload) ? run_sim(opts)
                                                   : run_serve(opts);
  const std::vector<MetricSpec> catalogue =
      opts.trace ? per_layer_catalogue() : end_to_end_catalogue();
  std::string metrics = "{";
  for (const MetricSpec& m : catalogue) {
    const auto it = outcome.metrics.find(m.name);
    double value = it == outcome.metrics.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) {
      outcome.failures.push_back("metric " + m.name + " is not finite");
      ++outcome.failed;
      value = 0.0;
    }
    if (metrics.size() > 1) metrics += ", ";
    metrics += "\"" + m.name + "\": {\"value\": " + number(value) +
               ", \"unit\": \"" + m.unit + "\"}";
  }
  metrics += "}";
  if (outcome.attempted == 0) {
    outcome.attempted = 1;
    outcome.failed = 1;
    outcome.failures.push_back("no operation was attempted");
  }
  const bool correct = outcome.failed == 0;

  std::string failures = "[";
  for (const std::string& f : outcome.failures)
    failures += (failures.size() > 1 ? "," : "") + ("\"" + json_escape(f) + "\"");
  failures += "]";
  std::printf(
      "{\"record\":\"ksw.perfbench/v1\",\"workload\":\"%s\",\"seed\":%llu,"
      "\"seconds\":%s,\"trace\":%d,\"machine\":%s,\"notes\":%s,"
      "\"trace_file\":\"%s\",\"failures\":%s}\n",
      opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
      number(opts.seconds).c_str(), opts.trace ? 1 : 0,
      string_map(machine_block()).c_str(), string_map(outcome.notes).c_str(),
      json_escape(outcome.trace_file).c_str(), failures.c_str());
  for (const std::string& f : outcome.failures)
    std::fprintf(stderr, "perfbench: oracle failure: %s\n", f.c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(outcome.attempted),
      static_cast<unsigned long long>(outcome.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options opts = perfbench::parse_args(argc, argv);
  try {
    return perfbench::run(opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
