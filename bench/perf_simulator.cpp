// Simulator throughput probe: a fixed workload (k=2, stages=8, p=0.5),
// then a load sweep (k=4, stages=6, rho in {0.5, 0.8, 0.95}) covering the
// regimes the active-set scheduler cares about. Each probe prints
// cycles/sec and packets/sec plus one machine-readable line prefixed
// "BENCH_perf.json", which carries the machine it was measured on.
//
//   perf_simulator [--obs=on|off] [--baseline=FILE] [--gate]
//
//   --obs=on|off      probe with observability sampling enabled (default
//                     off); scripts/check_obs_overhead.sh compares the two.
//   --baseline=FILE   JSONL of recorded BENCH_perf.json lines to compare
//                     against (default ./BENCH_perf.json). Every probe
//                     prints its baseline line even when the file is
//                     absent — a fresh clone reports "none" rather than
//                     silently omitting the comparison.
//   --gate            exit 3 if any probe regresses more than 20% in
//                     packets/sec vs its baseline entry, or has no entry
//                     recorded on this machine (CI; see
//                     scripts/check_perf.sh and docs/PERFORMANCE.md).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "io/json.hpp"
#include "machine.hpp"
#include "sim/network.hpp"

namespace {

// ---------------------------------------------------------------------------
// Throughput probes: the legacy acceptance workload (k=2, stages=8, p=0.5)
// plus a rho sweep at k=4, stages=6 — the gate workload for the flat-pool
// engine is rho=0.8 there.
// ---------------------------------------------------------------------------

struct ProbeResult {
  double wall_s = 0.0;         // best-of-N wall time for one full run
  double warmup_s = 0.0;       // phase split (obs mode only, else 0)
  double measure_s = 0.0;
  std::int64_t cycles = 0;      // warmup + measurement cycles per run
  std::uint64_t packets = 0;    // packets delivered in the best run
};

ProbeResult run_probe(ksw::sim::NetworkConfig cfg, int repeats) {
  ProbeResult best;
  for (int rep = 0; rep < repeats; ++rep) {
    cfg.seed = static_cast<std::uint64_t>(rep) + 1;
    const auto start = std::chrono::steady_clock::now();
    const ksw::sim::NetworkResults r = ksw::sim::run_network(cfg);
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    if (rep == 0 || wall < best.wall_s) {
      best.wall_s = wall;
      best.cycles = cfg.warmup_cycles + cfg.measure_cycles;
      best.packets = r.packets_delivered;
      if (cfg.obs.enabled) {
        best.warmup_s = r.metrics.timers().count("sim.phase.warmup") != 0
                            ? r.metrics.timers()
                                  .at("sim.phase.warmup")
                                  ->seconds()
                            : 0.0;
        best.measure_s = r.metrics.timers().count("sim.phase.measure") != 0
                             ? r.metrics.timers()
                                   .at("sim.phase.measure")
                                   ->seconds()
                             : 0.0;
      }
    }
  }
  return best;
}

/// One recorded baseline probe, keyed by workload.
struct BaselineEntry {
  unsigned k = 0;
  unsigned stages = 0;
  double p = 0.0;
  bool obs = false;
  double packets_per_sec = 0.0;
  std::string machine;  ///< the record's machine block, "null" if absent
};

struct Baseline {
  bool file_found = false;
  std::string path;
  std::vector<BaselineEntry> entries;

  [[nodiscard]] const BaselineEntry* find(const ksw::sim::NetworkConfig& cfg)
      const {
    for (const BaselineEntry& e : entries)
      if (e.k == cfg.k && e.stages == cfg.stages && e.p == cfg.p &&
          e.obs == cfg.obs.enabled)
        return &e;
    return nullptr;
  }
};

/// Load a JSONL baseline (one BENCH_perf.json object per line, with or
/// without the "BENCH_perf.json " prefix). Malformed lines are skipped:
/// a damaged baseline degrades to "no entry", never to a crash.
Baseline load_baseline(const std::string& path) {
  Baseline b;
  b.path = path;
  std::ifstream in(path);
  if (!in) return b;
  b.file_found = true;
  std::string line;
  while (std::getline(in, line)) {
    const std::string prefix = "BENCH_perf.json ";
    if (line.rfind(prefix, 0) == 0) line = line.substr(prefix.size());
    if (line.empty()) continue;
    try {
      const ksw::io::Json j = ksw::io::Json::parse(line);
      BaselineEntry e;
      e.k = static_cast<unsigned>(j.at("k").as_int());
      e.stages = static_cast<unsigned>(j.at("stages").as_int());
      e.p = j.at("p").as_double();
      e.obs = j.at("obs").as_string() == "on";
      e.packets_per_sec = j.at("packets_per_sec").as_double();
      e.machine = j.get("machine").to_string();
      b.entries.push_back(e);
    } catch (const std::exception&) {
      // skip
    }
  }
  return b;
}

/// Print the baseline comparison for one probe; returns false when the
/// probe has no entry recorded on this machine or regresses past the 20%
/// floor (only meaningful under --gate).
bool print_baseline_line(const Baseline& baseline,
                         const ksw::sim::NetworkConfig& cfg,
                         double packets_per_sec, const std::string& machine) {
  if (!baseline.file_found) {
    std::printf(
        "  vs baseline     none (%s not found; record one with "
        "scripts/check_perf.sh --update)\n",
        baseline.path.c_str());
    return false;
  }
  const BaselineEntry* e = baseline.find(cfg);
  if (e == nullptr || e->packets_per_sec <= 0.0) {
    std::printf(
        "  vs baseline     no entry for this workload in %s\n",
        baseline.path.c_str());
    return false;
  }
  if (e->machine != machine) {
    std::printf(
        "  vs baseline     recorded on another machine: %s\n"
        "                  this machine: %s\n",
        e->machine.c_str(), machine.c_str());
    return false;
  }
  const double ratio = packets_per_sec / e->packets_per_sec;
  const bool ok = ratio >= 0.8;
  std::printf("  vs baseline     %.2fx (baseline %.3e packets/sec)%s\n",
              ratio, e->packets_per_sec,
              ok ? "" : "  ** REGRESSION > 20% **");
  return ok;
}

void print_probe(const ksw::sim::NetworkConfig& cfg, const ProbeResult& r,
                 const ksw::io::Json& machine) {
  const double cycles_per_sec =
      static_cast<double>(r.cycles) / r.wall_s;
  const double packets_per_sec =
      static_cast<double>(r.packets) / r.wall_s;
  std::printf("simulator throughput (k=%u, stages=%u, p=%g, obs=%s):\n",
              cfg.k, cfg.stages, cfg.p, cfg.obs.enabled ? "on" : "off");
  std::printf("  wall            %.4f s (best of runs)\n", r.wall_s);
  std::printf("  cycles/sec      %.3e\n", cycles_per_sec);
  std::printf("  packets/sec     %.3e\n", packets_per_sec);
  if (cfg.obs.enabled)
    std::printf("  phase split     warmup %.4f s, measure %.4f s\n",
                r.warmup_s, r.measure_s);

  ksw::io::Json j = ksw::io::Json::object();
  j.set("k", static_cast<std::int64_t>(cfg.k));
  j.set("stages", static_cast<std::int64_t>(cfg.stages));
  j.set("p", cfg.p);
  j.set("rho", cfg.rho());
  j.set("obs", cfg.obs.enabled ? "on" : "off");
  j.set("cycles", r.cycles);
  j.set("packets", r.packets);
  j.set("wall_s", r.wall_s);
  j.set("cycles_per_sec", cycles_per_sec);
  j.set("packets_per_sec", packets_per_sec);
  if (cfg.obs.enabled) {
    j.set("warmup_s", r.warmup_s);
    j.set("measure_s", r.measure_s);
  }
  j.set("machine", machine);
  std::printf("BENCH_perf.json %s\n", j.to_string(0).c_str());
  // Out now, not at exit: a reader that needs only this line (the obs
  // overhead gate) stops the run once it has it.
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  bool obs_enabled = false;
  bool gate = false;
  std::string baseline_path = "BENCH_perf.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--obs=on") == 0) {
      obs_enabled = true;
    } else if (std::strcmp(argv[i], "--obs=off") == 0) {
      obs_enabled = false;
    } else if (std::strcmp(argv[i], "--gate") == 0) {
      gate = true;
    } else if (std::strncmp(argv[i], "--baseline=", 11) == 0) {
      baseline_path = argv[i] + 11;
    } else {
      std::fprintf(stderr,
                   "perf_simulator: unknown option %s\n"
                   "usage: perf_simulator [--obs=on|off] [--baseline=FILE] "
                   "[--gate]\n",
                   argv[i]);
      return 2;
    }
  }
  const Baseline baseline = load_baseline(baseline_path);
  const ksw::io::Json machine = ksw::bench::machine_block();
  const std::string machine_text = machine.to_string();
  bool gate_ok = true;
  const auto probe = [&](const ksw::sim::NetworkConfig& cfg) {
    const ProbeResult r = run_probe(cfg, 3);
    print_probe(cfg, r, machine);
    gate_ok &= print_baseline_line(baseline, cfg,
                                   static_cast<double>(r.packets) / r.wall_s,
                                   machine_text);
  };

  {
    // Legacy acceptance probe; scripts/check_obs_overhead.sh keys on this
    // line (k=2, stages=8), so it stays first.
    ksw::sim::NetworkConfig cfg;
    cfg.k = 2;
    cfg.stages = 8;
    cfg.p = 0.5;
    cfg.warmup_cycles = 1'000;
    cfg.measure_cycles = 20'000;
    cfg.obs.enabled = obs_enabled;
    probe(cfg);
  }
  for (const double rho : {0.5, 0.8, 0.95}) {
    ksw::sim::NetworkConfig cfg;
    cfg.k = 4;
    cfg.stages = 6;
    cfg.p = rho;  // unit service, bulk 1: rho == p
    cfg.warmup_cycles = 500;
    cfg.measure_cycles = 4'000;
    cfg.obs.enabled = obs_enabled;
    probe(cfg);
  }
  if (!gate) return 0;
  if (!gate_ok) {
    std::printf(
        "perf gate: FAILED — a probe has no baseline from this machine in "
        "%s, or regressed > 20%% against it\n",
        baseline.path.c_str());
    return 3;
  }
  std::printf("perf gate: OK (within 20%% of %s)\n", baseline.path.c_str());
  return 0;
}
