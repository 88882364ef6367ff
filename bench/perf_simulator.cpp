// Engine micro-benchmarks (google-benchmark): throughput of the analytic
// kernels and the cycle-accurate simulator.
//
// Custom main: before the google-benchmark suite, a fixed simulator
// throughput probe (k=2, stages=8, p=0.5) runs, followed by a load sweep
// (k=4, stages=6, rho in {0.5, 0.8, 0.95}) covering the regimes the
// active-set scheduler cares about. Each probe prints cycles/sec and
// packets/sec plus one machine-readable line prefixed "BENCH_perf.json".
// Flags (consumed before benchmark::Initialize):
//   --perf-only       run only the throughput probes, skip the BM_ suite
//   --obs=on|off      probe with observability sampling enabled (default
//                     off); scripts/check_obs_overhead.sh compares the two.
//   --baseline=FILE   JSONL of recorded BENCH_perf.json lines to compare
//                     against (default ./BENCH_perf.json). Every probe
//                     prints its baseline line even when the file is
//                     absent — a fresh clone reports "none" rather than
//                     silently omitting the comparison.
//   --gate            exit 3 if any probe regresses more than 20% in
//                     packets/sec vs its baseline entry (CI; see
//                     scripts/check_perf.sh and docs/PERFORMANCE.md).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/first_stage.hpp"
#include "core/total_delay.hpp"
#include "io/json.hpp"
#include "sim/first_stage_sim.hpp"
#include "sim/network.hpp"

namespace {

void BM_FirstStageMoments(benchmark::State& state) {
  // rho = p * m = 0.2 * 4 = 0.8 (must stay < 1 for a stable queue).
  ksw::core::QueueSpec spec{
      std::shared_ptr<ksw::core::ArrivalModel>(
          ksw::core::make_uniform_arrivals(2, 2, 0.2)),
      std::make_shared<ksw::core::DeterministicService>(4)};
  const ksw::core::FirstStage fs(spec);
  for (auto _ : state) benchmark::DoNotOptimize(fs.moments().variance);
}
BENCHMARK(BM_FirstStageMoments);

void BM_DistributionInversion(benchmark::State& state) {
  ksw::core::QueueSpec spec{
      std::shared_ptr<ksw::core::ArrivalModel>(
          ksw::core::make_uniform_arrivals(2, 2, 0.5)),
      std::make_shared<ksw::core::DeterministicService>(1)};
  const ksw::core::FirstStage fs(spec);
  const auto length = static_cast<std::size_t>(state.range(0));
  for (auto _ : state)
    benchmark::DoNotOptimize(fs.distribution(length).back());
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DistributionInversion)->Range(64, 2048)->Complexity();

void BM_TotalDelayPrediction(benchmark::State& state) {
  ksw::core::NetworkTrafficSpec spec;
  spec.k = 2;
  spec.p = 0.5;
  const ksw::core::LaterStages ls(spec);
  for (auto _ : state) {
    const ksw::core::TotalDelay td(ls, 12);
    benchmark::DoNotOptimize(td.variance_total());
  }
}
BENCHMARK(BM_TotalDelayPrediction);

void BM_SingleSwitchSim(benchmark::State& state) {
  ksw::sim::FirstStageConfig cfg;
  cfg.p = 0.5;
  cfg.warmup_cycles = 0;
  cfg.measure_cycles = state.range(0);
  for (auto _ : state) {
    cfg.seed += 1;  // fresh stream each iteration
    benchmark::DoNotOptimize(ksw::sim::run_first_stage(cfg).messages);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SingleSwitchSim)->Arg(10'000);

void BM_NetworkSimCyclesPerSecond(benchmark::State& state) {
  ksw::sim::NetworkConfig cfg;
  cfg.k = 2;
  cfg.stages = static_cast<unsigned>(state.range(0));
  cfg.p = 0.5;
  cfg.warmup_cycles = 0;
  cfg.measure_cycles = 2'000;
  for (auto _ : state) {
    cfg.seed += 1;
    benchmark::DoNotOptimize(ksw::sim::run_network(cfg).packets_delivered);
  }
  // One item = one port-cycle of switching work.
  state.SetItemsProcessed(state.iterations() * cfg.measure_cycles *
                          (1ll << cfg.stages) * cfg.stages);
}
BENCHMARK(BM_NetworkSimCyclesPerSecond)->Arg(6)->Arg(8)->Arg(10);

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
      b.entries.push_back(e);
    } catch (const std::exception&) {
      // skip
    }
  }
  return b;
}

/// Print the baseline comparison for one probe; returns false when the
/// probe regresses past the 20% floor (only meaningful under --gate).
bool print_baseline_line(const Baseline& baseline,
                         const ksw::sim::NetworkConfig& cfg,
                         double packets_per_sec) {
  if (!baseline.file_found) {
    std::printf(
        "  vs baseline     none (%s not found; record one with "
        "scripts/check_perf.sh --update)\n",
        baseline.path.c_str());
    return true;
  }
  const BaselineEntry* e = baseline.find(cfg);
  if (e == nullptr || e->packets_per_sec <= 0.0) {
    std::printf(
        "  vs baseline     no entry for this workload in %s\n",
        baseline.path.c_str());
    return true;
  }
  const double ratio = packets_per_sec / e->packets_per_sec;
  const bool ok = ratio >= 0.8;
  std::printf("  vs baseline     %.2fx (baseline %.3e packets/sec)%s\n",
              ratio, e->packets_per_sec,
              ok ? "" : "  ** REGRESSION > 20% **");
  return ok;
}

void print_probe(const ksw::sim::NetworkConfig& cfg, const ProbeResult& r) {
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
  std::printf("BENCH_perf.json %s\n", j.to_string(0).c_str());
  // Out now, not at exit: a reader that needs only this line (the obs
  // overhead gate) stops the run once it has it.
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  bool perf_only = false;
  bool obs_enabled = false;
  bool gate = false;
  std::string baseline_path = "BENCH_perf.json";
  std::vector<char*> passthrough;
  passthrough.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--perf-only") == 0) {
      perf_only = true;
    } else if (std::strcmp(argv[i], "--obs=on") == 0) {
      obs_enabled = true;
    } else if (std::strcmp(argv[i], "--obs=off") == 0) {
      obs_enabled = false;
    } else if (std::strcmp(argv[i], "--gate") == 0) {
      gate = true;
    } else if (std::strncmp(argv[i], "--baseline=", 11) == 0) {
      baseline_path = argv[i] + 11;
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  // Without --perf-only the google-benchmark suite runs after the probes;
  // hand it its flags first, so --help or a typo answers at once instead
  // of after every probe.
  int bench_argc = static_cast<int>(passthrough.size());
  if (!perf_only) {
    benchmark::Initialize(&bench_argc, passthrough.data());
    if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                               passthrough.data()))
      return 1;
  }
  const Baseline baseline = load_baseline(baseline_path);
  bool gate_ok = true;

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
    const ProbeResult r = run_probe(cfg, 3);
    print_probe(cfg, r);
    gate_ok &= print_baseline_line(
        baseline, cfg, static_cast<double>(r.packets) / r.wall_s);
  }
  for (const double rho : {0.5, 0.8, 0.95}) {
    ksw::sim::NetworkConfig cfg;
    cfg.k = 4;
    cfg.stages = 6;
    cfg.p = rho;  // unit service, bulk 1: rho == p
    cfg.warmup_cycles = 500;
    cfg.measure_cycles = 4'000;
    cfg.obs.enabled = obs_enabled;
    const ProbeResult r = run_probe(cfg, 3);
    print_probe(cfg, r);
    gate_ok &= print_baseline_line(
        baseline, cfg, static_cast<double>(r.packets) / r.wall_s);
  }
  if (gate && !gate_ok) {
    std::printf(
        "perf gate: FAILED — throughput regressed > 20%% vs %s\n",
        baseline.path.c_str());
    return 3;
  }
  if (gate)
    std::printf("perf gate: OK (within 20%% of %s)\n",
                baseline.path.c_str());
  if (perf_only) return 0;

  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
