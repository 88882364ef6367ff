// sim_fast / sim_general: replicated network simulations through
// sim::replicate_network on a 2-thread par::ThreadPool.
//
// A run repeats rounds; a round makes one replicate_network call per
// config with a round seed derived from --seed, so rounds are independent
// replicates of each config. Oracles:
//   * Theorem 1: on infinite-buffer configs the stage-1 mean wait of every
//     call lies within the book's tolerance (manifest defaults: abs 0.01 +
//     rel 0.02) of eq. 6/8, widened by six robust standard deviations of
//     the round-to-round spread; the mean over all rounds must also pass
//     the book's 95% replicate-CI rule, or every call of the config fails.
//     Finite-buffer configs have no closed form: their calls must agree
//     with the run's median within the same widened tolerance, and the
//     traced run checks them bit-for-bit against run_network_reference.
//   * Determinism: the traced run recomputes its rounds at 2 threads
//     through replicate_network, at 2 threads through the decomposed
//     calls, and at 1 thread; the exact-integer fingerprints must agree.
#include <cmath>
#include <cstdio>
#include <memory>

#include "bench.hpp"
#include "core/closed_forms.hpp"
#include "par/thread_pool.hpp"
#include "sim/network.hpp"
#include "sim/replicate.hpp"
#include "stats/confidence.hpp"

namespace perfbench {

namespace {

using ksw::sim::NetworkConfig;
using ksw::sim::NetworkResults;

constexpr std::size_t kThreads = 2;
constexpr std::size_t kMinRounds = 8;
constexpr std::size_t kTracedRounds = 4;  ///< rounds per traced-run pass

struct SimCase {
  std::string name;
  NetworkConfig cfg;  ///< seed is set per round
  unsigned replicates = 4;
  bool theorem1 = true;  ///< infinite buffers: eq. 6/8 gives E[w] at stage 1
};

NetworkConfig network(unsigned k, unsigned stages, double p, unsigned m,
                      std::int64_t warmup, std::int64_t measure) {
  NetworkConfig cfg;
  cfg.k = k;
  cfg.stages = stages;
  cfg.p = p;
  cfg.service = ksw::sim::ServiceSpec::deterministic(m);
  cfg.warmup_cycles = warmup;
  cfg.measure_cycles = measure;
  return cfg;
}

/// The book's total-delay points: k=2, 9 stages, checkpoints {3,6,9}.
SimCase total_delay(std::string name, double p, unsigned m,
                    std::int64_t warmup, std::int64_t measure) {
  SimCase c{std::move(name), network(2, 9, p, m, warmup, measure)};
  c.cfg.total_checkpoints = {3, 6, 9};
  return c;
}

SimCase finite(std::string name, ksw::sim::FlowControl flow) {
  SimCase c{std::move(name), network(2, 6, 0.8, 1, 200, 4'000)};
  c.cfg.buffer_capacity = 4;
  c.cfg.flow = flow;
  c.cfg.credit_latency = 2;
  c.theorem1 = false;
  return c;
}

std::vector<SimCase> cases_for(const std::string& workload) {
  if (workload == "sim_fast") {
    SimCase gate{"gate_k4", network(4, 6, 0.8, 1, 40, 600)};
    gate.replicates = 2;
    return {total_delay("td_p0.2", 0.2, 1, 100, 2'000),
            total_delay("td_p0.5", 0.5, 1, 100, 1'000),
            total_delay("td_p0.8", 0.8, 1, 100, 800), gate};
  }
  SimCase obs_on{"obs_on", network(4, 6, 0.8, 1, 40, 300)};
  obs_on.cfg.obs.enabled = true;
  obs_on.replicates = 2;
  return {total_delay("det4", 0.125, 4, 200, 2'000),
          finite("vct4", ksw::sim::FlowControl::kCutThrough),
          finite("credit4", ksw::sim::FlowControl::kCredit), obs_on};
}

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t round_seed(std::uint64_t seed, std::size_t round,
                         std::size_t config) {
  return splitmix(splitmix(seed) ^ (round * 64 + config + 1));
}

NetworkConfig round_config(const SimCase& c, std::uint64_t seed,
                           std::size_t round, std::size_t config) {
  NetworkConfig cfg = c.cfg;
  cfg.seed = round_seed(seed, round, config);
  return cfg;
}

/// Hash of every exact integer the merged result carries (tallies,
/// histograms, packet counts). Telemetry timers are wall-clock and left out.
std::uint64_t fingerprint(const NetworkResults& r) {
  Fingerprint f;
  f.add(r.packets_injected);
  f.add(r.packets_delivered);
  f.add(r.packets_dropped);
  const auto add_tally = [&](const ksw::stats::MomentTally& t) {
    const auto raw = t.raw();
    f.add(raw.n);
    f.add(static_cast<std::uint64_t>(raw.s1));
    f.add(static_cast<std::uint64_t>(raw.s2));
    f.add(static_cast<std::uint64_t>(raw.s2 >> 64));
    f.add(static_cast<std::uint64_t>(raw.s3));
    f.add(static_cast<std::uint64_t>(static_cast<__uint128_t>(raw.s3) >> 64));
    f.add(static_cast<std::uint64_t>(raw.min));
    f.add(static_cast<std::uint64_t>(raw.max));
  };
  for (const auto& t : r.stage_wait) add_tally(t);
  for (const auto& t : r.stage_depth) add_tally(t);
  for (const auto& h : r.total_wait) {
    f.add(h.total());
    for (std::int64_t v = 0; v <= h.max_value(); ++v) f.add(h.count(v));
  }
  return f.value();
}

/// The --inject tally hook: shift one call's stage-1 waiting sum by one
/// cycle per packet, as a wrong engine or merge would.
void alter_tally(NetworkResults& r) {
  auto raw = r.stage_wait.at(0).raw();
  raw.s1 += static_cast<std::int64_t>(raw.n);
  r.stage_wait[0] = ksw::stats::MomentTally::from_raw(raw);
}

double analytic_stage1(const SimCase& c) {
  const auto m = static_cast<std::uint32_t>(std::lround(c.cfg.service.mean()));
  return ksw::core::closed::eq8_mean(c.cfg.k, c.cfg.k, c.cfg.p, m);
}

/// Stage-1 mean waits of every call of each config, in round order.
using StageMeans = std::vector<std::vector<double>>;

void check_stage1(const std::vector<SimCase>& cases, const StageMeans& means,
                  Outcome& out) {
  constexpr double kAbs = 0.01, kRel = 0.02;
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const std::vector<double>& m = means[c];
    const double centre = median(m);
    std::vector<double> dev;
    for (double x : m) dev.push_back(std::abs(x - centre));
    const double sigma = 1.4826 * median(dev);
    const double target = cases[c].theorem1 ? analytic_stage1(cases[c]) : centre;
    const double tol = kAbs + kRel * std::abs(target);
    bool run_ok = true;
    if (cases[c].theorem1 && m.size() >= 2) {
      const auto ci = ksw::stats::replicate_interval(m, 0.95);
      run_ok = std::abs(ci.point - target) <= tol + ci.half_width;
      if (!run_ok)
        out.failures.push_back(cases[c].name + ": mean stage-1 wait " +
                               std::to_string(ci.point) + " vs eq. 8 " +
                               std::to_string(target));
    }
    for (std::size_t r = 0; r < m.size(); ++r) {
      const bool ok = run_ok && std::abs(m[r] - target) <= tol + 6.0 * sigma;
      char what[160];
      std::snprintf(what, sizeof what,
                    "%s round %zu: stage-1 wait %.6f vs %s %.6f",
                    cases[c].name.c_str(), r, m[r],
                    cases[c].theorem1 ? "eq. 8" : "run median", target);
      out.check(ok, what);
    }
  }
}

/// Structural invariants every merged result must satisfy.
bool well_formed(const SimCase& c, const NetworkResults& r) {
  return r.stage_wait.size() == c.cfg.stages &&
         r.total_wait.size() == c.cfg.total_checkpoints.size() &&
         r.stage_wait[0].count() > 0 && r.packets_delivered > 0 &&
         (c.cfg.buffer_capacity > 0 || r.packets_dropped == 0);
}

/// Pool construction plus one short call per config (pages in code and
/// data; lazy set-up finishes before the first timed call).
std::unique_ptr<ksw::par::ThreadPool> set_up(const std::vector<SimCase>& cases,
                                             std::uint64_t seed) {
  auto pool = std::make_unique<ksw::par::ThreadPool>(kThreads);
  for (std::size_t c = 0; c < cases.size(); ++c) {
    NetworkConfig cfg = round_config(cases[c], ~seed, 0, c);
    cfg.warmup_cycles = 50;
    cfg.measure_cycles = 100;
    (void)ksw::sim::replicate_network(cfg, kThreads, *pool);
  }
  return pool;
}

Outcome timed_run(const Options& opts, const std::vector<SimCase>& cases) {
  Outcome out;
  std::vector<double> setups;
  std::unique_ptr<ksw::par::ThreadPool> pool;
  for (int i = 0; i < 5; ++i) {
    pool.reset();
    const Clock::time_point t0 = Clock::now();
    pool = set_up(cases, opts.seed);
    setups.push_back(seconds_since(t0));
  }

  StageMeans means(cases.size());
  std::vector<double> round_s, round_rate;
  Fingerprint first_rounds;
  std::uint64_t delivered = 0;
  const Clock::time_point start = Clock::now();
  for (std::size_t r = 0;
       r < kMinRounds || seconds_since(start) < opts.seconds; ++r) {
    double wall = 0.0;
    std::uint64_t packets = 0;
    for (std::size_t c = 0; c < cases.size(); ++c) {
      const NetworkConfig cfg = round_config(cases[c], opts.seed, r, c);
      const Clock::time_point t0 = Clock::now();
      NetworkResults res =
          ksw::sim::replicate_network(cfg, cases[c].replicates, *pool);
      wall += seconds_since(t0);
      if (opts.inject == "tally" && r == 1 && c == 0) alter_tally(res);
      if (!well_formed(cases[c], res)) {
        out.check(false, cases[c].name + ": malformed result");
        continue;
      }
      packets += res.packets_delivered;
      means[c].push_back(res.stage_wait[0].mean());
      if (r < kTracedRounds) first_rounds.add(fingerprint(res));
    }
    delivered += packets;
    round_s.push_back(wall);
    round_rate.push_back(static_cast<double>(packets) / wall);
  }
  check_stage1(cases, means, out);

  out.metrics["throughput"] = median(round_rate);
  out.metrics["batch_p50_ms"] = 1e3 * quantile(round_s, 0.5);
  out.metrics["batch_p90_ms"] = 1e3 * quantile(round_s, 0.9);
  out.metrics["setup_s"] = median(setups);
  out.metrics["peak_rss_mb"] = peak_rss_mb();
  out.notes["rounds"] = std::to_string(round_s.size());
  out.notes["packets_delivered"] = std::to_string(delivered);
  char fp[32];
  std::snprintf(fp, sizeof fp, "%.0f", first_rounds.as_number());
  out.notes["sim.fingerprint"] = fp;
  out.notes["sim.fingerprint_rounds"] = std::to_string(kTracedRounds);
  return out;
}

/// One call decomposed into its public layers, with spans: per-replicate
/// sim::replicate_seed + sim::run_network on the pool, then the
/// index-order NetworkResults::merge on the caller.
NetworkResults decomposed_call(const SimCase& c, const NetworkConfig& base,
                               ksw::par::ThreadPool& pool,
                               ksw::obs::Tracer* tracer) {
  ksw::obs::Span call(tracer, "sim.call");
  call.label("config", c.name);
  std::vector<NetworkResults> parts(c.replicates);
  const double port_cycles =
      std::pow(static_cast<double>(base.k), base.stages) *
      static_cast<double>(base.warmup_cycles + base.measure_cycles);
  {
    ksw::obs::Span fan(tracer, "par.fanout");
    ksw::par::parallel_for_chunks(pool, c.replicates, [&](std::size_t i) {
      ksw::obs::Span rep(tracer, "sim.replicate", call.trace_id());
      NetworkConfig cfg = base;
      cfg.seed = ksw::sim::replicate_seed(base.seed, static_cast<unsigned>(i));
      parts[i] = ksw::sim::run_network(cfg);
      rep.label("config", c.name);
      rep.label("packets", std::to_string(parts[i].packets_delivered));
      rep.label("port_cycles", std::to_string(port_cycles));
    });
  }
  ksw::obs::Span merge(tracer, "sim.merge");
  merge.label("config", c.name);
  NetworkResults merged = std::move(parts[0]);
  for (unsigned i = 1; i < c.replicates; ++i) merged.merge(parts[i]);
  return merged;
}

Outcome traced_run(const Options& opts, const std::vector<SimCase>& cases) {
  Outcome out;
  TraceLedger ledger;
  ksw::obs::Tracer* tracer = ledger.tracer();
  ksw::obs::Span root(tracer, "perfbench.run");
  root.label("workload", opts.workload);
  for (const auto& [k, v] : machine_block()) root.label("machine." + k, v);

  auto pool = set_up(cases, opts.seed);
  const std::size_t calls = kTracedRounds * cases.size();
  // Pass A: the timed path (replicate_network, 2 threads).
  std::vector<std::uint64_t> fp_a(calls), fp_b(calls), fp_c(calls);
  StageMeans means(cases.size());
  std::uint64_t delivered = 0, dropped = 0;
  {
    ksw::obs::Span pass(tracer, "perfbench.pass");
    pass.label("pass", "replicate_network");
    for (std::size_t r = 0; r < kTracedRounds; ++r)
      for (std::size_t c = 0; c < cases.size(); ++c) {
        const NetworkResults res = ksw::sim::replicate_network(
            round_config(cases[c], opts.seed, r, c), cases[c].replicates,
            *pool);
        fp_a[r * cases.size() + c] = fingerprint(res);
        means[c].push_back(res.stage_wait.at(0).mean());
        delivered += res.packets_delivered;
        dropped += res.packets_dropped;
      }
  }
  check_stage1(cases, means, out);
  // Passes B: the same calls decomposed, first untraced (inert spans),
  // then traced; the difference is the tracing overhead.
  Fingerprint combined;
  for (ksw::obs::Tracer* t : {static_cast<ksw::obs::Tracer*>(nullptr), tracer}) {
    ksw::obs::Span pass(tracer, "perfbench.pass");
    pass.label("pass", t == nullptr ? "untraced" : "traced");
    for (std::size_t r = 0; r < kTracedRounds; ++r)
      for (std::size_t c = 0; c < cases.size(); ++c) {
        NetworkResults res = decomposed_call(
            cases[c], round_config(cases[c], opts.seed, r, c), *pool, t);
        if (t == nullptr) continue;
        if (opts.inject == "tally" && r == 1 && c == 0) alter_tally(res);
        fp_b[r * cases.size() + c] = fingerprint(res);
        combined.add(fp_b[r * cases.size() + c]);
      }
  }
  // Pass C: replicate_network again on a 1-thread pool.
  {
    ksw::obs::Span pass(tracer, "perfbench.pass");
    pass.label("pass", "one_thread");
    ksw::par::ThreadPool one(1);
    for (std::size_t r = 0; r < kTracedRounds; ++r)
      for (std::size_t c = 0; c < cases.size(); ++c)
        fp_c[r * cases.size() + c] = fingerprint(ksw::sim::replicate_network(
            round_config(cases[c], opts.seed, r, c), cases[c].replicates,
            one));
  }
  for (std::size_t i = 0; i < calls; ++i)
    out.check(fp_a[i] == fp_b[i] && fp_a[i] == fp_c[i],
              cases[i % cases.size()].name + " round " +
                  std::to_string(i / cases.size()) +
                  ": fingerprint differs across thread counts or call paths");
  // Reference oracle: one short replicate per config through the seed
  // engine must reproduce run_network bit for bit.
  for (std::size_t c = 0; c < cases.size(); ++c) {
    ksw::obs::Span ref(tracer, "sim.reference");
    ref.label("config", cases[c].name);
    NetworkConfig cfg = round_config(cases[c], ~opts.seed, 0, c);
    cfg.warmup_cycles = 100;
    cfg.measure_cycles = 300;
    out.check(fingerprint(ksw::sim::run_network(cfg)) ==
                  fingerprint(ksw::sim::run_network_reference(cfg)),
              cases[c].name + ": run_network differs from the reference");
  }
  char fp[32];
  std::snprintf(fp, sizeof fp, "%.0f", combined.as_number());
  root.label("sim.fingerprint", fp);
  root.label("sim.packets_delivered", std::to_string(delivered));
  root.label("sim.packets_dropped", std::to_string(dropped));
  root.end();

  out.trace_file = opts.trace_dir + "/" + opts.workload + ".trace.jsonl";
  ledger.write_and_reload(out.trace_file);
  auto& m = out.metrics;
  double busy = 0.0;
  for (const SimCase& c : cases) {
    const double ns = sum(ledger.durations("sim.replicate", "config", c.name));
    busy += ns;
    m["sim.ns_per_packet." + c.name] =
        ns / ledger.label_sum("sim.replicate", "packets", "config", c.name);
    m["sim.ns_per_port_cycle." + c.name] =
        ns / ledger.label_sum("sim.replicate", "port_cycles", "config", c.name);
  }
  const std::vector<double> reps = ledger.durations("sim.replicate");
  m["sim.replicate_s.p50"] = 1e-9 * quantile(reps, 0.5);
  m["sim.replicate_s.max"] = 1e-9 * quantile(reps, 1.0);
  m["sim.merge_ms"] = 1e-6 * median(ledger.durations("sim.merge"));
  m["sim.packets_delivered"] = ledger.label_sum("perfbench.run", "sim.packets_delivered");
  m["sim.packets_dropped"] = ledger.label_sum("perfbench.run", "sim.packets_dropped");
  m["sim.fingerprint"] = ledger.label_sum("perfbench.run", "sim.fingerprint");
  const double traced = sum(ledger.durations("perfbench.pass", "pass", "traced"));
  const double untraced = sum(ledger.durations("perfbench.pass", "pass", "untraced"));
  m["par.idle_share"] = 1.0 - busy / (static_cast<double>(kThreads) * traced);
  m["obs.trace_overhead"] = traced / untraced - 1.0;
  out.notes["sim.fingerprint"] = fp;
  out.notes["sim.fingerprint_rounds"] = std::to_string(kTracedRounds);
  return out;
}

}  // namespace

std::vector<std::string> sim_config_names() {
  return {"td_p0.2", "td_p0.5", "td_p0.8", "gate_k4",
          "det4",    "vct4",    "credit4", "obs_on"};
}

bool is_sim_workload(const std::string& name) {
  return name == "sim_fast" || name == "sim_general";
}

Outcome run_sim(const Options& opts) {
  const std::vector<SimCase> cases = cases_for(opts.workload);
  return opts.trace ? traced_run(opts, cases) : timed_run(opts, cases);
}

}  // namespace perfbench
