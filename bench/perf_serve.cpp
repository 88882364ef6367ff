// Serve-path throughput probe: queries/sec with the evaluation cache on
// vs off, over a repeated-tuple ksw.query/v1 workload.
//
//   perf_serve [--requests=N] [--tuples=T] [--threads=W] [--quick]
//              [--out=FILE] [--no-gate] [--access-log=FILE]
//
// The workload repeats T distinct first_stage distribution queries (the
// most expensive analytic kernel) across N requests, the shape a client
// sweeping a dashboard or re-rendering a table produces. The cold
// service runs with --cache-mb=0 semantics (every request re-evaluates);
// the cached service uses the default cache, so all but the first
// occurrence of each tuple are hits returning memoized bytes.
//
// Each pass serves the workload through Service::run_fd, the loop behind
// `kswsim serve`, from a regular file to /dev/null: every line is
// readable at once, so each batch fills to 64 requests and the rate does
// not depend on pipe scheduling. Each mode runs five times, alternating,
// and keeps its fastest pass.
// Prints a human summary plus one machine-readable line prefixed
// "BENCH_serve.json" (also written to --out=FILE when given) — including
// per-request service-time p50/p99/p999 read back from the service's
// serve.service_us histogram, and the machine the run was measured on.
// --access-log additionally enables the request-telemetry path (JSONL
// access log + span tracer) so scripts/check_obs_overhead.sh can price it
// against the plain run.
//
// Unless --no-gate, exits 3 when cold or cached queries/sec falls more
// than 20% below the BENCH_serve.json in the working directory (the
// committed baseline when run from the repo root), or when that baseline
// is missing or measured a different workload. Two regression floors
// replace the old cached/cold >= 10x ratio, which failed whenever cold
// evaluation got faster and passed a cold slowdown.
#include <fcntl.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "io/atomic.hpp"
#include "io/json.hpp"
#include "machine.hpp"
#include "obs/span.hpp"
#include "serve/service.hpp"

namespace {

// A gated path may lose at most 20% of its baseline queries/sec.
constexpr double kFloor = 0.80;
constexpr int kPasses = 5;
constexpr const char* kBaselinePath = "BENCH_serve.json";

struct Options {
  std::size_t requests = 2000;
  std::size_t tuples = 8;
  std::size_t threads = 0;
  std::string out_path;
  std::string access_log;
  bool gate = true;
};

/// Per-request service-time quantiles (microseconds).
struct Latency {
  double p50 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
};

std::string build_workload(const Options& opt) {
  std::ostringstream os;
  for (std::size_t i = 0; i < opt.requests; ++i) {
    // T distinct tuples, interleaved; distribution=2048 makes the cold
    // evaluation do real PGF inversion work per request.
    os << R"({"kernel":"first_stage","id":)" << i
       << R"(,"params":{"p":0.)" << (i % opt.tuples + 1)
       << R"(,"k":4,"service":"det:2","distribution":2048}})" << "\n";
  }
  return os.str();
}

/// The request and response descriptors every pass shares: the workload
/// in an unlinked temporary file, rewound before each pass, and
/// /dev/null, so the probe times no sink of its own.
struct Files {
  int in = -1;
  int out = -1;
};

double run_once(const Options& opt, const Files& files, std::uint64_t cache_mb,
                ksw::serve::ServeSummary* summary, Latency* latency) {
  ksw::serve::ServeOptions sopts;
  sopts.threads = opt.threads;
  sopts.cache_mb = cache_mb;
  sopts.batch = 64;
  ksw::obs::Tracer tracer;
  if (!opt.access_log.empty()) {
    sopts.access_log = opt.access_log;
    sopts.tracer = &tracer;
  }
  ksw::serve::Service service(sopts);
  ::lseek(files.in, 0, SEEK_SET);
  const auto start = std::chrono::steady_clock::now();
  *summary = service.run_fd(files.in, files.out, nullptr);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const auto& hists = service.registry().histograms();
  if (const auto it = hists.find("serve.service_us"); it != hists.end()) {
    latency->p50 = it->second->quantile(0.5);
    latency->p99 = it->second->quantile(0.99);
    latency->p999 = it->second->quantile(0.999);
  }
  return wall;
}

/// Fastest of kPasses runs for one cache mode.
struct Best {
  double wall = 0.0;
  ksw::serve::ServeSummary summary;
  Latency latency;
};

void keep_faster(Best& best, const Options& opt, const Files& files,
                 std::uint64_t cache_mb) {
  Best run;
  run.wall = run_once(opt, files, cache_mb, &run.summary, &run.latency);
  if (best.wall == 0.0 || run.wall < best.wall) best = run;
}

/// The two regression floors against the baseline record; false fails.
bool gate(const ksw::io::Json& run) {
  std::ifstream in(kBaselinePath);
  if (!in) {
    std::fprintf(stderr,
                 "perf_serve: GATE FAILED: no %s in the working directory "
                 "(run from the repo root, or record one with --out)\n",
                 kBaselinePath);
    return false;
  }
  std::stringstream text;
  text << in.rdbuf();
  const ksw::io::Json base = ksw::io::Json::parse(text.str());
  for (const char* key : {"requests", "tuples", "threads", "access_log"}) {
    if (base.get(key).to_string() != run.get(key).to_string()) {
      std::fprintf(stderr,
                   "perf_serve: GATE FAILED: %s measured %s=%s, this run "
                   "%s; record a baseline for this workload\n",
                   kBaselinePath, key, base.get(key).to_string().c_str(),
                   run.get(key).to_string().c_str());
      return false;
    }
  }
  if (base.get("machine").to_string() != run.get("machine").to_string())
    std::printf("  note: baseline machine %s\n        this machine     %s\n",
                base.get("machine").to_string().c_str(),
                run.get("machine").to_string().c_str());
  bool ok = true;
  for (const char* key : {"qps_cold", "qps_cached"}) {
    const double now = run.at(key).as_double();
    const double was = base.at(key).as_double();
    const bool pass = now >= kFloor * was;
    std::printf("  %-10s %.3e vs baseline %.3e (%.2fx)%s\n", key, now, was,
                now / was, pass ? "" : "  REGRESSED");
    ok &= pass;
  }
  if (!ok)
    std::fprintf(stderr,
                 "perf_serve: GATE FAILED: queries/sec more than %.0f%% "
                 "below %s\n",
                 100.0 * (1.0 - kFloor), kBaselinePath);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      opt.requests = 300;
    } else if (arg == "--no-gate") {
      opt.gate = false;
    } else if (arg.rfind("--requests=", 0) == 0) {
      opt.requests = static_cast<std::size_t>(std::stoul(arg.substr(11)));
    } else if (arg.rfind("--tuples=", 0) == 0) {
      opt.tuples = static_cast<std::size_t>(std::stoul(arg.substr(9)));
    } else if (arg.rfind("--threads=", 0) == 0) {
      opt.threads = static_cast<std::size_t>(std::stoul(arg.substr(10)));
    } else if (arg.rfind("--out=", 0) == 0) {
      opt.out_path = arg.substr(6);
    } else if (arg.rfind("--access-log=", 0) == 0) {
      opt.access_log = arg.substr(13);
    } else {
      std::fprintf(stderr,
                   "perf_serve: unknown option %s\n"
                   "usage: perf_serve [--requests=N] [--tuples=T] "
                   "[--threads=W] [--quick] [--out=FILE] [--no-gate] "
                   "[--access-log=FILE]\n",
                   arg.c_str());
      return 2;
    }
  }
  if (opt.tuples == 0 || opt.requests < opt.tuples) {
    std::fprintf(stderr, "perf_serve: need requests >= tuples >= 1\n");
    return 2;
  }

  std::FILE* workload = std::tmpfile();
  Files files;
  files.out = ::open("/dev/null", O_WRONLY);
  if (workload == nullptr || files.out < 0) {
    std::fprintf(stderr, "perf_serve: cannot open the workload file\n");
    return 5;
  }
  const std::string text = build_workload(opt);
  std::fwrite(text.data(), 1, text.size(), workload);
  std::fflush(workload);
  files.in = ::fileno(workload);

  Best cold;
  Best cached;
  for (int pass = 0; pass < kPasses; ++pass) {
    keep_faster(cold, opt, files, /*cache_mb=*/0);
    keep_faster(cached, opt, files, /*cache_mb=*/64);
  }
  std::fclose(workload);
  ::close(files.out);
  const double cold_s = cold.wall;
  const double cached_s = cached.wall;
  const Latency& cold_lat = cold.latency;
  const Latency& cached_lat = cached.latency;

  const double qps_cold = static_cast<double>(opt.requests) / cold_s;
  const double qps_cached = static_cast<double>(opt.requests) / cached_s;
  const double speedup = qps_cached / qps_cold;

  std::printf("serve throughput (%zu requests over %zu tuples%s, best of %d):\n",
              opt.requests, opt.tuples,
              opt.access_log.empty() ? "" : ", access log on", kPasses);
  std::printf(
      "  cold    %.4f s  (%.3e queries/sec, cache off)  "
      "p50/p99/p999 %.1f/%.1f/%.1f us\n",
      cold_s, qps_cold, cold_lat.p50, cold_lat.p99, cold_lat.p999);
  std::printf(
      "  cached  %.4f s  (%.3e queries/sec)  "
      "p50/p99/p999 %.1f/%.1f/%.1f us\n",
      cached_s, qps_cached, cached_lat.p50, cached_lat.p99, cached_lat.p999);
  std::printf("  speedup %.1fx\n", speedup);

  ksw::io::Json j = ksw::io::Json::object();
  j.set("requests", static_cast<std::uint64_t>(opt.requests));
  j.set("tuples", static_cast<std::uint64_t>(opt.tuples));
  j.set("threads", static_cast<std::uint64_t>(opt.threads));
  j.set("cold_wall_s", cold_s);
  j.set("cached_wall_s", cached_s);
  j.set("qps_cold", qps_cold);
  j.set("qps_cached", qps_cached);
  j.set("speedup", speedup);
  j.set("responses_cold", cold.summary.responses);
  j.set("responses_cached", cached.summary.responses);
  j.set("access_log", !opt.access_log.empty());
  j.set("cold_p50_us", cold_lat.p50);
  j.set("cold_p99_us", cold_lat.p99);
  j.set("cold_p999_us", cold_lat.p999);
  j.set("cached_p50_us", cached_lat.p50);
  j.set("cached_p99_us", cached_lat.p99);
  j.set("cached_p999_us", cached_lat.p999);
  j.set("machine", ksw::bench::machine_block());
  std::printf("BENCH_serve.json %s\n", j.to_string(0).c_str());
  if (!opt.out_path.empty())
    ksw::io::atomic_write_file(opt.out_path, j.to_string(2) + "\n");

  if (opt.gate && !gate(j)) return 3;
  return 0;
}
