// kswsim fleet — sharded ksw.query/v1 serve fleet behind one TCP port.
//
//   kswsim fleet [--workers=N] [--tcp=HOST:PORT|PORT]
//                [--queue-depth=D] [--deadline-ms=MS]
//                [--threads=T] [--batch=B] [--cache-mb=MB]
//                [--metrics-out=FILE|-] [--metrics-interval-ms=MS]
//                [--access-log=FILE] [--trace-out=FILE]
//                [--worker-binary=PATH]
//
// One supervisor process accepts any number of concurrent TCP clients,
// spawns N `kswsim serve` worker processes on socketpairs (stdin mode),
// and routes each request to a worker by the FNV-1a hash of its canonical
// cache key — so a repeated query always lands on the same worker's warm
// cache and fleet responses are bit-identical to single-process serve.
// The per-worker queue is bounded (--queue-depth); excess load is shed
// in-band with error.kind "overload". Dead workers are restarted; a
// crash-looping worker takes the fleet down with exit 8. See
// docs/OPERATIONS.md for the operator's handbook and docs/SERVING.md for
// the protocol addendum.
//
// --threads/--batch/--cache-mb/--deadline-ms are forwarded to every
// worker unchanged, so per-worker tuning is the same as single-process
// tuning. --access-log and --trace-out observe the *supervisor* hop
// (routing, queueing, relay); workers keep their own telemetry flags.
#include <optional>
#include <ostream>
#include <string>

#include "fleet/supervisor.hpp"
#include "io/atomic.hpp"
#include "io/json.hpp"
#include "kswsim/cli.hpp"
#include "kswsim/metrics_ticker.hpp"
#include "obs/span.hpp"
#include "obs/trace_export.hpp"
#include "par/cancel.hpp"
#include "support/error.hpp"

namespace ksw::cli {

namespace {

/// Parse --tcp=HOST:PORT or --tcp=PORT (host defaults to 127.0.0.1;
/// port 0 asks the kernel for an ephemeral port, announced on stderr).
void parse_tcp(const std::string& text, std::string* host, int* port) {
  std::string port_text = text;
  const auto colon = text.rfind(':');
  if (colon != std::string::npos) {
    *host = text.substr(0, colon);
    port_text = text.substr(colon + 1);
    if (host->empty())
      throw usage_error("--tcp: empty host in '" + text + "'");
  }
  try {
    std::size_t used = 0;
    const int p = std::stoi(port_text, &used);
    if (used != port_text.size() || p < 0 || p > 65535)
      throw std::invalid_argument(port_text);
    *port = p;
  } catch (const std::exception&) {
    throw usage_error("--tcp: bad port '" + port_text + "' in '" + text +
                      "' (want HOST:PORT or PORT)");
  }
}

}  // namespace

int cmd_fleet(const ArgMap& args, std::ostream& out, std::ostream& err) {
  fleet::FleetOptions opts;
  // --workers=0 and --queue-depth=0 are rejected by the Supervisor.
  opts.workers = static_cast<std::size_t>(args.get_count("workers", 4));
  parse_tcp(args.get("tcp", "127.0.0.1:0"), &opts.host, &opts.port);
  opts.queue_depth =
      static_cast<std::size_t>(args.get_count("queue-depth", 128));
  opts.deadline_ms = args.get_count("deadline-ms", 0);
  opts.worker_binary = args.get("worker-binary", "");
  opts.access_log = args.get("access-log", "");
  const std::string metrics_out = args.get("metrics-out", "");
  const std::int64_t metrics_interval =
      args.get_count("metrics-interval-ms", 0);
  const std::string trace_out = args.get("trace-out", "");

  // Worker pass-through: same names, same defaults as `kswsim serve`.
  const std::int64_t threads = args.get_count("threads", 0);
  const std::int64_t batch = args.get_count("batch", 64);
  const std::int64_t cache_mb = args.get_count("cache-mb", 64);
  if (batch == 0) throw usage_error("--batch: must be at least 1");
  opts.worker_args = {"--threads=" + std::to_string(threads),
                      "--batch=" + std::to_string(batch),
                      "--cache-mb=" + std::to_string(cache_mb)};
  if (opts.deadline_ms > 0)
    opts.worker_args.push_back("--deadline-ms=" +
                               std::to_string(opts.deadline_ms));

  const auto unknown = args.unused();
  if (!unknown.empty()) {
    err << "fleet: unknown option --" << unknown.front() << "\n";
    return 2;
  }
  if (metrics_interval > 0 && (metrics_out.empty() || metrics_out == "-"))
    throw usage_error(
        "--metrics-interval-ms: requires --metrics-out=FILE to write the "
        "periodic snapshots to");

  obs::Tracer tracer;
  if (!trace_out.empty()) opts.tracer = &tracer;

  fleet::FleetSummary summary;
  std::string final_report;
  {
    fleet::Supervisor supervisor(std::move(opts));
    supervisor.start(err);
    const par::CancelToken* cancel = &par::global_cancel_token();
    {
      std::optional<MetricsTicker> ticker;
      if (metrics_interval > 0)
        ticker.emplace(
            [&supervisor] {
              return supervisor.report().to_string(2) + "\n";
            },
            metrics_out, metrics_interval, err, "fleet");
      summary = supervisor.run(cancel, err);
    }
    final_report = supervisor.report().to_string(2) + "\n";
  }

  // Snapshots are written on every path — including interrupted — so an
  // operator who SIGTERMs the fleet still gets its final counters.
  if (!metrics_out.empty()) write_snapshot(metrics_out, final_report, out);
  if (!trace_out.empty())
    io::atomic_write_file(
        trace_out,
        obs::render_trace_jsonl(tracer.snapshot(), tracer.dropped()));

  if (summary.interrupted)
    throw interrupted_error("fleet: shutdown requested (" +
                            std::to_string(summary.responses) + " of " +
                            std::to_string(summary.requests) +
                            " responses flushed)");
  err << "fleet: " << summary.responses << " responses ("
      << summary.requests << " requests, " << summary.connections
      << " connections)\n";
  return 0;
}

}  // namespace ksw::cli
