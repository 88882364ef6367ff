// kswsim serve — long-lived analytic query service (ksw.query/v1).
//
//   kswsim serve [--listen=SOCKET] [--threads=T] [--batch=N]
//                [--cache-mb=MB] [--deadline-ms=MS] [--metrics-out=FILE|-]
//                [--metrics-interval-ms=MS] [--access-log=FILE]
//                [--trace-out=FILE]
//
// Reads JSONL requests from stdin (or accepts connections on a Unix
// socket with --listen) and streams one JSONL response per request, in
// request order. Requests that fail — unparseable line, unknown kernel,
// bad parameters, missed deadline — answer in-band with error.kind
// instead of terminating the process; only startup usage errors and
// transport failures use the usual exit codes. See docs/SERVING.md.
//
// Observability (docs/OBSERVABILITY.md, docs/SERVING.md):
//   --metrics-out writes a structured snapshot (ksw.obs.report/v1) on
//     shutdown — including the interrupted path, before exit 130. In
//     stdin mode `-` is rejected with a usage error: stdout is the JSONL
//     response channel and a metrics report interleaved into it would
//     corrupt the protocol stream.
//   --metrics-interval-ms additionally rewrites that snapshot atomically
//     every MS milliseconds while serving, for live monitoring.
//   --access-log appends one JSONL row per request: trace_id, kernel,
//     cache hit/miss + shard, queue-wait vs eval-wall split, outcome.
//   --trace-out records serve.batch/serve.request spans and writes a
//     ksw.trace/v1 stream on shutdown (see `kswsim trace`).
#include <optional>
#include <ostream>
#include <unistd.h>

#include "io/atomic.hpp"
#include "io/json.hpp"
#include "kswsim/cli.hpp"
#include "kswsim/metrics_ticker.hpp"
#include "obs/span.hpp"
#include "obs/trace_export.hpp"
#include "par/cancel.hpp"
#include "serve/service.hpp"
#include "support/error.hpp"

namespace ksw::cli {

int cmd_serve(const ArgMap& args, std::ostream& out, std::ostream& err) {
  serve::ServeOptions opts;
  opts.threads = static_cast<std::size_t>(args.get_count("threads", 0));
  opts.batch = static_cast<std::size_t>(args.get_count("batch", 64));
  opts.cache_mb = static_cast<std::uint64_t>(args.get_count("cache-mb", 64));
  opts.deadline_ms = args.get_count("deadline-ms", 0);
  if (opts.batch == 0) throw usage_error("--batch: must be at least 1");
  const std::string listen = args.get("listen", "");
  const std::string metrics_out = args.get("metrics-out", "");
  const std::int64_t metrics_interval =
      args.get_count("metrics-interval-ms", 0);
  opts.access_log = args.get("access-log", "");
  const std::string trace_out = args.get("trace-out", "");

  // Flags are validated before the first read, so a typo fails fast with
  // exit 2 instead of blocking on stdin.
  const auto unknown = args.unused();
  if (!unknown.empty()) {
    err << "serve: unknown option --" << unknown.front() << "\n";
    return 2;
  }
  if (metrics_out == "-" && listen.empty())
    throw usage_error(
        "--metrics-out=-: stdout is the JSONL response channel in stdin "
        "mode; write the snapshot to a file (or use --listen)");
  if (metrics_interval > 0 && (metrics_out.empty() || metrics_out == "-"))
    throw usage_error(
        "--metrics-interval-ms: requires --metrics-out=FILE to write the "
        "periodic snapshots to");

  // The tracer outlives the service; spans are exported once on the way
  // out (any path, including interrupted).
  obs::Tracer tracer;
  if (!trace_out.empty()) opts.tracer = &tracer;

  serve::Service service(opts);
  const par::CancelToken* cancel = &par::global_cancel_token();
  serve::ServeSummary summary;
  {
    std::optional<MetricsTicker> ticker;
    if (metrics_interval > 0)
      ticker.emplace(
          [&service] { return service.report().to_string(2) + "\n"; },
          metrics_out, metrics_interval, err, "serve");
    if (!listen.empty()) {
      err << "serve: listening on " << listen << "\n";
      summary = service.run_listen(listen, cancel);
    } else {
      // Poll-based reader on the raw descriptors, so a SIGTERM during a
      // blocked read is observed within ~200 ms.
      summary = service.run_fd(STDIN_FILENO, STDOUT_FILENO, cancel);
    }
  }

  // Snapshots are written on every path — including interrupted — so an
  // operator who SIGTERMs the service still gets its final counters and
  // the trace of everything served so far.
  if (!metrics_out.empty())
    write_snapshot(metrics_out, service.report().to_string(2) + "\n", out);
  if (!trace_out.empty())
    io::atomic_write_file(
        trace_out,
        obs::render_trace_jsonl(tracer.snapshot(), tracer.dropped()));

  if (summary.interrupted)
    throw interrupted_error("serve: shutdown requested (" +
                            std::to_string(summary.responses) + " of " +
                            std::to_string(summary.requests) +
                            " responses flushed)");
  err << "serve: " << summary.responses << " responses ("
      << summary.requests << " requests)\n";
  return 0;
}

}  // namespace ksw::cli
