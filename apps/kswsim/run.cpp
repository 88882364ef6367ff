#include <exception>
#include <ostream>

#include "fault/injection.hpp"
#include "kswsim/cli.hpp"
#include "support/error.hpp"

namespace ksw::cli {

namespace {

constexpr const char* kUsage = R"(kswsim - waiting times in clocked multistage interconnection networks
(Kruskal-Snir-Weiss, ICPP 1986 / IEEE ToC 1988)

usage: kswsim <command> [options]

commands:
  analyze    exact first-stage waiting-time analysis (Theorem 1)
             --k=2 --s=2 --p=0.5 --bulk=1 --q=0 --service=det:1
             --distribution=N
  network    whole-network estimates (Sections IV-V)
             --k=2 --p=0.5 --stages=10 --bulk=1 --q=0 --service=det:1
             --quantiles=0.5,0.9,0.99
  simulate   cycle-accurate banyan network simulation
             --k=2 --stages=8 --p=0.5 --bulk=1 --q=0 --hotspot=0
             --hotspot-target=0  (must be a valid output port)
             --topology=butterfly|omega --service=det:1 --cycles=50000
             --warmup=auto --seed=1 --replicates=1 --threads=0
             --buffer-capacity=0 --flow=vct|saf|credit --credit-latency=2
             --correlations --checkpoints=3,6,9,12
             --metrics-out=FILE|- --obs-stride=64 --obs-trace=24
             --obs-wall  (structured run report; see docs/OBSERVABILITY.md)
  calibrate  re-fit the Section IV interpolation constants
             --k=2 --rho=0.5 --stages=8 --cycles=100000 --seed=1
  reproduce  regenerate the paper-reproduction book from a sweep manifest
             --manifest=manifests/paper.json --out-dir=docs/reproduction
             --index=docs/REPRODUCTION.md --threads=0
             --section=ID[,ID...] --list --check
             --resume --checkpoint=FILE --point-timeout=MS
             --fault-plan=FILE --trace-out=FILE
             (--check diffs committed pages against a fresh run; --resume
              continues an interrupted run from its checkpoint journal;
              see docs/REPRODUCTION.md and docs/ROBUSTNESS.md)
  serve      long-lived analytic query service (ksw.query/v1 JSONL)
             --listen=SOCKET --threads=0 --batch=64 --cache-mb=64
             --deadline-ms=0 --metrics-out=FILE|-
             --metrics-interval-ms=0 --access-log=FILE --trace-out=FILE
             (reads JSONL requests from stdin or a Unix socket, streams
              one response per request; per-request failures answer
              in-band via error.kind, not an exit code; repeated tuples
              are served bit-identically from a memoized evaluation
              cache; --access-log appends one JSONL row per request with
              trace_id, cache hit/miss, and queue/eval timing; a line
              over 1 MiB ends its stream; see docs/SERVING.md)
  trace      summarize / export ksw.trace/v1 span streams
             trace summarize --in=FILE --format=table|json|csv
             trace export --chrome --in=FILE --out=FILE|-
             (streams come from serve/reproduce --trace-out; --chrome
              emits Chrome trace-event JSON that loads in Perfetto; see
              docs/OBSERVABILITY.md)

common options:
  --format=table|json|csv   output format (default: table)
  --help                    this message

service specs: det:M (constant M cycles), geo:MU (geometric, mean 1/MU),
               multi:M1@P1,M2@P2,... (mixture of constant sizes)

exit codes: 0 ok, 1 internal error, 2 usage, 3 gate failure, 4 book
            drift, 5 I/O error, 6 numeric error, 7 degraded run,
            130 interrupted (see docs/ROBUSTNESS.md). `serve` maps
            per-request failures to in-band error.kind responses; its
            exit codes reflect only startup/transport/shutdown state
            (see docs/SERVING.md)

environment: KSW_FAULTS=site[@N][:MS],... arms deterministic fault-
             injection sites (testing; see docs/ROBUSTNESS.md)
             KSW_SIMD=off|scalar|avx2|auto picks the simulator's kernel
             level (off/scalar force the scalar oracle kernels)
)";

}  // namespace

int run(const std::vector<std::string>& args, std::ostream& out,
        std::ostream& err) {
  try {
    fault::arm_from_env();
    if (args.empty() || args[0] == "--help" || args[0] == "help") {
      out << kUsage;
      return args.empty() ? 2 : 0;
    }
    const std::string command = args[0];
    const ArgMap parsed =
        ArgMap::parse({args.begin() + 1, args.end()});
    if (parsed.has("help")) {
      out << kUsage;
      return 0;
    }
    if (command == "analyze") return cmd_analyze(parsed, out, err);
    if (command == "network") return cmd_network(parsed, out, err);
    if (command == "simulate") return cmd_simulate(parsed, out, err);
    if (command == "calibrate") return cmd_calibrate(parsed, out, err);
    if (command == "reproduce") return cmd_reproduce(parsed, out, err);
    if (command == "serve") return cmd_serve(parsed, out, err);
    if (command == "trace") return cmd_trace(parsed, out, err);
    err << "kswsim: unknown command '" << command << "'\n" << kUsage;
    return 2;
  } catch (const Error& e) {
    // Typed errors carry their exit code: 2 usage, 5 io, 6 numeric,
    // 130 interrupted (gate/drift are returned, not thrown).
    err << "kswsim: " << to_string(e.kind()) << ": " << e.what() << "\n";
    return e.exit_code();
  } catch (const std::exception& e) {
    err << "kswsim: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace ksw::cli
