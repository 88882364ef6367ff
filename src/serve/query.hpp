// The ksw.query/v1 wire model: one analytic request per JSONL line.
//
// A request names a kernel (first_stage, later_stages, closed_form,
// total_delay, finite_buffer, buffer_sweep) plus its parameter tuple.
// Kruskal-Snir-Weiss evaluations — analytic formulas and seeded
// simulations alike — are pure functions of that tuple, so every request has a
// *canonical form* — defaults filled in, keys in fixed order, doubles in
// hexfloat — which is what the evaluation cache hashes (FNV-1a) and
// compares. Two requests that differ only in spelling ({"p":0.5} vs
// {"p":5e-1}, key order, whitespace) share one cache entry and return
// bit-identical result bytes.
//
// The full schema, error-kind vocabulary, and cache/deadline semantics
// are documented in docs/SERVING.md.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "io/json.hpp"
#include "obs/span.hpp"
#include "sim/network.hpp"

namespace ksw::serve {

/// Longest request line, newline excluded, that serve reads. A
/// longer line ends its stream whether or not its newline has arrived:
/// stdin mode exits with kIo, a socket connection is closed.
inline constexpr std::size_t kMaxLineBytes = std::size_t{1} << 20;

/// The kernels a request can name. The first four are analytic
/// (closed-form, instant); the finite-buffer pair run the cycle-accurate
/// network simulation, which is still a pure function of the tuple (seeds
/// are part of it) so caching stays sound — but cost scales with
/// ports x cycles x replicates, hence the hard caps enforced at parse
/// time (ports <= 4096, cycles <= 200000, replicates <= 8, depths <= 16)
/// on top of the engine's own domain check, sim::check.
enum class Kernel {
  kFirstStage,    ///< Theorem 1: exact first-stage moments + distribution
  kLaterStages,   ///< Section IV: eq. 11-14 stage estimates
  kClosedForm,    ///< Section III printed closed forms, by family
  kTotalDelay,    ///< Section V: totals + gamma approximation
  kFiniteBuffer,  ///< simulated finite-buffer network at one depth
  kBufferSweep,   ///< finite_buffer over a depth grid + infinite baseline
};

[[nodiscard]] const char* kernel_name(Kernel kernel) noexcept;

/// In-band error vocabulary of ksw.query/v1 responses. A serve process
/// answers a bad request with {"ok":false,"error":{"kind":...}} instead
/// of exiting — the PR-4 exit-code taxonomy applies only to transport
/// and startup failures (see docs/ROBUSTNESS.md).
namespace wire {
inline constexpr const char* kUsage = "usage";              ///< bad request
inline constexpr const char* kNumeric = "numeric";          ///< model guard
inline constexpr const char* kDeadline = "deadline";        ///< expired
inline constexpr const char* kInterrupted = "interrupted";  ///< shutdown
inline constexpr const char* kInternal = "internal";        ///< a bug
}  // namespace wire

/// Parameter tuple of one request, defaults filled in. Construction goes
/// through Request::parse, which validates strictly (unknown keys, bad
/// types, and out-of-domain values are usage errors).
struct Query {
  Kernel kernel = Kernel::kFirstStage;

  // Traffic tuple (first_stage / later_stages / total_delay).
  unsigned k = 2;      ///< switch degree
  unsigned s = 2;      ///< first_stage only: output count (defaults to k)
  double p = 0.5;      ///< per-input arrival probability per cycle
  unsigned bulk = 1;   ///< messages per batch
  double q = 0.0;      ///< favorite-output probability
  std::string service = "det:1";  ///< service spec, kept verbatim

  unsigned distribution = 0;  ///< first_stage: P(w=j) prefix length
  unsigned stage = 0;         ///< later_stages: 1-based stage (0 = limit only)
  unsigned stages = 10;       ///< total_delay: network depth
  std::vector<double> quantiles{0.5, 0.9, 0.99};  ///< total_delay

  // closed_form tuple.
  std::string family;  ///< uniform|bulk|nonuniform|geometric|deterministic
  unsigned b = 1;      ///< closed_form bulk/nonuniform batch size
  double mu = 0.5;     ///< closed_form geometric service parameter
  unsigned m = 1;      ///< closed_form deterministic service time

  // finite_buffer / buffer_sweep simulation tuple. `stages` above is
  // shared (these kernels default it to 3). credit_latency is normalized
  // to 0 at parse time unless flow is credit, so requests that differ
  // only in an inert credit_latency share a cache entry.
  unsigned depth = 4;            ///< finite_buffer: buffer slots per queue
  std::vector<unsigned> depths;  ///< buffer_sweep: ascending depth grid
  sim::FlowControl flow = sim::FlowControl::kCutThrough;  ///< vct|saf|credit
  unsigned credit_latency = 0;   ///< credit only: return latency (cycles)
  unsigned cycles = 20'000;      ///< measured cycles per replicate
  unsigned warmup = 2'000;       ///< warmup cycles per replicate
  unsigned replicates = 1;       ///< independent replicates, merged
  unsigned seed = 1;             ///< base seed (replicate i derives from it)

  /// Canonical request string — the cache identity. Pure function of the
  /// parsed tuple: fixed key order, defaults materialized, doubles as
  /// hexfloats, the service spec verbatim.
  [[nodiscard]] std::string canonical() const;
};

/// The simulator config of a query at one buffer depth: its traffic tuple
/// (all the analytic network kernels read) plus, for finite_buffer and
/// buffer_sweep, the simulated network. Depth 0 is infinite queues (the
/// buffer_sweep baseline), where the flow scheme does not apply.
/// Request::parse checks it at every depth a simulation kernel runs.
[[nodiscard]] sim::NetworkConfig sim_config(const Query& q, unsigned depth);

/// One parsed request line. `error_kind` empty means the request is valid
/// and `query` is meaningful; otherwise the request already failed and
/// carries its in-band error.
struct Request {
  io::Json id;  ///< echoed verbatim (null when absent)
  /// Client-supplied trace id (echoed verbatim in the response and the
  /// access log). Empty = none; the service generates one when request
  /// observability (--access-log / --trace-out) is on.
  std::string trace_id;
  Query query;
  /// Effective deadline after merging the request with the server default:
  /// a positive request value wins, otherwise the server's --deadline-ms
  /// applies (an explicit "deadline_ms": 0 does NOT override it). 0 here
  /// means no deadline at all.
  std::int64_t deadline_ms = 0;
  std::chrono::steady_clock::time_point arrival{};

  std::string error_kind;  ///< one of wire::*, or empty
  std::string error_message;

  [[nodiscard]] bool valid() const noexcept { return error_kind.empty(); }

  /// Parse one JSONL line. Never throws: malformed JSON, unknown kernels,
  /// unknown or mistyped params all come back as a Request whose
  /// error_kind is wire::kUsage. `default_deadline_ms` applies when the
  /// request carries no deadline of its own.
  [[nodiscard]] static Request parse(const std::string& line,
                                     std::int64_t default_deadline_ms = 0);
};

/// 64-bit FNV-1a, hashed over the canonical request string.
using obs::fnv1a64;

/// Render a success response line (no trailing newline): the envelope
/// around pre-serialized result bytes, which are spliced in verbatim so
/// cached and freshly computed responses are bit-identical. A non-empty
/// `trace_id` adds a "trace_id" field right after "id"; the default
/// keeps the historic envelope byte-for-byte.
[[nodiscard]] std::string render_ok(const io::Json& id, Kernel kernel,
                                    bool cached,
                                    const std::string& result_bytes,
                                    const std::string& trace_id = {});

/// Render an error response line (no trailing newline).
[[nodiscard]] std::string render_error(const io::Json& id,
                                       const std::string& kind,
                                       const std::string& message,
                                       const std::string& trace_id = {});

}  // namespace ksw::serve
