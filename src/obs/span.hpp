// Structured event tracing: RAII spans with trace/span/parent ids feeding
// a bounded lock-free sink (`Tracer`), serialized as the documented
// ksw.trace/v1 JSONL stream (obs/trace_export.hpp).
//
// Relationship to the metrics layer (obs/metrics.hpp): metrics aggregate
// (how many, how long in total), spans record *individual* timed events
// with identity and structure — per-request, per-grid-point, per-batch —
// so latency distributions and causal nesting stay observable at the
// same granularity the paper studies waiting times.
//
// Determinism contract: span ids, thread indices, and every duration are
// wall-clock artifacts and therefore nondeterministic. Tracing is opt-in
// (a null Tracer makes every Span inert) and never feeds numbers back
// into results. Trace ids MAY be deterministic when the caller derives
// them from stable keys (reproduce keys point spans to the
// checkpoint-journal manifest fingerprint, so resumed runs emit
// stitchable traces).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace ksw::obs {

/// 64-bit FNV-1a, used to derive stable trace ids from stable keys
/// (e.g. manifest fingerprint + section id + point index).
[[nodiscard]] std::uint64_t fnv1a64(std::string_view text) noexcept;

/// Fixed-width lowercase hex (16 chars) — the wire form of every id in
/// ksw.trace/v1 and of generated ksw.query/v1 trace_ids.
[[nodiscard]] std::string hex_id(std::uint64_t id);

/// Inverse of hex_id for well-formed 1..16-char hex strings; returns 0
/// (the "no id" value) on anything else.
[[nodiscard]] std::uint64_t parse_hex_id(std::string_view text) noexcept;

/// Fresh ksw.query/v1 trace ids for requests that arrive without one:
/// splitmix64 over a base drawn from the wall clock and the generator's
/// address, so ids differ across processes started in the same instant.
/// Unique, cheap, nondeterministic by design, and never 0. Thread-safe.
class TraceIdGenerator {
 public:
  TraceIdGenerator();

  TraceIdGenerator(const TraceIdGenerator&) = delete;
  TraceIdGenerator& operator=(const TraceIdGenerator&) = delete;

  [[nodiscard]] std::string next();

 private:
  std::uint64_t base_;
  std::atomic<std::uint64_t> seq_{0};
};

/// One completed span, as stored in the sink and serialized to the
/// trace stream.
struct SpanRecord {
  std::string name;
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;  ///< 0 = root span
  std::uint64_t start_ns = 0;   ///< relative to the tracer's epoch
  std::uint64_t dur_ns = 0;
  std::uint32_t tid = 0;  ///< dense per-process thread index
  std::vector<std::pair<std::string, std::string>> labels;
};

class Tracer;

/// RAII span handle. A default-constructed (or null-tracer) Span is
/// inert: every operation is a no-op, so call sites keep one code path
/// for traced and untraced runs — the ScopedTimer convention.
///
/// Parent linkage is per *thread*: spans opened on the same thread nest
/// under the innermost open span of the same tracer. A Span may be moved
/// but must start and end on the same thread.
class Span {
 public:
  Span() = default;
  Span(Tracer* tracer, std::string name, std::uint64_t trace_id = 0);
  ~Span() { end(); }

  Span(Span&& other) noexcept;
  Span& operator=(Span&& other) noexcept;
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attach a key/value label (kept in attach order; no-op when inert).
  void label(std::string key, std::string value);

  [[nodiscard]] bool active() const noexcept { return tracer_ != nullptr; }
  [[nodiscard]] std::uint64_t span_id() const noexcept {
    return rec_.span_id;
  }
  [[nodiscard]] std::uint64_t trace_id() const noexcept {
    return rec_.trace_id;
  }

  /// End the span now and emit it (idempotent; the destructor becomes a
  /// no-op afterwards).
  void end();

 private:
  Tracer* tracer_ = nullptr;
  SpanRecord rec_;
};

/// Bounded lock-free span sink. Writers claim a slot with one relaxed
/// fetch_add and publish it with a release store; once the buffer is
/// full further spans are *dropped and counted* — tracing degrades by
/// losing the tail, never by blocking the traced path.
///
/// snapshot() is meant for end-of-run export: it returns every published
/// record (claimed-but-unpublished slots — spans still open — are
/// skipped). The export layer canonicalizes ordering, so two runs that
/// emitted the same records serialize identically regardless of which
/// thread won each slot.
class Tracer {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 16;

  explicit Tracer(std::size_t capacity = kDefaultCapacity);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Open a span. `trace_id` 0 inherits the innermost open span's trace
  /// on this thread, or starts a fresh trace keyed by the span's own id.
  [[nodiscard]] Span span(std::string name, std::uint64_t trace_id = 0) {
    return Span(this, std::move(name), trace_id);
  }

  /// Store a completed record (thread-safe; drops when full).
  void emit(SpanRecord rec);

  /// Every published record, in slot-claim order.
  [[nodiscard]] std::vector<SpanRecord> snapshot() const;

  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }
  /// Published (completed) span count.
  [[nodiscard]] std::size_t size() const noexcept;
  [[nodiscard]] std::size_t capacity() const noexcept {
    return slots_.size();
  }

  /// Monotonic id source (starts at 1; 0 means "no id").
  [[nodiscard]] std::uint64_t next_span_id() noexcept {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Nanoseconds since the tracer's construction.
  [[nodiscard]] std::uint64_t now_ns() const noexcept;

 private:
  struct Slot {
    SpanRecord rec;
    std::atomic<bool> ready{false};
  };

  std::vector<Slot> slots_;
  std::atomic<std::uint64_t> claimed_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> next_id_{1};
  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace ksw::obs
