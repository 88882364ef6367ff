// Executes a sweep manifest: every grid point of every section, comparing
// analytic predictions against replicated simulation.
//
// Determinism contract (inherited from sim::replicate_*): each replicate's
// seed depends only on (section seed, replicate index); replicates run on
// the shared thread pool but are merged and reduced in strict index order,
// so every number in a SweepResult — point estimates, CI half-widths, gate
// verdicts — is bit-identical for a fixed manifest at any thread count.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/span.hpp"
#include "par/thread_pool.hpp"
#include "sweep/manifest.hpp"

namespace ksw::sweep {

/// One compared quantity (a row cell pair in the generated tables).
struct Cell {
  std::string metric;     ///< e.g. "E[w]", "stage 3 E[w]", "n=6 Var[total]"
  double analytic = 0.0;  ///< model prediction
  double simulated = 0.0; ///< merged-replicate point estimate
  double ci_half = 0.0;   ///< CI half-width at the section's ci_level
  double rel_error = 0.0; ///< |sim - analytic| / |analytic| (absolute if 0)
  bool mean_like = true;  ///< gates with mean_rel (else var_rel)
  bool gated = true;      ///< informational cells carry no pass/fail
  bool pass = true;

  /// Evaluate the agreement gate against `tol` (sets rel_error and pass).
  void judge(const Tolerance& tol);
};

/// All comparisons for one grid point.
struct PointResult {
  Point point;
  std::string label;
  std::uint64_t samples = 0;  ///< messages/packets measured (all replicates)
  std::vector<Cell> cells;
  /// A degraded point failed to compute (a replicate threw, the analytic
  /// model hit a numeric error) or blew through the soft per-point
  /// deadline. Degraded points keep whatever cells they produced, carry
  /// the reason, are excluded from gate counting when empty, and are never
  /// checkpointed — a resumed run retries them. A run with degraded points
  /// exits with ksw::kExitDegraded rather than failing the gates.
  bool degraded = false;
  std::string degrade_reason;

  [[nodiscard]] bool pass() const;
};

struct SectionResult {
  Section section;
  std::vector<PointResult> points;

  [[nodiscard]] unsigned cells_gated() const;
  [[nodiscard]] unsigned cells_failed() const;
  [[nodiscard]] unsigned points_degraded() const;
};

struct SweepResult {
  std::vector<SectionResult> sections;

  [[nodiscard]] unsigned cells_gated() const;
  [[nodiscard]] unsigned cells_failed() const;
  [[nodiscard]] unsigned points_degraded() const;
  [[nodiscard]] bool pass() const { return cells_failed() == 0; }
};

class Journal;

/// Resilience knobs for a sweep run. All default to off, reproducing the
/// historic run_sweep behavior exactly.
struct RunOptions {
  /// Checked between grid points and inside the replicate fan-out; when it
  /// fires, run_sweep throws ksw::Error(kInterrupted) (it does NOT degrade
  /// the in-flight point — interruption is the caller's signal, not a
  /// model failure).
  const par::CancelToken* cancel = nullptr;
  /// When set, completed points are read from / recorded to the journal:
  /// already-journaled points are skipped wholesale (their recorded result
  /// is reused bit-exactly) and each newly completed clean point is
  /// persisted before the next one starts. Resume is replicate-granular:
  /// inside a point, each completed replicate is persisted as a shard and
  /// replayed on resume, so a run killed mid-replicate only recomputes the
  /// replicates that were in flight (see sweep/checkpoint.hpp).
  Journal* journal = nullptr;
  /// Soft per-point wall-clock deadline in milliseconds (0 = off). Points
  /// are never aborted mid-flight — that would make the emitted numbers
  /// depend on machine speed; instead a point that finishes over deadline
  /// is marked degraded (and not journaled) while the sweep continues.
  std::int64_t point_timeout_ms = 0;
  /// One line per section as it completes, when non-null.
  std::ostream* progress = nullptr;
  /// Span sink (not owned; nullptr = tracing off). Each section and each
  /// grid point emits a span; point trace ids are derived from
  /// `trace_key` + section id + point index, so they are *stable across
  /// runs of the same manifest* — an interrupted run and its --resume
  /// continuation emit stitchable traces, with replayed-from-journal
  /// points labelled source=journal.
  obs::Tracer* tracer = nullptr;
  /// Stable trace-id salt; use the checkpoint journal's manifest
  /// fingerprint (sweep::manifest_fingerprint).
  std::string trace_key;
};

/// Run one section (exposed for tests and --section filtering). A point
/// whose computation throws (other than kInterrupted) is marked degraded
/// and the remaining points still run.
[[nodiscard]] SectionResult run_section(const Section& section,
                                        par::ThreadPool& pool);

/// Run every section of the manifest with resilience options.
[[nodiscard]] SweepResult run_sweep(const Manifest& manifest,
                                    par::ThreadPool& pool,
                                    const RunOptions& options);

/// Back-compatible convenience overload (no cancellation, journal, or
/// deadline). `progress`, when non-null, receives one line per section as
/// it completes.
[[nodiscard]] SweepResult run_sweep(const Manifest& manifest,
                                    par::ThreadPool& pool,
                                    std::ostream* progress = nullptr);

}  // namespace ksw::sweep
