// Declarative sweep manifests for the paper-reproduction harness.
//
// A manifest (JSON, see manifests/paper.json) names a set of *sections*,
// each of which regenerates one table of the reproduction book. A section
// declares a comparison kind, a parameter grid (Cartesian axes and/or
// explicit points), a simulation budget, and agreement tolerances; the
// runner executes every grid point, comparing analytic predictions against
// replicated simulation with confidence intervals.
//
// Parsing is strict: unknown keys anywhere, malformed grids, and duplicate
// grid points are hard errors, so a typo in a manifest fails loudly rather
// than silently skipping a table.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "io/json.hpp"
#include "sim/network.hpp"

namespace ksw::sweep {

/// What a section compares.
enum class SectionKind {
  /// Exact Theorem-1 first-stage analysis vs the single-switch simulator
  /// (Section II-III worked examples: uniform, bulk, favorite-output,
  /// constant / geometric / multi-size service, M/M/1 limit).
  kFirstStage,
  /// Eq. 11/12 per-stage mean convergence vs the full-network simulator
  /// (Section IV).
  kStageConvergence,
  /// Section V total-waiting mean and variance (the variance also split
  /// into summed stage variances and covariances) vs the full-network
  /// simulator at stage checkpoints, plus informational gamma-fit rows
  /// (p95 and binned total-variation distance; Figs. 3-8).
  kTotalDelay,
  /// Finite-buffer flow control vs the infinite-queue model: blocking
  /// probability (accept ratio) and last-stage waiting across a buffer
  /// depth grid, gated at the deepest depth where the finite network must
  /// have converged to the paper's infinite-queue predictions.
  kFiniteBuffer,
};

[[nodiscard]] const char* to_string(SectionKind kind);

/// Simulation budget for one section (defaults merged from the manifest's
/// top-level "defaults" block).
struct RunBudget {
  unsigned replicates = 4;
  std::int64_t measure_cycles = 20'000;
  std::int64_t warmup_cycles = -1;  ///< -1 => measure_cycles / 10
  std::uint64_t seed = 1;
  double ci_level = 0.95;

  [[nodiscard]] std::int64_t effective_warmup() const {
    return warmup_cycles >= 0 ? warmup_cycles : measure_cycles / 10;
  }
};

/// Agreement tolerances. A cell passes when
///   |sim - analytic| <= abs + rel * |analytic| + ci_half_width,
/// i.e. the manifest tolerance widened by the Monte-Carlo uncertainty at
/// the configured CI level. `rel` is mean_rel for mean-type cells and
/// var_rel for variance-type cells.
struct Tolerance {
  double mean_rel = 0.05;
  double var_rel = 0.15;
  double abs = 0.01;
};

/// One parameter combination of a section's grid. Unset keys take these
/// defaults, so points only spell out what varies.
struct Point {
  unsigned k = 2;
  unsigned s = 0;  ///< output ports; 0 => k (network sections require s==k)
  double p = 0.5;
  unsigned bulk = 1;
  double q = 0.0;
  /// Hot-spot traffic (finite_buffer sections only — the other kinds gate
  /// against analytic models that assume uniform/favorite traffic). The
  /// target port is range-checked at parse time by sim::check.
  double hotspot = 0.0;
  std::uint32_t hotspot_target = 0;
  std::string service = "det:1";

  /// Stable human-readable label ("k=2 p=0.5 service=det:4"), listing only
  /// values that differ from the defaults plus always k and p.
  [[nodiscard]] std::string label() const;

  [[nodiscard]] bool operator==(const Point& other) const = default;
};

struct Section {
  std::string id;     ///< file stem under the output dir; [a-z0-9-]
  std::string title;
  std::string notes;  ///< optional prose shown under the page heading
  SectionKind kind = SectionKind::kFirstStage;
  unsigned stages = 8;                ///< network sections
  std::vector<unsigned> checkpoints;  ///< total-delay sections (ascending)
  /// finite_buffer sections: ascending buffer-depth grid (required), the
  /// flow-control scheme ("vct"|"saf"|"credit" in the manifest), and the
  /// credit return latency (credit scheme only).
  std::vector<unsigned> depths;
  sim::FlowControl flow = sim::FlowControl::kCutThrough;
  unsigned credit_latency = 2;
  RunBudget budget;
  Tolerance tol;
  std::vector<Point> points;  ///< expanded grid, in declaration order
};

struct Manifest {
  std::string name;
  std::string title;
  std::string output_dir = "docs/reproduction";
  std::string index_path = "docs/REPRODUCTION.md";
  RunBudget defaults;
  Tolerance default_tol;
  std::vector<Section> sections;
};

/// The simulator config of a network section's point at one buffer depth
/// (0 = infinite queues, the finite_buffer oracle). The parser checks
/// every point at every depth with sim::check; the runner runs exactly
/// these configs, so the two cannot disagree.
[[nodiscard]] sim::NetworkConfig network_config(const Section& section,
                                                const Point& pt,
                                                unsigned depth = 0);

/// Parse a manifest document. Throws ksw::Error(kUsage) with a
/// descriptive message on any schema violation.
[[nodiscard]] Manifest parse_manifest(const io::Json& doc);

/// Read + parse a manifest file. Throws ksw::Error(kIo) when the file
/// cannot be opened and ksw::Error(kUsage) on schema violations.
[[nodiscard]] Manifest load_manifest(const std::string& path);

}  // namespace ksw::sweep
