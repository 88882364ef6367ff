#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <sstream>
#include <string>

#include "io/json.hpp"
#include "par/thread_pool.hpp"
#include "sim/first_stage_sim.hpp"
#include "sweep/checkpoint.hpp"
#include "sweep/emit.hpp"
#include "sweep/manifest.hpp"
#include "sweep/runner.hpp"

namespace ksw::sweep {
namespace {

// A deliberately small manifest covering all three section kinds, sized so
// the whole suite stays fast while still exercising every code path the
// paper manifest uses.
Manifest tiny_manifest() {
  const char* text = R"({
    "schema": "ksw.sweep/v1",
    "name": "tiny",
    "title": "Tiny test book",
    "output_dir": "out",
    "index_path": "out/INDEX.md",
    "defaults": {
      "replicates": 3,
      "measure_cycles": 4000,
      "warmup_cycles": 500,
      "seed": 11,
      "mean_rel_tol": 0.2,
      "var_rel_tol": 0.5,
      "abs_tol": 0.1
    },
    "sections": [
      { "id": "first", "title": "First stage", "kind": "first_stage",
        "grid": { "axes": { "p": [0.5] } } },
      { "id": "stages", "title": "Stages", "kind": "stage_convergence",
        "stages": 3, "measure_cycles": 3000,
        "grid": { "points": [{ "p": 0.5 }] } },
      { "id": "totals", "title": "Totals", "kind": "total_delay",
        "stages": 3, "checkpoints": [2, 3], "measure_cycles": 3000,
        "grid": { "points": [{ "p": 0.5 }] } },
      { "id": "buffers", "title": "Buffers", "kind": "finite_buffer",
        "stages": 3, "depths": [1, 8], "measure_cycles": 3000,
        "grid": { "points": [{ "p": 0.5 }] } }
    ]
  })";
  return parse_manifest(io::Json::parse(text));
}

std::string book_bytes(const Manifest& m, unsigned threads) {
  par::ThreadPool pool(threads);
  const SweepResult result = run_sweep(m, pool);
  std::string all;
  for (const Artifact& a : render_book(m, result)) {
    all += a.path;
    all += '\0';
    all += a.content;
    all += '\0';
  }
  return all;
}

TEST(Runner, FirstStageAgreesWithTheorem1) {
  const Manifest m = tiny_manifest();
  par::ThreadPool pool(2);
  const SectionResult r = run_section(m.sections[0], pool);
  ASSERT_EQ(r.points.size(), 1u);
  const PointResult& pt = r.points[0];
  ASSERT_EQ(pt.cells.size(), 2u);
  // k=2, p=0.5, unit service: E[w] = Var[w] = 1/4 (eqs. 6-7).
  EXPECT_DOUBLE_EQ(pt.cells[0].analytic, 0.25);
  EXPECT_DOUBLE_EQ(pt.cells[1].analytic, 0.25);
  EXPECT_NEAR(pt.cells[0].simulated, 0.25, 0.05);
  EXPECT_GT(pt.cells[0].ci_half, 0.0);
  EXPECT_TRUE(pt.pass());
  EXPECT_GT(pt.samples, 0u);
}

TEST(Runner, StageConvergenceEmitsOneGatePerStagePlusLimit) {
  const Manifest m = tiny_manifest();
  par::ThreadPool pool(2);
  const SectionResult r = run_section(m.sections[1], pool);
  ASSERT_EQ(r.points.size(), 1u);
  const auto& cells = r.points[0].cells;
  ASSERT_EQ(cells.size(), 4u);  // stages 1..3 + ungated eq. 11 limit
  EXPECT_EQ(cells[0].metric, "stage 1 E[w]");
  EXPECT_TRUE(cells[0].gated);
  EXPECT_FALSE(cells[3].gated);
  EXPECT_EQ(r.cells_gated(), 3u);
}

TEST(Runner, TotalDelayEmitsCheckpointCells) {
  const Manifest m = tiny_manifest();
  par::ThreadPool pool(2);
  const SectionResult r = run_section(m.sections[2], pool);
  ASSERT_EQ(r.points.size(), 1u);
  const auto& cells = r.points[0].cells;
  // 2 checkpoints x (mean, var, stage-variance sum, covariance, p95, TV).
  ASSERT_EQ(cells.size(), 12u);
  EXPECT_EQ(cells[0].metric, "n=2 E[total]");
  EXPECT_EQ(cells[1].metric, "n=2 Var[total]");
  EXPECT_EQ(cells[2].metric, "n=2 ΣVar[stage]");
  EXPECT_EQ(cells[3].metric, "n=2 2ΣCov[stages]");
  EXPECT_EQ(cells[4].metric, "n=2 p95");
  EXPECT_EQ(cells[5].metric, "n=2 binned TV(gamma)");
  EXPECT_EQ(cells[6].metric, "n=3 E[total]");
  EXPECT_FALSE(cells[1].mean_like);
  EXPECT_FALSE(cells[2].mean_like);
  EXPECT_FALSE(cells[3].mean_like);
  EXPECT_TRUE(cells[2].gated);
  EXPECT_TRUE(cells[3].gated);
  EXPECT_FALSE(cells[4].gated);  // p95 is informational
  EXPECT_EQ(r.cells_gated(), 8u);
}

TEST(Runner, TotalDelayVarianceSplitsIntoStagesAndCovariance) {
  const Manifest m = tiny_manifest();
  par::ThreadPool pool(2);
  const SectionResult r = run_section(m.sections[2], pool);
  ASSERT_EQ(r.points.size(), 1u);
  const auto& cells = r.points[0].cells;
  ASSERT_EQ(cells.size(), 12u);
  for (std::size_t c = 0; c < 2; ++c) {
    const Cell& var = cells[6 * c + 1];
    const Cell& stages = cells[6 * c + 2];
    const Cell& cov = cells[6 * c + 3];
    const Cell& tv = cells[6 * c + 5];
    const auto near = [](double a, double b) {
      return std::abs(a - b) <= 1e-9 * std::abs(b);
    };
    // Both columns decompose Var[total] exactly: the model by
    // construction, the simulation because the covariance is the remainder.
    EXPECT_TRUE(near(stages.analytic + cov.analytic, var.analytic));
    EXPECT_TRUE(near(stages.simulated + cov.simulated, var.simulated));
    // The inter-stage covariances are positive in both.
    EXPECT_GT(cov.analytic, 0.0);
    EXPECT_GT(cov.simulated, 0.0);
    EXPECT_GT(stages.ci_half, 0.0);
    EXPECT_GT(cov.ci_half, 0.0);
    // The binned TV distance is ungated and reported in absolute terms.
    EXPECT_FALSE(tv.gated);
    EXPECT_EQ(tv.analytic, 0.0);
    EXPECT_GT(tv.simulated, 0.0);
    EXPECT_LT(tv.simulated, 1.0);
    EXPECT_DOUBLE_EQ(tv.rel_error, tv.simulated);
  }
}

TEST(Runner, FiniteBufferGatesOnlyTheDeepestDepth) {
  const Manifest m = tiny_manifest();
  par::ThreadPool pool(2);
  const SectionResult r = run_section(m.sections[3], pool);
  ASSERT_EQ(r.points.size(), 1u);
  const auto& cells = r.points[0].cells;
  // eq. 12 oracle pin + (accept, E[w last]) per depth.
  ASSERT_EQ(cells.size(), 5u);
  EXPECT_EQ(cells[0].metric, "infinite E[w last] (eq. 12)");
  EXPECT_TRUE(cells[0].gated);
  EXPECT_EQ(cells[1].metric, "depth=1 accept");
  EXPECT_FALSE(cells[1].gated);  // shallow depths are informational
  EXPECT_FALSE(cells[2].gated);
  EXPECT_EQ(cells[3].metric, "depth=8 accept");
  EXPECT_TRUE(cells[3].gated);
  EXPECT_TRUE(cells[4].gated);
  // Depth 1 at rho = 0.5 visibly rejects traffic; depth 8 accepts all of
  // it and reproduces the infinite-queue oracle.
  EXPECT_LT(cells[1].simulated, 1.0);
  EXPECT_DOUBLE_EQ(cells[3].analytic, 1.0);
  EXPECT_TRUE(r.points[0].pass());
}

TEST(Runner, GateWidensWithConfidenceInterval) {
  Tolerance tol;
  tol.mean_rel = 0.0;
  tol.var_rel = 0.0;
  tol.abs = 0.0;
  Cell cell;
  cell.analytic = 1.0;
  cell.simulated = 1.05;
  cell.ci_half = 0.1;
  cell.judge(tol);
  EXPECT_TRUE(cell.pass);
  cell.ci_half = 0.01;
  cell.judge(tol);
  EXPECT_FALSE(cell.pass);
  EXPECT_NEAR(cell.rel_error, 0.05, 1e-12);
}

TEST(Emit, SectionPageShowsGateVerdicts) {
  const Manifest m = tiny_manifest();
  par::ThreadPool pool(2);
  SweepResult result;
  result.sections.push_back(run_section(m.sections[0], pool));
  const std::string md = section_markdown(result.sections[0], m);
  EXPECT_NE(md.find("# First stage"), std::string::npos);
  EXPECT_NE(md.find("| E[w] |"), std::string::npos);
  EXPECT_NE(md.find("±"), std::string::npos);
  EXPECT_NE(md.find("Gates:"), std::string::npos);
  const std::string csv = section_csv(result.sections[0]).to_string();
  EXPECT_NE(csv.find("section,point,metric,analytic,simulated"),
            std::string::npos);
}

TEST(Emit, IndexLinksEverySection) {
  const Manifest m = tiny_manifest();
  par::ThreadPool pool(2);
  const SweepResult result = run_sweep(m, pool);
  const std::string idx = index_markdown(m, result);
  EXPECT_NE(idx.find("first.md"), std::string::npos);
  EXPECT_NE(idx.find("stages.csv"), std::string::npos);
  EXPECT_NE(idx.find("manifests/tiny.json"), std::string::npos);
  const auto book = render_book(m, result);
  ASSERT_EQ(book.size(), 9u);  // 4 x (md + csv) + index
  EXPECT_EQ(book.back().path, "out/INDEX.md");
}

TEST(Emit, BookIsByteIdenticalAcrossThreadCounts) {
  const Manifest m = tiny_manifest();
  const std::string one = book_bytes(m, 1);
  const std::string two = book_bytes(m, 2);
  const std::string eight = book_bytes(m, 8);
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, eight);
}

TEST(Emit, NoWallClockLeaksIntoArtifacts) {
  const Manifest m = tiny_manifest();
  par::ThreadPool pool(2);
  const SweepResult result = run_sweep(m, pool);
  for (const Artifact& a : render_book(m, result)) {
    EXPECT_EQ(a.content.find("wall"), std::string::npos) << a.path;
    EXPECT_EQ(a.content.find("date"), std::string::npos) << a.path;
  }
}

TEST(Runner, ProgressStreamReportsSections) {
  const Manifest m = tiny_manifest();
  par::ThreadPool pool(2);
  std::ostringstream progress;
  const SweepResult result = run_sweep(m, pool, &progress);
  EXPECT_TRUE(result.pass());
  EXPECT_NE(progress.str().find("[1/4] first"), std::string::npos);
  EXPECT_NE(progress.str().find("[4/4] buffers"), std::string::npos);
}

std::string temp_journal(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(Runner, JournaledRunMatchesPlainRunAndPrunesShards) {
  const Manifest m = tiny_manifest();
  par::ThreadPool pool(2);
  const SweepResult plain = run_sweep(m, pool, RunOptions{});

  const std::string path = temp_journal("ksw-shard-clean.jsonl");
  Journal::remove_file(path);
  Journal journal(path, "fp");
  RunOptions options;
  options.journal = &journal;
  const SweepResult journaled = run_sweep(m, pool, options);
  Journal::remove_file(path);

  // Recording shards must not perturb a single number, and every shard is
  // pruned once its point completes.
  EXPECT_EQ(journal.shard_count(), 0u);
  ASSERT_EQ(journaled.sections.size(), plain.sections.size());
  for (std::size_t s = 0; s < plain.sections.size(); ++s) {
    ASSERT_EQ(journaled.sections[s].points.size(),
              plain.sections[s].points.size());
    for (std::size_t p = 0; p < plain.sections[s].points.size(); ++p) {
      const PointResult& a = plain.sections[s].points[p];
      const PointResult& b = journaled.sections[s].points[p];
      ASSERT_EQ(a.cells.size(), b.cells.size());
      EXPECT_EQ(a.samples, b.samples);
      for (std::size_t c = 0; c < a.cells.size(); ++c) {
        EXPECT_EQ(a.cells[c].simulated, b.cells[c].simulated);
        EXPECT_EQ(a.cells[c].ci_half, b.cells[c].ci_half);
      }
    }
  }
}

TEST(Runner, ResumeReplaysRecordedReplicateShards) {
  // Prove shards are consumed, not just recorded: poison one replicate of
  // the first-stage point with an absurd waiting time and watch it land in
  // the merged estimate. (Real shards hold exactly what the replicate
  // simulated, so reuse is bit-identical; the poison only makes the reuse
  // observable.)
  const Manifest m = tiny_manifest();
  par::ThreadPool pool(2);

  const std::string path = temp_journal("ksw-shard-poison.jsonl");
  Journal::remove_file(path);
  Journal journal(path, "fp");
  sim::FirstStageResults fake;
  for (int i = 0; i < 1000; ++i) {
    fake.waiting.add(42);
    fake.histogram.add(42);
  }
  fake.queue_depth.add(0);
  fake.messages = 1000;
  journal.record_shard(Journal::ShardKey{"first", 0, "fs", 0}, fake);

  RunOptions options;
  options.journal = &journal;
  const SweepResult resumed = run_sweep(m, pool, options);
  Journal::remove_file(path);

  // Two honest replicates (E[w] ~ 0.25) merged with 1000 samples of 42:
  // the mean is dragged far above anything the real system produces.
  const double mean = resumed.sections[0].points[0].cells[0].simulated;
  EXPECT_GT(mean, 1.0);
}

}  // namespace
}  // namespace ksw::sweep
