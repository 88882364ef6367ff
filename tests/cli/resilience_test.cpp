// End-to-end resilience matrix: every fault-injection site driven to its
// documented exit code through the real CLI entry point, plus degraded-
// point reporting, cooperative cancellation, and checkpoint/resume
// byte-identity. (The out-of-process SIGINT variant lives in
// scripts/check_resume.sh; here cancellation is requested through the
// token the signal handler flips.)
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/first_stage.hpp"
#include "fault/injection.hpp"
#include "kswsim/cli.hpp"
#include "par/cancel.hpp"
#include "sim/service_spec.hpp"
#include "support/error.hpp"

namespace ksw::cli {
namespace {

namespace fs = std::filesystem;

struct CliResult {
  int code;
  std::string out;
  std::string err;
};

CliResult invoke(std::vector<std::string> args) {
  std::ostringstream out, err;
  const int code = run(args, out, err);
  return {code, out.str(), err.str()};
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Tiny two-section manifest rooted in a per-test temp directory.
/// Tolerances are wide open: these tests exercise the execution layer,
/// not the physics, so the clean-run exit code must be 0.
class ResilienceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::disarm_all();
    par::global_cancel_token().reset();
    dir_ = fs::temp_directory_path() /
           ("ksw-resilience-" + std::string(::testing::UnitTest::GetInstance()
                                                ->current_test_info()
                                                ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    manifest_path_ = (dir_ / "manifest.json").string();
    out_dir_ = (dir_ / "book").string();
    index_path_ = (dir_ / "INDEX.md").string();
    std::ofstream manifest(manifest_path_, std::ios::binary);
    manifest
        << R"({"schema":"ksw.sweep/v1","name":"resil","title":"Resilience",)"
        << R"("output_dir":")" << out_dir_ << R"(","index_path":")"
        << index_path_ << R"(",)"
        << R"("defaults":{"replicates":2,"measure_cycles":400,)"
        << R"("warmup_cycles":50,"seed":7,"mean_rel_tol":10,)"
        << R"("var_rel_tol":10,"abs_tol":10},)"
        << R"("sections":[)"
        << R"({"id":"alpha","title":"A","kind":"first_stage",)"
        << R"("grid":{"axes":{"p":[0.3,0.5]}}},)"
        << R"({"id":"beta","title":"B","kind":"first_stage",)"
        << R"("grid":{"points":[{"k":2,"p":0.4}]}}]})";
  }
  void TearDown() override {
    fault::disarm_all();
    par::global_cancel_token().reset();
    fs::remove_all(dir_);
  }

  CliResult reproduce(std::vector<std::string> extra = {}) {
    std::vector<std::string> args = {"reproduce",
                                     "--manifest=" + manifest_path_,
                                     "--threads=2"};
    for (auto& a : extra) args.push_back(std::move(a));
    return invoke(std::move(args));
  }

  [[nodiscard]] fs::path journal_path() const {
    return fs::path(out_dir_) / ".checkpoint.jsonl";
  }

  /// All book artifact bytes, keyed by filename.
  [[nodiscard]] std::vector<std::pair<std::string, std::string>> book()
      const {
    std::vector<std::pair<std::string, std::string>> files;
    files.emplace_back("INDEX.md", slurp(index_path_));
    for (const char* name :
         {"alpha.md", "alpha.csv", "beta.md", "beta.csv"})
      files.emplace_back(name, slurp(fs::path(out_dir_) / name));
    return files;
  }

  fs::path dir_;
  std::string manifest_path_;
  std::string out_dir_;
  std::string index_path_;
};

TEST_F(ResilienceTest, CleanRunPassesAndRemovesJournal) {
  const auto r = reproduce();
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_FALSE(fs::exists(journal_path()))
      << "journal must be deleted after a fully clean run";
  for (const auto& [name, content] : book())
    EXPECT_FALSE(content.empty()) << name;
}

TEST_F(ResilienceTest, ThrowingReplicateDegradesPointAndExits7) {
  fault::arm("replicate.throw");
  const auto r = reproduce();
  EXPECT_EQ(r.code, 7) << r.err;
  EXPECT_NE(r.out.find("degraded"), std::string::npos) << r.out;
  const std::string alpha = slurp(fs::path(out_dir_) / "alpha.md");
  EXPECT_NE(alpha.find("DEGRADED"), std::string::npos);
  EXPECT_NE(alpha.find("injected fault"), std::string::npos);
  // The journal survives a degraded run so --resume can retry.
  EXPECT_TRUE(fs::exists(journal_path()));
}

TEST_F(ResilienceTest, ResumeAfterDegradedRunYieldsByteIdenticalBook) {
  // Reference: uninterrupted clean run.
  ASSERT_EQ(reproduce().code, 0);
  const auto reference = book();
  fs::remove_all(out_dir_);
  fs::remove(index_path_);

  // Faulted run: one replicate throws, its point degrades, exit 7.
  fault::arm("replicate.throw");
  ASSERT_EQ(reproduce().code, 7);
  ASSERT_TRUE(fs::exists(journal_path()));
  const std::string degraded_index = slurp(index_path_);
  EXPECT_NE(degraded_index.find("DEGRADED"), std::string::npos);

  // Resume with the fault gone: only the degraded point is recomputed,
  // journaled points replay bit-exactly, and the final book must be
  // byte-identical to the uninterrupted run.
  fault::disarm_all();
  const auto resumed = reproduce({"--resume"});
  EXPECT_EQ(resumed.code, 0) << resumed.err;
  EXPECT_NE(resumed.err.find("resuming"), std::string::npos) << resumed.err;
  const auto after = book();
  ASSERT_EQ(after.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(after[i].first, reference[i].first);
    EXPECT_EQ(after[i].second, reference[i].second)
        << after[i].first << " differs between clean and resumed runs";
  }
  EXPECT_FALSE(fs::exists(journal_path()));
}

TEST_F(ResilienceTest, CancellationExitsInterrupted) {
  par::global_cancel_token().request();
  const auto r = reproduce();
  EXPECT_EQ(r.code, 130);
  EXPECT_NE(r.err.find("interrupted"), std::string::npos) << r.err;
}

TEST_F(ResilienceTest, SoftPointDeadlineDegradesSlowPoint) {
  fault::SiteSpec spec;
  spec.delay_ms = 80;
  fault::arm("point.slow", spec);
  const auto r = reproduce({"--point-timeout=10"});
  EXPECT_EQ(r.code, 7) << r.err;
  const std::string alpha = slurp(fs::path(out_dir_) / "alpha.md");
  EXPECT_NE(alpha.find("deadline"), std::string::npos) << alpha;
  // Without a deadline the same delay is harmless.
  fault::arm("point.slow", spec);
  EXPECT_EQ(reproduce().code, 0);
}

TEST_F(ResilienceTest, InjectedIoFailureExits5WithoutTruncatedArtifacts) {
  // First write of the run (the journal record) fails: typed I/O error.
  fault::arm("io.open");
  const auto r = reproduce();
  EXPECT_EQ(r.code, 5) << r.err;
  EXPECT_NE(r.err.find("io"), std::string::npos) << r.err;
  // Atomic writes: a failed run leaves no partial book page behind.
  for (const char* name : {"alpha.md", "alpha.csv", "beta.md", "beta.csv"})
    EXPECT_FALSE(fs::exists(fs::path(out_dir_) / name)) << name;
}

TEST_F(ResilienceTest, FaultPlanFileArmsSites) {
  const fs::path plan = dir_ / "plan.json";
  {
    std::ofstream out(plan, std::ios::binary);
    out << R"({"schema":"ksw.faults/v1",)"
        << R"("sites":{"replicate.throw":{"fire_at":1}}})";
  }
  const auto r = reproduce({"--fault-plan=" + plan.string()});
  EXPECT_EQ(r.code, 7) << r.err;
  // A malformed plan is a usage error.
  const fs::path bad = dir_ / "bad.json";
  {
    std::ofstream out(bad, std::ios::binary);
    out << R"({"schema":"ksw.faults/v9","sites":{}})";
  }
  fault::disarm_all();
  EXPECT_EQ(reproduce({"--fault-plan=" + bad.string()}).code, 2);
  // A missing plan file is an I/O error.
  EXPECT_EQ(reproduce({"--fault-plan=/no/such/plan.json"}).code, 5);
}

TEST_F(ResilienceTest, NearSingularSeriesExitsNumeric) {
  fault::arm("series.near-singular");
  const auto r = invoke({"analyze", "--k=2", "--p=0.5"});
  EXPECT_EQ(r.code, 6);
  EXPECT_NE(r.err.find("numeric"), std::string::npos) << r.err;
  EXPECT_NE(r.err.find("series.near-singular"), std::string::npos) << r.err;
  // Distributions take the quotient recurrence for finite (det:4) and
  // geometric (geo:0.5) service alike; it keeps the guard and fails the
  // same way.
  for (const char* service : {"det:4", "geo:0.5"}) {
    const core::FirstStage first(
        {std::shared_ptr<core::ArrivalModel>(
             core::make_uniform_arrivals(2, 2, 0.1)),
         sim::ServiceSpec::parse(service).to_model()});
    fault::arm("series.near-singular");
    try {
      (void)first.distribution(64);
      ADD_FAILURE() << service << ": expected ksw::Error";
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kNumeric) << service;
      EXPECT_NE(std::string(e.what()).find("series.near-singular"),
                std::string::npos)
          << service << ": " << e.what();
    }
  }
}

TEST_F(ResilienceTest, ResumeFlagValidation) {
  EXPECT_EQ(reproduce({"--resume", "--check"}).code, 2);
  EXPECT_EQ(reproduce({"--resume", "--section=alpha"}).code, 2);
  EXPECT_EQ(reproduce({"--point-timeout=-5"}).code, 2);
}

TEST_F(ResilienceTest, ResumeRejectsStaleJournalAfterManifestEdit) {
  fault::arm("replicate.throw");
  ASSERT_EQ(reproduce().code, 7);
  ASSERT_TRUE(fs::exists(journal_path()));
  fault::disarm_all();
  // Any manifest edit (here: trailing whitespace) shifts the fingerprint.
  {
    std::ofstream manifest(manifest_path_,
                           std::ios::binary | std::ios::app);
    manifest << "\n";
  }
  const auto r = reproduce({"--resume"});
  EXPECT_EQ(r.code, 2) << r.err;
  EXPECT_NE(r.err.find("fingerprint"), std::string::npos) << r.err;
}

}  // namespace
}  // namespace ksw::cli
