#include "sweep/checkpoint.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "sim/first_stage_sim.hpp"
#include "sim/network.hpp"
#include "stats/moment_tally.hpp"
#include "support/error.hpp"

namespace ksw::sweep {
namespace {

namespace fs = std::filesystem;

PointResult sample_result() {
  PointResult r;
  r.point.k = 4;
  r.point.p = 0.3;
  r.point.service = "geo:0.25";
  r.label = r.point.label();
  r.samples = 123456789ull;
  Cell cell;
  cell.metric = "E[w]";
  // Deliberately irrational values: the journal must round-trip the exact
  // bit patterns, not a 12-digit decimal rendering.
  cell.analytic = std::sqrt(2.0) / 3.0;
  cell.simulated = M_PI / 7.0;
  cell.ci_half = 1.0 / 3.0;
  cell.rel_error = 0.123456789012345678;
  cell.mean_like = true;
  cell.gated = true;
  cell.pass = false;
  r.cells.push_back(cell);
  cell.metric = "Var[w]";
  cell.mean_like = false;
  cell.pass = true;
  r.cells.push_back(cell);
  return r;
}

class JournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (fs::temp_directory_path() /
             ("ksw-journal-" + std::string(::testing::UnitTest::GetInstance()
                                               ->current_test_info()
                                               ->name()) +
              ".jsonl"))
                .string();
    Journal::remove_file(path_);
  }
  void TearDown() override { Journal::remove_file(path_); }
  std::string path_;
};

TEST(ManifestFingerprint, StableAndSensitive) {
  const std::string text = "{\"schema\":\"ksw.sweep/v1\"}";
  EXPECT_EQ(manifest_fingerprint(text), manifest_fingerprint(text));
  EXPECT_NE(manifest_fingerprint(text), manifest_fingerprint(text + " "));
  EXPECT_FALSE(manifest_fingerprint(text).empty());
}

TEST(ManifestFingerprint, IsFnv1a64) {
  // Known answers: the FNV-1a 64 offset basis for "", one round for "a".
  EXPECT_EQ(manifest_fingerprint(""), "cbf29ce484222325");
  EXPECT_EQ(manifest_fingerprint("a"), "af63dc4c8601ec8c");
}

TEST_F(JournalTest, RoundTripsPointResultsBitExactly) {
  const PointResult original = sample_result();
  {
    Journal journal(path_, "fp");
    journal.record("uniform", 2, original);
  }
  Journal reloaded = Journal::load_or_create(path_, "fp");
  ASSERT_EQ(reloaded.size(), 1u);
  const PointResult* read = reloaded.find("uniform", 2);
  ASSERT_NE(read, nullptr);
  EXPECT_EQ(read->label, original.label);
  EXPECT_EQ(read->samples, original.samples);
  EXPECT_EQ(read->point, original.point);
  ASSERT_EQ(read->cells.size(), original.cells.size());
  for (std::size_t i = 0; i < original.cells.size(); ++i) {
    // Bit-exact, not approximately equal: resumed books must be
    // byte-identical to uninterrupted ones.
    EXPECT_EQ(read->cells[i].metric, original.cells[i].metric);
    EXPECT_EQ(read->cells[i].analytic, original.cells[i].analytic);
    EXPECT_EQ(read->cells[i].simulated, original.cells[i].simulated);
    EXPECT_EQ(read->cells[i].ci_half, original.cells[i].ci_half);
    EXPECT_EQ(read->cells[i].rel_error, original.cells[i].rel_error);
    EXPECT_EQ(read->cells[i].mean_like, original.cells[i].mean_like);
    EXPECT_EQ(read->cells[i].gated, original.cells[i].gated);
    EXPECT_EQ(read->cells[i].pass, original.cells[i].pass);
  }
}

TEST_F(JournalTest, KeysBySectionAndIndex) {
  Journal journal(path_, "fp");
  journal.record("a", 0, sample_result());
  journal.record("b", 0, sample_result());
  journal.record("a", 1, sample_result());
  EXPECT_EQ(journal.size(), 3u);
  EXPECT_TRUE(journal.has("a", 0));
  EXPECT_TRUE(journal.has("b", 0));
  EXPECT_TRUE(journal.has("a", 1));
  EXPECT_FALSE(journal.has("b", 1));
  EXPECT_FALSE(journal.has("c", 0));
}

TEST_F(JournalTest, MissingFileStartsEmpty) {
  const Journal journal = Journal::load_or_create(path_, "fp");
  EXPECT_EQ(journal.size(), 0u);
  // Nothing recorded: no file is created either.
  EXPECT_FALSE(fs::exists(path_));
}

TEST_F(JournalTest, FingerprintMismatchIsUsageError) {
  {
    Journal journal(path_, "old-fingerprint");
    journal.record("uniform", 0, sample_result());
  }
  try {
    Journal::load_or_create(path_, "new-fingerprint");
    FAIL() << "expected ksw::Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kUsage);
    EXPECT_NE(std::string(e.what()).find("fingerprint"), std::string::npos);
  }
}

TEST_F(JournalTest, CorruptJournalIsIoError) {
  {
    std::ofstream out(path_, std::ios::binary);
    out << "{\"schema\":\"ksw.checkpoint/v2\",\"fingerprint\":\"fp\"}\n";
    out << "this is not json\n";
  }
  try {
    Journal::load_or_create(path_, "fp");
    FAIL() << "expected ksw::Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kIo);
  }
}

TEST_F(JournalTest, FileOnDiskIsAlwaysACompleteSnapshot) {
  Journal journal(path_, "fp");
  journal.record("a", 0, sample_result());
  // Reload after every record: the on-disk state must parse and contain
  // everything recorded so far (atomic whole-file rewrite).
  EXPECT_EQ(Journal::load_or_create(path_, "fp").size(), 1u);
  journal.record("a", 1, sample_result());
  EXPECT_EQ(Journal::load_or_create(path_, "fp").size(), 2u);
}

// ---- Replicate shards ------------------------------------------------

/// Tally whose power sums exceed 64 bits: 1500 observations of 2^20 - 1
/// push s3 past 1.5e21, so the decimal 128-bit round-trip is exercised,
/// and one negative value exercises the signed paths.
stats::MomentTally big_tally() {
  stats::MomentTally t;
  for (int i = 0; i < 1500; ++i) t.add((1 << 20) - 1);
  t.add(-3);
  return t;
}

void expect_same_raw(const stats::MomentTally& a, const stats::MomentTally& b) {
  const auto ra = a.raw();
  const auto rb = b.raw();
  EXPECT_EQ(ra.n, rb.n);
  EXPECT_EQ(ra.s1, rb.s1);
  EXPECT_TRUE(ra.s2 == rb.s2);
  EXPECT_TRUE(ra.s3 == rb.s3);
  EXPECT_EQ(ra.min, rb.min);
  EXPECT_EQ(ra.max, rb.max);
}

sim::NetworkResults sample_network_shard() {
  sim::NetworkResults r;
  r.stage_wait.push_back(big_tally());
  r.stage_wait.emplace_back();
  r.stage_wait.back().add(7);
  r.stage_depth.resize(2);
  r.stage_depth[0].add(0);
  r.stage_depth[1].add(5);
  stats::IntHistogram h;
  h.add(0, 100);
  h.add(17, 3);  // sparse: values 1..16 never observed
  r.total_wait.push_back(h);
  r.packets_injected = 123456;
  r.packets_delivered = 123400;
  r.packets_dropped = 56;
  return r;
}

TEST_F(JournalTest, NetworkShardRoundTripsExactly) {
  const sim::NetworkResults original = sample_network_shard();
  const Journal::ShardKey key{"totals", 3, "net", 2};
  {
    Journal journal(path_, "fp");
    journal.record_shard(key, original);
  }
  const Journal reloaded = Journal::load_or_create(path_, "fp");
  EXPECT_EQ(reloaded.shard_count(), 1u);
  const auto read = reloaded.find_network_shard(key);
  ASSERT_TRUE(read.has_value());
  ASSERT_EQ(read->stage_wait.size(), 2u);
  expect_same_raw(read->stage_wait[0], original.stage_wait[0]);
  expect_same_raw(read->stage_wait[1], original.stage_wait[1]);
  ASSERT_EQ(read->stage_depth.size(), 2u);
  expect_same_raw(read->stage_depth[1], original.stage_depth[1]);
  ASSERT_EQ(read->total_wait.size(), 1u);
  EXPECT_EQ(read->total_wait[0].total(), original.total_wait[0].total());
  EXPECT_EQ(read->total_wait[0].count(0), 100u);
  EXPECT_EQ(read->total_wait[0].count(1), 0u);
  EXPECT_EQ(read->total_wait[0].count(17), 3u);
  EXPECT_EQ(read->packets_injected, original.packets_injected);
  EXPECT_EQ(read->packets_delivered, original.packets_delivered);
  EXPECT_EQ(read->packets_dropped, original.packets_dropped);
}

TEST_F(JournalTest, FirstStageShardRoundTripsExactly) {
  sim::FirstStageResults original;
  original.waiting = big_tally();
  original.histogram.add(4, 9);
  original.queue_depth.add(1);
  original.messages = 777;
  const Journal::ShardKey key{"uniform", 0, "fs", 1};
  {
    Journal journal(path_, "fp");
    journal.record_shard(key, original);
  }
  const Journal reloaded = Journal::load_or_create(path_, "fp");
  const auto read = reloaded.find_first_stage_shard(key);
  ASSERT_TRUE(read.has_value());
  expect_same_raw(read->waiting, original.waiting);
  expect_same_raw(read->queue_depth, original.queue_depth);
  EXPECT_EQ(read->histogram.count(4), 9u);
  EXPECT_EQ(read->messages, 777u);
}

TEST_F(JournalTest, ShardKeysDistinguishRunAndReplicate) {
  Journal journal(path_, "fp");
  const sim::NetworkResults shard = sample_network_shard();
  journal.record_shard(Journal::ShardKey{"a", 0, "oracle", 0}, shard);
  journal.record_shard(Journal::ShardKey{"a", 0, "depth=4", 0}, shard);
  journal.record_shard(Journal::ShardKey{"a", 0, "oracle", 1}, shard);
  EXPECT_EQ(journal.shard_count(), 3u);
  EXPECT_TRUE(
      journal.find_network_shard({"a", 0, "oracle", 0}).has_value());
  EXPECT_TRUE(
      journal.find_network_shard({"a", 0, "depth=4", 0}).has_value());
  EXPECT_FALSE(
      journal.find_network_shard({"a", 0, "depth=4", 1}).has_value());
  EXPECT_FALSE(
      journal.find_network_shard({"a", 1, "oracle", 0}).has_value());
  EXPECT_FALSE(journal.find_network_shard({"b", 0, "oracle", 0}).has_value());
}

TEST_F(JournalTest, RecordingAPointPrunesItsShards) {
  Journal journal(path_, "fp");
  const sim::NetworkResults shard = sample_network_shard();
  journal.record_shard(Journal::ShardKey{"a", 0, "net", 0}, shard);
  journal.record_shard(Journal::ShardKey{"a", 0, "net", 1}, shard);
  journal.record_shard(Journal::ShardKey{"a", 1, "net", 0}, shard);
  ASSERT_EQ(journal.shard_count(), 3u);
  journal.record("a", 0, sample_result());
  // The completed point's shards are gone; the neighbouring point's stay.
  EXPECT_EQ(journal.shard_count(), 1u);
  EXPECT_TRUE(journal.find_network_shard({"a", 1, "net", 0}).has_value());
  // Prune persists: a reload sees the same state.
  const Journal reloaded = Journal::load_or_create(path_, "fp");
  EXPECT_EQ(reloaded.shard_count(), 1u);
  EXPECT_TRUE(reloaded.has("a", 0));
}

TEST_F(JournalTest, NonShardableResultsAreSkipped) {
  sim::NetworkResults r = sample_network_shard();
  r.stage_hist.emplace_back();  // per-stage histograms: not serialized
  EXPECT_FALSE(Journal::shardable(r));
  Journal journal(path_, "fp");
  journal.record_shard(Journal::ShardKey{"a", 0, "net", 0}, r);
  EXPECT_EQ(journal.shard_count(), 0u);
  EXPECT_FALSE(journal.find_network_shard({"a", 0, "net", 0}).has_value());
}

TEST_F(JournalTest, RejectsV1Header) {
  {
    Journal journal(path_, "fp");
    journal.record("uniform", 2, sample_result());
  }
  // Rewrite the header as v1, the shardless format of pre-shard runs. Its
  // fingerprint matches, so only the schema check can turn it away.
  std::stringstream buffer;
  buffer << std::ifstream(path_).rdbuf();
  std::string text = buffer.str();
  const auto pos = text.find("ksw.checkpoint/v2");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, 17, "ksw.checkpoint/v1");
  std::ofstream(path_, std::ios::binary) << text;
  try {
    Journal::load_or_create(path_, "fp");
    FAIL() << "expected ksw::Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kIo);
    EXPECT_NE(std::string(e.what()).find("ksw.checkpoint/v2"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(JournalTest, RemoveFileIsIdempotent) {
  {
    Journal journal(path_, "fp");
    journal.record("a", 0, sample_result());
  }
  EXPECT_TRUE(fs::exists(path_));
  Journal::remove_file(path_);
  EXPECT_FALSE(fs::exists(path_));
  Journal::remove_file(path_);  // second remove: no error
}

}  // namespace
}  // namespace ksw::sweep
