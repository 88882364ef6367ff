// Checkpoint journal for resumable reproduction runs.
//
// The journal is a JSON-lines file: a header line identifying the schema
// ("ksw.checkpoint/v2") and the manifest fingerprint, followed by one line
// per *successfully* completed grid point and one line per completed
// *replicate shard* of the in-flight point. Degraded points are never
// recorded, so a resumed run retries them. Every update rewrites the whole
// journal through io::atomic_write_file (temp + fsync + rename), so the
// file on disk is always a complete, parseable snapshot — a kill at any
// instant leaves either the previous or the next state, never a torn one.
//
// Replicate shards are what make resume finer than grid-point granularity:
// each replicate's random stream is a counter-based Philox function of
// (section seed, replicate index, cycle, port) alone (DESIGN.md §8b), so
// a replicate killed mid-cycle can be recomputed from scratch in isolation
// while its finished siblings are replayed from their shards — the merge
// (exact integer sums, strict index order) cannot tell the difference, and
// the resumed book comes out byte-identical. Shards for a point are pruned
// the moment the point's own record lands, so the journal stays one point
// deep in shards. A header with any other schema is an IO error.
//
// Doubles are serialized as hexfloat strings ("0x1.8p+1"), not decimal:
// the journal must round-trip bit-exactly so a resumed run emits a book
// byte-identical to an uninterrupted one. Shard payloads are exact integer
// state (stats::MomentTally::Raw power sums, histogram counts) and travel
// as decimal strings.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sim/first_stage_sim.hpp"
#include "sim/network.hpp"
#include "sweep/runner.hpp"

namespace ksw::sweep {

/// Stable fingerprint of a manifest file's raw text (FNV-1a 64, as 16
/// lowercase hex digits).
/// Any edit to the manifest — even whitespace — invalidates a journal,
/// because grid indices and budgets may have shifted.
[[nodiscard]] std::string manifest_fingerprint(const std::string& raw_text);

/// The checkpoint journal. Keyed by (section id, point index within the
/// section's expanded grid) — the runner's iteration order is
/// deterministic, so the pair uniquely names a grid point.
class Journal {
 public:
  /// An empty journal that will be written to `path` on the first record.
  Journal(std::string path, std::string fingerprint);

  /// Load an existing journal, or start an empty one when `path` does not
  /// exist. Throws ksw::Error(kUsage) when the journal's fingerprint does
  /// not match `fingerprint` (the manifest changed since the interrupted
  /// run), and ksw::Error(kIo) when the file exists but cannot be parsed.
  [[nodiscard]] static Journal load_or_create(std::string path,
                                              std::string fingerprint);

  /// The completed result for a point, or nullptr if not recorded.
  [[nodiscard]] const PointResult* find(const std::string& section_id,
                                        std::size_t point_index) const;

  [[nodiscard]] bool has(const std::string& section_id,
                         std::size_t point_index) const {
    return find(section_id, point_index) != nullptr;
  }

  /// Record a successfully completed point and persist the whole journal
  /// atomically. Prunes every replicate shard recorded for the point (the
  /// point-level result supersedes them). Throws ksw::Error(kIo) on write
  /// failure.
  void record(const std::string& section_id, std::size_t point_index,
              const PointResult& result);

  /// Names one replicate of one simulation run within a grid point. A
  /// point may run several independent replicate fans (the finite-buffer
  /// kind runs an infinite-queue oracle plus one fan per depth); `run`
  /// disambiguates them with a tag chosen by the runner.
  struct ShardKey {
    std::string section_id;
    std::size_t point_index = 0;
    std::string run;
    std::size_t replicate = 0;
  };

  /// True when `r` consists purely of exactly-serializable state (integer
  /// moment tallies, integer histograms, packet counters). Results
  /// carrying per-stage histograms, covariance, telemetry, or convergence
  /// traces are not shardable and are silently skipped — a resumed run
  /// just recomputes those replicates. Every config the sweep runner
  /// builds is shardable; the guard is against future section kinds.
  [[nodiscard]] static bool shardable(const sim::NetworkResults& r) noexcept;

  /// Record one completed replicate and persist atomically. Thread-safe:
  /// replicates complete concurrently on the worker pool. No-op when the
  /// results are not shardable().
  void record_shard(const ShardKey& key, const sim::NetworkResults& r);
  void record_shard(const ShardKey& key, const sim::FirstStageResults& r);

  /// The recorded replicate results, or nullopt. Returned by value:
  /// concurrent record_shard calls may grow the underlying storage.
  [[nodiscard]] std::optional<sim::NetworkResults> find_network_shard(
      const ShardKey& key) const;
  [[nodiscard]] std::optional<sim::FirstStageResults> find_first_stage_shard(
      const ShardKey& key) const;

  /// Total replicate shards currently held (tests).
  [[nodiscard]] std::size_t shard_count() const;

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

  /// Delete the journal file (after a fully clean run). Missing file is
  /// not an error.
  static void remove_file(const std::string& path);

 private:
  struct Entry {
    std::string section_id;
    std::size_t point_index = 0;
    PointResult result;
  };
  struct NetworkShard {
    ShardKey key;
    sim::NetworkResults results;
  };
  struct FirstStageShard {
    ShardKey key;
    sim::FirstStageResults results;
  };

  [[nodiscard]] std::string serialize() const;
  void prune_shards_locked(const std::string& section_id,
                           std::size_t point_index);

  std::string path_;
  std::string fingerprint_;
  std::vector<Entry> entries_;
  std::vector<NetworkShard> network_shards_;
  std::vector<FirstStageShard> first_stage_shards_;
  /// Guards shard storage and the persist step: point-level record/find
  /// run on the sweep thread, but shards land from pool workers. Held by
  /// unique_ptr so the journal stays movable.
  std::unique_ptr<std::mutex> mutex_ = std::make_unique<std::mutex>();
};

}  // namespace ksw::sweep
