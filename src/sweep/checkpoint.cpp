#include "sweep/checkpoint.hpp"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include "io/atomic.hpp"
#include "io/json.hpp"
#include "obs/span.hpp"
#include "support/error.hpp"

namespace ksw::sweep {

namespace {

constexpr const char* kSchema = "ksw.checkpoint/v2";

/// Bit-exact double encoding. io::Json prints numbers with 12 significant
/// digits — fine for reports, fatal for a journal whose whole point is
/// byte-identical resumed output — so doubles travel as hexfloat strings.
std::string encode_double(double v) {
  std::ostringstream os;
  os << std::hexfloat << v;
  return os.str();
}

double decode_double(const io::Json& j, const char* what) {
  if (!j.is_string())
    throw io_error(std::string("checkpoint: ") + what +
                   " must be a hexfloat string");
  try {
    return std::stod(j.as_string());
  } catch (const std::exception&) {
    throw io_error(std::string("checkpoint: cannot parse ") + what + " '" +
                   j.as_string() + "'");
  }
}

io::Json cell_to_json(const Cell& cell) {
  io::Json j = io::Json::object();
  j.set("metric", cell.metric);
  j.set("analytic", encode_double(cell.analytic));
  j.set("simulated", encode_double(cell.simulated));
  j.set("ci_half", encode_double(cell.ci_half));
  j.set("rel_error", encode_double(cell.rel_error));
  j.set("mean_like", cell.mean_like);
  j.set("gated", cell.gated);
  j.set("pass", cell.pass);
  return j;
}

Cell cell_from_json(const io::Json& j) {
  Cell cell;
  cell.metric = j.at("metric").as_string();
  cell.analytic = decode_double(j.at("analytic"), "analytic");
  cell.simulated = decode_double(j.at("simulated"), "simulated");
  cell.ci_half = decode_double(j.at("ci_half"), "ci_half");
  cell.rel_error = decode_double(j.at("rel_error"), "rel_error");
  cell.mean_like = j.at("mean_like").as_bool();
  cell.gated = j.at("gated").as_bool();
  cell.pass = j.at("pass").as_bool();
  return cell;
}

io::Json point_to_json(const Point& p) {
  io::Json j = io::Json::object();
  j.set("k", static_cast<std::int64_t>(p.k));
  j.set("s", static_cast<std::int64_t>(p.s));
  j.set("p", encode_double(p.p));
  j.set("bulk", static_cast<std::int64_t>(p.bulk));
  j.set("q", encode_double(p.q));
  j.set("hotspot", encode_double(p.hotspot));
  j.set("hotspot_target", static_cast<std::int64_t>(p.hotspot_target));
  j.set("service", p.service);
  return j;
}

Point point_from_json(const io::Json& j) {
  Point p;
  p.k = static_cast<unsigned>(j.at("k").as_int());
  p.s = static_cast<unsigned>(j.at("s").as_int());
  p.p = decode_double(j.at("p"), "p");
  p.bulk = static_cast<unsigned>(j.at("bulk").as_int());
  p.q = decode_double(j.at("q"), "q");
  // Journals written before the hotspot fields existed omit them; the
  // defaults (no hotspot) are exactly what those runs simulated.
  if (j.contains("hotspot")) p.hotspot = decode_double(j.at("hotspot"), "hotspot");
  if (j.contains("hotspot_target"))
    p.hotspot_target =
        static_cast<std::uint32_t>(j.at("hotspot_target").as_int());
  p.service = j.at("service").as_string();
  return p;
}

io::Json result_to_json(const PointResult& r) {
  io::Json j = io::Json::object();
  j.set("point", point_to_json(r.point));
  j.set("label", r.label);
  // samples is a count; decimal string avoids the double round-trip.
  j.set("samples", std::to_string(r.samples));
  io::Json cells = io::Json::array();
  for (const Cell& cell : r.cells) cells.push_back(cell_to_json(cell));
  j.set("cells", std::move(cells));
  return j;
}

PointResult result_from_json(const io::Json& j) {
  PointResult r;
  r.point = point_from_json(j.at("point"));
  r.label = j.at("label").as_string();
  r.samples = std::stoull(j.at("samples").as_string());
  const io::Json& cells = j.at("cells");
  for (std::size_t i = 0; i < cells.size(); ++i)
    r.cells.push_back(cell_from_json(cells.at(i)));
  return r;
}

// ---- Replicate shards ------------------------------------------------
//
// Everything in a shard is exact integer state, so the wire format is
// decimal strings (including the 128-bit moment power sums) — no hexfloat
// needed, and the merge on resume is the same exact integer addition an
// uninterrupted run performs.

std::string u128_to_string(__uint128_t v) {
  if (v == 0) return "0";
  std::string out;
  while (v != 0) {
    out.insert(out.begin(),
               static_cast<char>('0' + static_cast<unsigned>(v % 10)));
    v /= 10;
  }
  return out;
}

std::string i128_to_string(__int128_t v) {
  if (v < 0) return "-" + u128_to_string(static_cast<__uint128_t>(-v));
  return u128_to_string(static_cast<__uint128_t>(v));
}

__uint128_t u128_from_string(const std::string& text, const char* what) {
  if (text.empty())
    throw io_error(std::string("checkpoint: empty ") + what);
  __uint128_t v = 0;
  for (const char c : text) {
    if (c < '0' || c > '9')
      throw io_error(std::string("checkpoint: cannot parse ") + what + " '" +
                     text + "'");
    v = v * 10 + static_cast<unsigned>(c - '0');
  }
  return v;
}

__int128_t i128_from_string(const std::string& text, const char* what) {
  if (!text.empty() && text.front() == '-')
    return -static_cast<__int128_t>(u128_from_string(text.substr(1), what));
  return static_cast<__int128_t>(u128_from_string(text, what));
}

std::uint64_t u64_from_json(const io::Json& j, const char* what) {
  if (!j.is_string())
    throw io_error(std::string("checkpoint: ") + what +
                   " must be a decimal string");
  try {
    return std::stoull(j.as_string());
  } catch (const std::exception&) {
    throw io_error(std::string("checkpoint: cannot parse ") + what + " '" +
                   j.as_string() + "'");
  }
}

std::int64_t i64_from_json(const io::Json& j, const char* what) {
  if (!j.is_string())
    throw io_error(std::string("checkpoint: ") + what +
                   " must be a decimal string");
  try {
    return std::stoll(j.as_string());
  } catch (const std::exception&) {
    throw io_error(std::string("checkpoint: cannot parse ") + what + " '" +
                   j.as_string() + "'");
  }
}

io::Json tally_to_json(const stats::MomentTally& t) {
  const stats::MomentTally::Raw raw = t.raw();
  io::Json j = io::Json::object();
  j.set("n", std::to_string(raw.n));
  j.set("s1", std::to_string(raw.s1));
  j.set("s2", u128_to_string(raw.s2));
  j.set("s3", i128_to_string(raw.s3));
  j.set("min", std::to_string(raw.min));
  j.set("max", std::to_string(raw.max));
  return j;
}

stats::MomentTally tally_from_json(const io::Json& j) {
  stats::MomentTally::Raw raw;
  raw.n = u64_from_json(j.at("n"), "tally n");
  raw.s1 = i64_from_json(j.at("s1"), "tally s1");
  raw.s2 = u128_from_string(j.at("s2").as_string(), "tally s2");
  raw.s3 = i128_from_string(j.at("s3").as_string(), "tally s3");
  raw.min = i64_from_json(j.at("min"), "tally min");
  raw.max = i64_from_json(j.at("max"), "tally max");
  return stats::MomentTally::from_raw(raw);
}

/// Sparse [value, count] pairs; exact and compact for the long-tailed
/// waiting-time tallies.
io::Json hist_to_json(const stats::IntHistogram& h) {
  io::Json j = io::Json::array();
  for (std::int64_t v = 0; v <= h.max_value(); ++v) {
    const std::uint64_t count = h.count(v);
    if (count == 0) continue;
    io::Json pair = io::Json::array();
    pair.push_back(std::to_string(v));
    pair.push_back(std::to_string(count));
    j.push_back(std::move(pair));
  }
  return j;
}

stats::IntHistogram hist_from_json(const io::Json& j) {
  stats::IntHistogram h;
  for (std::size_t i = 0; i < j.size(); ++i) {
    const io::Json& pair = j.at(i);
    if (pair.size() != 2)
      throw io_error("checkpoint: histogram entry must be [value, count]");
    h.add(i64_from_json(pair.at(0), "histogram value"),
          u64_from_json(pair.at(1), "histogram count"));
  }
  return h;
}

io::Json tally_vec_to_json(const std::vector<stats::MomentTally>& v) {
  io::Json j = io::Json::array();
  for (const stats::MomentTally& t : v) j.push_back(tally_to_json(t));
  return j;
}

std::vector<stats::MomentTally> tally_vec_from_json(const io::Json& j) {
  std::vector<stats::MomentTally> v;
  for (std::size_t i = 0; i < j.size(); ++i)
    v.push_back(tally_from_json(j.at(i)));
  return v;
}

io::Json network_shard_to_json(const sim::NetworkResults& r) {
  io::Json j = io::Json::object();
  j.set("stage_wait", tally_vec_to_json(r.stage_wait));
  j.set("stage_depth", tally_vec_to_json(r.stage_depth));
  io::Json totals = io::Json::array();
  for (const stats::IntHistogram& h : r.total_wait)
    totals.push_back(hist_to_json(h));
  j.set("total_wait", std::move(totals));
  j.set("injected", std::to_string(r.packets_injected));
  j.set("delivered", std::to_string(r.packets_delivered));
  j.set("dropped", std::to_string(r.packets_dropped));
  return j;
}

sim::NetworkResults network_shard_from_json(const io::Json& j) {
  sim::NetworkResults r;
  r.stage_wait = tally_vec_from_json(j.at("stage_wait"));
  r.stage_depth = tally_vec_from_json(j.at("stage_depth"));
  const io::Json& totals = j.at("total_wait");
  for (std::size_t i = 0; i < totals.size(); ++i)
    r.total_wait.push_back(hist_from_json(totals.at(i)));
  r.packets_injected = u64_from_json(j.at("injected"), "injected");
  r.packets_delivered = u64_from_json(j.at("delivered"), "delivered");
  r.packets_dropped = u64_from_json(j.at("dropped"), "dropped");
  return r;
}

io::Json first_stage_shard_to_json(const sim::FirstStageResults& r) {
  io::Json j = io::Json::object();
  j.set("waiting", tally_to_json(r.waiting));
  j.set("histogram", hist_to_json(r.histogram));
  j.set("queue_depth", tally_to_json(r.queue_depth));
  j.set("messages", std::to_string(r.messages));
  return j;
}

sim::FirstStageResults first_stage_shard_from_json(const io::Json& j) {
  sim::FirstStageResults r;
  r.waiting = tally_from_json(j.at("waiting"));
  r.histogram = hist_from_json(j.at("histogram"));
  r.queue_depth = tally_from_json(j.at("queue_depth"));
  r.messages = u64_from_json(j.at("messages"), "messages");
  return r;
}

io::Json shard_key_to_json(const Journal::ShardKey& key, const char* kind) {
  io::Json j = io::Json::object();
  j.set("kind", kind);
  j.set("section", key.section_id);
  j.set("index", static_cast<std::int64_t>(key.point_index));
  j.set("run", key.run);
  j.set("replicate", static_cast<std::int64_t>(key.replicate));
  return j;
}

Journal::ShardKey shard_key_from_json(const io::Json& j) {
  Journal::ShardKey key;
  key.section_id = j.at("section").as_string();
  key.point_index = static_cast<std::size_t>(j.at("index").as_int());
  key.run = j.at("run").as_string();
  key.replicate = static_cast<std::size_t>(j.at("replicate").as_int());
  return key;
}

}  // namespace

std::string manifest_fingerprint(const std::string& raw_text) {
  return obs::hex_id(obs::fnv1a64(raw_text));
}

Journal::Journal(std::string path, std::string fingerprint)
    : path_(std::move(path)), fingerprint_(std::move(fingerprint)) {}

Journal Journal::load_or_create(std::string path, std::string fingerprint) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Journal(std::move(path), std::move(fingerprint));

  Journal journal(path, fingerprint);
  std::string line;
  bool saw_header = false;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    io::Json doc;
    try {
      doc = io::Json::parse(line);
    } catch (const std::exception& e) {
      throw io_error("checkpoint: " + path + ":" + std::to_string(line_no) +
                     ": corrupt journal line (" + e.what() +
                     "); delete the file or run without --resume");
    }
    try {
      if (!saw_header) {
        const std::string schema = doc.at("schema").as_string();
        if (schema != kSchema)
          throw io_error("checkpoint: " + path + ": unknown schema '" +
                         schema + "' (expected " + kSchema + ")");
        const std::string recorded = doc.at("fingerprint").as_string();
        if (recorded != fingerprint)
          throw usage_error(
              "checkpoint: " + path + ": manifest fingerprint " + recorded +
              " does not match the current manifest (" + fingerprint +
              "); the manifest changed since the interrupted run — delete "
              "the journal or rerun without --resume");
        saw_header = true;
        continue;
      }
      if (doc.contains("shard")) {
        const io::Json& shard = doc.at("shard");
        const std::string kind = shard.at("kind").as_string();
        if (kind == "network") {
          NetworkShard s;
          s.key = shard_key_from_json(shard);
          s.results = network_shard_from_json(shard.at("data"));
          journal.network_shards_.push_back(std::move(s));
        } else if (kind == "first_stage") {
          FirstStageShard s;
          s.key = shard_key_from_json(shard);
          s.results = first_stage_shard_from_json(shard.at("data"));
          journal.first_stage_shards_.push_back(std::move(s));
        } else {
          throw io_error("checkpoint: " + path + ":" +
                         std::to_string(line_no) + ": unknown shard kind '" +
                         kind + "'");
        }
        continue;
      }
      Entry entry;
      entry.section_id = doc.at("section").as_string();
      entry.point_index =
          static_cast<std::size_t>(doc.at("index").as_int());
      entry.result = result_from_json(doc.at("result"));
      journal.entries_.push_back(std::move(entry));
    } catch (const Error&) {
      throw;
    } catch (const std::exception& e) {
      throw io_error("checkpoint: " + path + ":" + std::to_string(line_no) +
                     ": malformed journal entry (" + e.what() +
                     "); delete the file or run without --resume");
    }
  }
  return journal;
}

const PointResult* Journal::find(const std::string& section_id,
                                 std::size_t point_index) const {
  for (const Entry& e : entries_)
    if (e.point_index == point_index && e.section_id == section_id)
      return &e.result;
  return nullptr;
}

void Journal::record(const std::string& section_id, std::size_t point_index,
                     const PointResult& result) {
  Entry entry;
  entry.section_id = section_id;
  entry.point_index = point_index;
  entry.result = result;
  const std::lock_guard<std::mutex> lock(*mutex_);
  entries_.push_back(std::move(entry));
  prune_shards_locked(section_id, point_index);
  io::atomic_write_file(path_, serialize());
}

void Journal::prune_shards_locked(const std::string& section_id,
                                  std::size_t point_index) {
  const auto stale = [&](const ShardKey& key) {
    return key.point_index == point_index && key.section_id == section_id;
  };
  std::erase_if(network_shards_,
                [&](const NetworkShard& s) { return stale(s.key); });
  std::erase_if(first_stage_shards_,
                [&](const FirstStageShard& s) { return stale(s.key); });
}

bool Journal::shardable(const sim::NetworkResults& r) noexcept {
  return r.stage_hist.empty() && !r.stage_covariance.has_value() &&
         r.metrics.empty() && r.convergence.empty();
}

void Journal::record_shard(const ShardKey& key, const sim::NetworkResults& r) {
  if (!shardable(r)) return;
  const std::lock_guard<std::mutex> lock(*mutex_);
  network_shards_.push_back(NetworkShard{key, r});
  io::atomic_write_file(path_, serialize());
}

void Journal::record_shard(const ShardKey& key,
                           const sim::FirstStageResults& r) {
  const std::lock_guard<std::mutex> lock(*mutex_);
  first_stage_shards_.push_back(FirstStageShard{key, r});
  io::atomic_write_file(path_, serialize());
}

namespace {

bool same_key(const Journal::ShardKey& a, const Journal::ShardKey& b) {
  return a.point_index == b.point_index && a.replicate == b.replicate &&
         a.section_id == b.section_id && a.run == b.run;
}

}  // namespace

std::optional<sim::NetworkResults> Journal::find_network_shard(
    const ShardKey& key) const {
  const std::lock_guard<std::mutex> lock(*mutex_);
  for (const NetworkShard& s : network_shards_)
    if (same_key(s.key, key)) return s.results;
  return std::nullopt;
}

std::optional<sim::FirstStageResults> Journal::find_first_stage_shard(
    const ShardKey& key) const {
  const std::lock_guard<std::mutex> lock(*mutex_);
  for (const FirstStageShard& s : first_stage_shards_)
    if (same_key(s.key, key)) return s.results;
  return std::nullopt;
}

std::size_t Journal::shard_count() const {
  const std::lock_guard<std::mutex> lock(*mutex_);
  return network_shards_.size() + first_stage_shards_.size();
}

std::string Journal::serialize() const {
  std::ostringstream os;
  {
    io::Json header = io::Json::object();
    header.set("schema", kSchema);
    header.set("fingerprint", fingerprint_);
    header.write(os);
    os << '\n';
  }
  for (const Entry& e : entries_) {
    io::Json line = io::Json::object();
    line.set("section", e.section_id);
    line.set("index", static_cast<std::int64_t>(e.point_index));
    line.set("result", result_to_json(e.result));
    line.write(os);
    os << '\n';
  }
  for (const NetworkShard& s : network_shards_) {
    io::Json shard = shard_key_to_json(s.key, "network");
    shard.set("data", network_shard_to_json(s.results));
    io::Json line = io::Json::object();
    line.set("shard", std::move(shard));
    line.write(os);
    os << '\n';
  }
  for (const FirstStageShard& s : first_stage_shards_) {
    io::Json shard = shard_key_to_json(s.key, "first_stage");
    shard.set("data", first_stage_shard_to_json(s.results));
    io::Json line = io::Json::object();
    line.set("shard", std::move(shard));
    line.write(os);
    os << '\n';
  }
  return os.str();
}

void Journal::remove_file(const std::string& path) {
  std::remove(path.c_str());
}

}  // namespace ksw::sweep
