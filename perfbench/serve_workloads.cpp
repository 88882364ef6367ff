// serve_hot / serve_cold: ksw.query/v1 request streams through
// serve::Service::serve_batch (ServeOptions::threads = 2, 64-request
// batches), one caller, closed loop: the next batch is sent when the
// previous one has been answered.
//
//   serve_hot   64 valid tuples over the four analytic kernels, drawn
//               Zipf(1) with varied spellings; the cache is warmed in
//               set-up, so every request is a cache hit.
//   serve_cold  mostly new keys: first_stage with a 512/1024/2048-term
//               distribution, det:m service (m in 1,2,4,8), rho in
//               (0.1, 0.9), plus a few cheap kernels; a quarter of each
//               batch repeats an earlier key of the same batch in another
//               spelling (the in-batch duplicate race stays visible).
//
// Oracles, per response: ok, in id order, the requested kernel, the same
// result bytes as every other spelling of its key (hot: as the warm-up
// evaluation), and for first_stage the closed forms eq. 8/9 (which share
// no code with the pgf series): mean within 1e-9 and variance within 1e-7
// relative, distribution terms finite and >= -1e-12, mass <= 1 + 1e-9,
// and, from 512 terms on, first moment sum j*P(w=j) within 1e-4 relative
// of E[w] (the truncated tail accounts for at most 3e-5 at rho <= 0.9). The racy "cached" flag is accepted either way here and
// nowhere else.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <stdexcept>

#include "bench.hpp"
#include "core/closed_forms.hpp"
#include "core/first_stage.hpp"
#include "core/models.hpp"
#include "par/thread_pool.hpp"
#include "serve/cache.hpp"
#include "serve/kernels.hpp"
#include "serve/query.hpp"
#include "serve/service.hpp"
#include "sim/service_spec.hpp"

namespace perfbench {

namespace {

using ksw::serve::Request;

constexpr std::size_t kThreads = 2;
constexpr std::size_t kBatch = 64;
constexpr std::uint64_t kCacheMb = 64;
constexpr std::size_t kHotTuples = 64;
constexpr std::size_t kHotPoolBatches = 512;

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t s_;
};

/// A decimal number kept as digits * 10^-scale so it can be spelled
/// several ways that all parse to the same double.
struct Decimal {
  std::uint64_t digits = 0;
  int scale = 0;
  [[nodiscard]] double value() const {
    return std::stod(std::to_string(digits) + "e-" + std::to_string(scale));
  }
};

struct Param {
  std::string key;
  std::string text;   ///< integer or quoted string, spelled one way
  Decimal decimal;    ///< used when text is empty
};

/// One request tuple plus what its oracle needs.
struct Tuple {
  std::string key;  ///< identity of the tuple (not its spelling)
  std::string kernel;
  std::vector<Param> params;
  unsigned k = 2;
  double p = 0.0;
  unsigned m = 1;            ///< det:m service
  std::string family;        ///< closed_form
  unsigned distribution = 0;  ///< first_stage
};

std::string spell(const Decimal& d, std::uint64_t variant) {
  const std::string digits = std::to_string(d.digits);
  switch (variant % 3) {
    case 0: {  // plain decimal, e.g. 0.3127
      std::string s = digits;
      if (static_cast<int>(s.size()) <= d.scale)
        s.insert(0, static_cast<std::size_t>(d.scale) + 1 - s.size(), '0');
      s.insert(s.size() - static_cast<std::size_t>(d.scale), ".");
      return s;
    }
    case 1: {  // scientific with one leading digit, e.g. 3.127e-1
      const int exp = static_cast<int>(digits.size()) - 1 - d.scale;
      std::string s = digits.substr(0, 1);
      if (digits.size() > 1) s += "." + digits.substr(1);
      return s + "e" + std::to_string(exp);
    }
    default:  // integer mantissa, e.g. 3127e-4
      return digits + "e-" + std::to_string(d.scale);
  }
}

/// Render one request line; `variant` picks number spellings and key
/// order, so every variant canonicalizes to the same cache key.
std::string render(const Tuple& t, std::uint64_t id, std::uint64_t variant) {
  std::vector<std::string> fields;
  for (const Param& p : t.params)
    fields.push_back("\"" + p.key + "\":" +
                     (p.text.empty() ? spell(p.decimal, variant) : p.text));
  Rng order(variant * 0x2545f4914f6cdd1dull + 7);
  for (std::size_t i = fields.size(); i > 1; --i)
    std::swap(fields[i - 1], fields[order.below(i)]);
  std::string params = "{";
  for (const std::string& f : fields)
    params += (params.size() > 1 ? "," : "") + f;
  params += "}";
  const std::string id_f = "\"id\":" + std::to_string(id);
  const std::string kernel_f = "\"kernel\":\"" + t.kernel + "\"";
  const std::string params_f = "\"params\":" + params;
  switch (variant % 3) {
    case 0:
      return "{" + id_f + "," + kernel_f + "," + params_f + "}";
    case 1:
      return "{" + kernel_f + ", " + params_f + ", " + id_f + "}";
    default:
      return "{ " + params_f + " , " + id_f + " ,\t" + kernel_f + " }";
  }
}

Param integer(std::string key, unsigned v) {
  return {std::move(key), std::to_string(v), {}};
}

/// p = rho / m as a decimal with `scale` digits, rho uniform in [lo, hi].
Decimal load(Rng& rng, double lo, double hi, unsigned m, int scale) {
  const double unit = std::pow(10.0, scale);
  const double rho = lo + (hi - lo) * rng.unit();
  return {static_cast<std::uint64_t>(std::floor(rho / m * unit)), scale};
}

Tuple traffic_tuple(std::string kernel, unsigned k, unsigned m, Decimal p) {
  Tuple t;
  t.kernel = std::move(kernel);
  t.k = k;
  t.m = m;
  t.p = p.value();
  t.params = {integer("k", k), {"p", "", p},
              {"service", "\"det:" + std::to_string(m) + "\"", {}}};
  return t;
}

Tuple first_stage(unsigned k, unsigned m, Decimal p, unsigned distribution) {
  Tuple t = traffic_tuple("first_stage", k, m, p);
  t.distribution = distribution;
  if (distribution > 0) t.params.push_back(integer("distribution", distribution));
  return t;
}

Tuple cheap_tuple(Rng& rng, std::size_t which, int scale) {
  const unsigned k = rng.below(2) == 0 ? 2 : 4;
  switch (which % 3) {
    case 0: {
      const unsigned m = 1u << rng.below(2);
      Tuple t = traffic_tuple("later_stages", k, m, load(rng, 0.1, 0.85, m, scale));
      t.params.push_back(integer("stage", static_cast<unsigned>(rng.below(9))));
      return t;
    }
    case 1: {
      const unsigned m = 1u << rng.below(3);
      Tuple t;
      t.kernel = "closed_form";
      t.family = "deterministic";
      t.k = k;
      t.m = m;
      const Decimal p = load(rng, 0.1, 0.85, m, scale);
      t.p = p.value();
      t.params = {{"family", "\"deterministic\"", {}}, integer("k", k),
                  {"p", "", p}, integer("m", m)};
      return t;
    }
    default: {
      Tuple t = traffic_tuple("total_delay", k, 1, load(rng, 0.1, 0.85, 1, scale));
      t.params.push_back(integer("stages", 3 + static_cast<unsigned>(rng.below(10))));
      return t;
    }
  }
}

/// serve_hot's 64 tuples: 16 per analytic kernel.
std::vector<Tuple> hot_tuples(std::uint64_t seed) {
  Rng rng(seed ^ 0x686f74ull);
  std::vector<Tuple> out;
  for (std::size_t i = 0; i < kHotTuples; ++i) {
    if (i % 4 == 0) {
      const unsigned m = 1u << rng.below(3);
      const unsigned k = 2u << rng.below(3);
      const unsigned dist[] = {0, 16, 64};
      out.push_back(first_stage(k, m, load(rng, 0.1, 0.85, m, 4),
                                dist[rng.below(3)]));
    } else if (i % 4 == 1) {
      out.push_back(cheap_tuple(rng, 0, 4));
    } else if (i % 4 == 2) {
      Tuple t;
      t.kernel = "closed_form";
      t.k = 2u << rng.below(2);
      const char* families[] = {"uniform", "bulk", "geometric"};
      t.family = families[rng.below(3)];
      const Decimal p = load(rng, 0.05, 0.4, 1, 4);  // rho <= 0.8 at b = 2
      t.p = p.value();
      t.params = {{"family", "\"" + t.family + "\"", {}}, integer("k", t.k),
                  {"p", "", p}};
      if (t.family == "bulk") t.params.push_back(integer("b", 2));
      if (t.family == "geometric")
        t.params.push_back({"mu", "", Decimal{75, 2}});
      out.push_back(t);
    } else {
      out.push_back(cheap_tuple(rng, 2, 4));
    }
    out.back().key = "hot." + std::to_string(i);
  }
  return out;
}

/// One serve_cold batch: 48 new keys (about 90% first_stage), and 16
/// repeats, each of an earlier key of the batch in another spelling and
/// placed after it.
std::vector<std::pair<Tuple, std::uint64_t>> cold_batch(std::uint64_t seed,
                                                        std::uint64_t batch) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull ^ (batch + 0x636f6c64ull));
  std::vector<std::pair<Tuple, std::uint64_t>> out;
  const std::size_t fresh = kBatch * 3 / 4;
  for (std::size_t i = 0; i < fresh; ++i) {
    if (rng.below(10) == 0) {
      out.emplace_back(cheap_tuple(rng, rng.below(3), 9), rng.below(3));
    } else {
      const unsigned m = 1u << rng.below(4);
      const unsigned dist[] = {512, 1024, 2048};
      out.emplace_back(first_stage(2u << rng.below(2), m,
                                   load(rng, 0.1, 0.9, m, 9),
                                   dist[rng.below(3)]),
                       rng.below(3));
    }
    out.back().first.key = "cold." + std::to_string(batch) + "." + std::to_string(i);
  }
  while (out.size() < kBatch) {
    const std::size_t src = static_cast<std::size_t>(rng.below(out.size()));
    auto repeat = out[src];
    ++repeat.second;
    const std::size_t at = src + 1 + static_cast<std::size_t>(rng.below(out.size() - src));
    out.insert(out.begin() + static_cast<std::ptrdiff_t>(at), std::move(repeat));
  }
  return out;
}

// ---------------------------------------------------------------- oracles

bool agrees(double got, double want, double rel) {
  return std::isfinite(got) &&
         std::abs(got - want) <= rel * std::max(1.0, std::abs(want));
}

/// `"key":<number>` in flat result bytes, read with strtod (io::Json's
/// parser throws on the subnormal terms a long distribution can carry);
/// NaN when absent or not a number.
double field(const std::string& bytes, const std::string& key) {
  const std::size_t at = bytes.find("\"" + key + "\":");
  if (at == std::string::npos) return std::nan("");
  const char* begin = bytes.c_str() + at + key.size() + 3;
  char* end = nullptr;
  const double v = std::strtod(begin, &end);
  return end == begin ? std::nan("") : v;
}

/// `"key":[n,n,...]` likewise; empty when absent or malformed.
std::vector<double> array_field(const std::string& bytes,
                                const std::string& key) {
  std::vector<double> out;
  const std::size_t at = bytes.find("\"" + key + "\":[");
  if (at == std::string::npos) return out;
  const char* p = bytes.c_str() + at + key.size() + 4;
  while (*p != ']') {
    char* end = nullptr;
    out.push_back(std::strtod(p, &end));
    if (end == p || (*end != ',' && *end != ']')) return {};
    p = *end == ',' ? end + 1 : end;
  }
  return out;
}

/// Kernel-level checks on result bytes; returns "" when they hold.
std::string check_result(const Tuple& t, const std::string& bytes) {
  namespace closed = ksw::core::closed;
  const auto num = [&](const char* key) { return field(bytes, key); };
  if (t.kernel == "first_stage") {
    const double mean = closed::eq8_mean(t.k, t.k, t.p, t.m);
    const double var = closed::eq9_variance(t.k, t.k, t.p, t.m);
    if (!agrees(num("mean_wait"), mean, 1e-9)) return "mean_wait != eq. 8";
    if (!agrees(num("var_wait"), var, 1e-7)) return "var_wait != eq. 9";
    const std::vector<double> d = array_field(bytes, "distribution");
    if (d.size() != t.distribution) return "distribution length";
    double mass = 0.0, moment = 0.0;
    for (std::size_t j = 0; j < d.size(); ++j) {
      if (!std::isfinite(d[j]) || d[j] < -1e-12) return "distribution term";
      mass += d[j];
      moment += static_cast<double>(j) * d[j];
    }
    if (mass > 1.0 + 1e-9) return "distribution mass > 1";
    // From 512 terms on (rho <= 0.9) the truncated tail's share of E[w]
    // is below 3e-5; shorter prefixes are checked for mass only.
    if (d.size() >= 512 && !agrees(moment, mean, 1e-4))
      return "distribution first moment != E[w]";
    return "";
  }
  if (t.kernel == "later_stages")
    return agrees(num("w1"), closed::eq8_mean(t.k, t.k, t.p, t.m), 1e-9)
               ? ""
               : "w1 != eq. 8";
  if (t.kernel == "total_delay") {
    const double w1 = closed::eq8_mean(t.k, t.k, t.p, t.m);
    const double total = num("mean_total");
    return std::isfinite(total) && total >= w1 && num("var_total") > 0.0
               ? ""
               : "total_delay moments";
  }
  double want = 0.0;  // closed_form
  if (t.family == "deterministic") want = closed::eq8_mean(t.k, t.k, t.p, t.m);
  if (t.family == "uniform") want = closed::eq6_mean(t.k, t.k, t.p);
  if (t.family == "bulk") want = closed::bulk_mean(t.k, t.k, t.p, 2);
  if (t.family == "geometric")
    want = closed::geometric_mean(t.k, t.k, t.p, 0.75);
  return agrees(num("mean"), want, 1e-10) ? "" : "closed_form mean";
}

/// Split `out` into response lines and check envelope, id order, kernel
/// and per-tuple byte identity. `expected[tuple key]` holds known-good
/// result bytes and is filled on first sight, when `deep` also runs
/// check_result on them.
void check_batch(const std::vector<const Tuple*>& tuples,
                 const std::vector<std::uint64_t>& ids, const std::string& out,
                 std::map<std::string, std::string>& expected, bool deep,
                 Outcome& outcome) {
  std::size_t pos = 0;
  for (std::size_t i = 0; i < tuples.size(); ++i) {
    const std::size_t nl = out.find('\n', pos);
    const std::string line =
        out.substr(pos, nl == std::string::npos ? std::string::npos : nl - pos);
    pos = nl == std::string::npos ? out.size() : nl + 1;
    const std::string head = "{\"id\":" + std::to_string(ids[i]) +
                             ",\"ok\":true,\"kernel\":\"" + tuples[i]->kernel +
                             "\",\"cached\":";
    std::string why;
    std::string bytes;
    if (line.compare(0, head.size(), head) != 0 || line.back() != '}') {
      why = "envelope, ok or id order";
    } else {
      std::size_t at = head.size();
      if (line.compare(at, 4, "true") == 0) {
        at += 4;
      } else if (line.compare(at, 5, "false") == 0) {
        at += 5;  // the in-batch duplicate race: accepted only here
      }
      if (line.compare(at, 10, ",\"result\":") != 0) {
        why = "envelope";
      } else {
        bytes = line.substr(at + 10, line.size() - at - 11);
        const auto [it, fresh] = expected.emplace(tuples[i]->key, bytes);
        if (!fresh && it->second != bytes) why = "result bytes differ for one key";
        if (fresh && deep) why = check_result(*tuples[i], bytes);
      }
    }
    outcome.check(why.empty(), "request " + std::to_string(ids[i]) + " (" +
                                   tuples[i]->kernel + "): " + why);
  }
}

/// The --inject response hook: bump one digit of a first_stage mean_wait.
void corrupt(std::string& out) {
  const std::size_t at = out.find("\"mean_wait\":");
  const std::size_t digit =
      at == std::string::npos ? at : out.find_first_of("123456789", at + 12);
  if (digit == std::string::npos)
    throw std::logic_error("--inject response: no first_stage mean_wait");
  out[digit] = out[digit] == '9' ? '1' : static_cast<char>(out[digit] + 1);
}

// ---------------------------------------------------------------- streams

/// The request stream of one run: batches of lines plus their tuples.
class Stream {
 public:
  Stream(const std::string& workload, std::uint64_t seed)
      : hot_(workload == "serve_hot"), seed_(seed) {
    if (!hot_) return;
    tuples_ = hot_tuples(seed);
    Rng rng(seed ^ 0x7a697066ull);
    std::vector<double> cdf;
    double total = 0.0;
    for (std::size_t i = 0; i < kHotTuples; ++i) cdf.push_back(total += 1.0 / (1.0 + static_cast<double>(i)));
    std::vector<std::size_t> rank(kHotTuples);
    for (std::size_t i = 0; i < kHotTuples; ++i) rank[i] = i;
    for (std::size_t i = kHotTuples; i > 1; --i)
      std::swap(rank[i - 1], rank[rng.below(i)]);
    for (std::size_t i = 0; i < kHotPoolBatches * kBatch; ++i) {
      const double u = rng.unit() * total;
      const std::size_t r = static_cast<std::size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      pool_.emplace_back(rank[std::min(r, kHotTuples - 1)], rng.below(3));
    }
  }

  struct Batch {
    std::vector<std::string> lines;
    std::vector<const Tuple*> tuples;  ///< into the stream or `cold`
    std::vector<std::uint64_t> ids;
    std::shared_ptr<const std::vector<std::pair<Tuple, std::uint64_t>>> cold;
  };

  /// Batch `b` of the stream (ids b*64 ...; set-up uses b = 2^40).
  Batch batch(std::uint64_t b) {
    if (!hot_) return cold(seed_, b);
    Batch out;
    const std::size_t base = (b % kHotPoolBatches) * kBatch;
    for (std::size_t i = 0; i < kBatch; ++i) {
      const auto [tuple, variant] = pool_[base + i];
      out.ids.push_back(b * kBatch + i);
      out.tuples.push_back(&tuples_[tuple]);
      out.lines.push_back(render(tuples_[tuple], out.ids.back(), variant));
    }
    return out;
  }

  /// Warm-up batch: every hot tuple once; for cold, one fixed batch of
  /// keys the timed stream never uses, the same for every seed so that
  /// set-up does the same work in every run.
  Batch warmup() {
    if (!hot_) return cold(0, 1ull << 40);
    Batch out;
    for (std::size_t i = 0; i < tuples_.size(); ++i) {
      out.ids.push_back(i);
      out.tuples.push_back(&tuples_[i]);
      out.lines.push_back(render(tuples_[i], i, 0));
    }
    return out;
  }

  [[nodiscard]] bool hot() const noexcept { return hot_; }

 private:
  static Batch cold(std::uint64_t seed, std::uint64_t b) {
    Batch out;
    out.cold = std::make_shared<const std::vector<std::pair<Tuple, std::uint64_t>>>(
        cold_batch(seed, b));
    for (const auto& [tuple, variant] : *out.cold) {
      out.ids.push_back(b * kBatch + out.tuples.size());
      out.tuples.push_back(&tuple);
      out.lines.push_back(render(tuple, out.ids.back(), variant));
    }
    return out;
  }

  bool hot_;
  std::uint64_t seed_;
  std::vector<Tuple> tuples_;
  std::vector<std::pair<std::size_t, std::uint64_t>> pool_;
};

std::vector<Request> parse_all(const std::vector<std::string>& lines) {
  std::vector<Request> out;
  out.reserve(lines.size());
  for (const std::string& line : lines) out.push_back(Request::parse(line));
  return out;
}

ksw::serve::ServeOptions serve_options() {
  ksw::serve::ServeOptions opts;
  opts.threads = kThreads;
  opts.batch = kBatch;
  opts.cache_mb = kCacheMb;
  return opts;
}

/// Service construction plus the warm-up batch through serve_batch.
std::unique_ptr<ksw::serve::Service> set_up(Stream& stream,
                                            std::map<std::string, std::string>& expected,
                                            Outcome& out) {
  auto service = std::make_unique<ksw::serve::Service>(serve_options());
  const Stream::Batch warm = stream.warmup();
  std::string text;
  service->serve_batch(parse_all(warm.lines), &text, nullptr);
  check_batch(warm.tuples, warm.ids, text, expected, true, out);
  return service;
}

Outcome timed_run(const Options& opts) {
  Outcome out;
  Stream stream(opts.workload, opts.seed);
  std::map<std::string, std::string> expected;  // hot: warm-up bytes
  std::vector<double> setups;
  std::unique_ptr<ksw::serve::Service> service;
  for (int i = 0; i < 11; ++i) {
    service.reset();
    const Clock::time_point t0 = Clock::now();
    service = set_up(stream, expected, out);
    setups.push_back(seconds_since(t0));
  }

  // The stream runs in segments: a segment's batches are generated and
  // parsed first, then served back to back (so the pool never idles on
  // the client), then checked. Parse cost is a per-layer metric.
  const std::uint64_t segment = stream.hot() ? 64 : 2;
  std::vector<double> batch_s;
  std::uint64_t responses = 0;
  const Clock::time_point start = Clock::now();
  for (std::uint64_t b = 0; b < 8 || seconds_since(start) < opts.seconds;
       b += segment) {
    std::vector<Stream::Batch> batches;
    std::vector<std::vector<Request>> parsed;
    for (std::uint64_t i = 0; i < segment; ++i) {
      batches.push_back(stream.batch(b + i));
      parsed.push_back(parse_all(batches.back().lines));
    }
    std::vector<std::string> texts(segment);
    for (std::uint64_t i = 0; i < segment; ++i) {
      const Clock::time_point t0 = Clock::now();
      service->serve_batch(std::move(parsed[i]), &texts[i], nullptr);
      batch_s.push_back(seconds_since(t0));
    }
    for (std::uint64_t i = 0; i < segment; ++i) {
      if (opts.inject == "response" && b + i == 1) corrupt(texts[i]);
      const std::uint64_t failed_before = out.failed;
      std::map<std::string, std::string> batch_bytes;  // cold: per batch
      check_batch(batches[i].tuples, batches[i].ids, texts[i],
                  stream.hot() ? expected : batch_bytes, !stream.hot(), out);
      responses += kBatch - (out.failed - failed_before);
    }
  }

  // Correct responses per second at the median batch time: a rate that
  // host scheduling stalls (which hit the tail, see batch_p90_ms) do not
  // swing between identical runs.
  const double ok_share =
      static_cast<double>(responses) / static_cast<double>(batch_s.size() * kBatch);
  out.metrics["throughput"] = ok_share * kBatch / quantile(batch_s, 0.5);
  out.metrics["batch_p50_ms"] = 1e3 * quantile(batch_s, 0.5);
  out.metrics["batch_p90_ms"] = 1e3 * quantile(batch_s, 0.9);
  out.metrics["setup_s"] = median(setups);
  out.metrics["peak_rss_mb"] = peak_rss_mb();
  const auto stats = service->cache().stats();
  out.notes["batches"] = std::to_string(batch_s.size());
  out.notes["responses_ok"] = std::to_string(responses);
  out.notes["serve.cache.hits"] = std::to_string(stats.hits);
  out.notes["serve.cache.misses"] = std::to_string(stats.misses);
  out.notes["serve.cache.evictions"] = std::to_string(stats.evictions);
  return out;
}

// ------------------------------------------------------------ traced run

/// serve_batch decomposed into its public layers on a 2-thread pool, one
/// span per layer call: Query::canonical, fnv1a64, EvalCache::lookup,
/// evaluate_bytes + EvalCache::insert on a miss, render_ok. Keeps
/// serve_batch's structure, including the in-batch duplicate race.
class Decomposed {
 public:
  explicit Decomposed(ksw::obs::Tracer* tracer)
      : tracer_(tracer), cache_(kCacheMb * 1024 * 1024), pool_(kThreads) {}

  std::string serve(const std::vector<std::string>& lines) {
    std::vector<Request> reqs;
    for (const std::string& line : lines) {
      ksw::obs::Span parse(tracer_, "serve.parse");
      reqs.push_back(Request::parse(line));
    }
    std::vector<std::string> responses(reqs.size());
    ksw::obs::Span batch(tracer_, "serve.batch");
    ksw::par::parallel_for(pool_, reqs.size(), [&](std::size_t i) {
      const Request& req = reqs[i];
      ksw::obs::Span request(tracer_, "serve.request", batch.trace_id());
      if (!req.valid()) {
        responses[i] = ksw::serve::render_error(req.id, req.error_kind,
                                                req.error_message);
        return;
      }
      ksw::obs::Span canonical(tracer_, "serve.canonical");
      const std::string key = req.query.canonical();
      canonical.end();
      ksw::obs::Span hash_span(tracer_, "serve.hash");
      const std::uint64_t hash = ksw::serve::fnv1a64(key);
      hash_span.end();
      ksw::obs::Span lookup(tracer_, "serve.cache_lookup");
      std::optional<std::string> bytes = cache_.lookup(hash, key);
      lookup.label("hit", bytes ? "1" : "0");
      lookup.end();
      const bool cached = bytes.has_value();
      if (!cached) {
        ksw::obs::Span eval(tracer_, "serve.eval");
        eval.label("kernel", ksw::serve::kernel_name(req.query.kernel));
        try {
          bytes = ksw::serve::evaluate_bytes(req.query);
        } catch (const std::exception& e) {
          responses[i] = ksw::serve::render_error(req.id, "internal", e.what());
          return;
        }
        eval.end();
        ksw::obs::Span insert(tracer_, "serve.cache_insert");
        cache_.insert(hash, key, *bytes);
      }
      ksw::obs::Span render(tracer_, "serve.render");
      responses[i] =
          ksw::serve::render_ok(req.id, req.query.kernel, cached, *bytes);
    });
    batch.end();
    std::string out;
    for (const std::string& r : responses) out += r + "\n";
    return out;
  }

 private:
  ksw::obs::Tracer* tracer_;
  ksw::serve::EvalCache cache_;
  ksw::par::ThreadPool pool_;
};

Outcome traced_run(const Options& opts) {
  Outcome out;
  TraceLedger ledger;
  ksw::obs::Tracer* tracer = ledger.tracer();
  ksw::obs::Span root(tracer, "perfbench.run");
  root.label("workload", opts.workload);
  for (const auto& [k, v] : machine_block()) root.label("machine." + k, v);

  Stream stream(opts.workload, opts.seed);
  const std::uint64_t batches = stream.hot() ? 200 : 16;
  std::map<std::string, std::string> expected;
  {
    // Pass A: the real Service::serve_batch, for cache counts and p99.
    ksw::obs::Span pass(tracer, "perfbench.pass");
    pass.label("pass", "serve_batch");
    auto service = set_up(stream, expected, out);
    const auto before = service->cache().stats();
    const std::size_t warm_keys = expected.size();
    // Parsed ahead and served back to back, as in the timed run.
    std::vector<Stream::Batch> all;
    std::vector<std::vector<Request>> parsed;
    for (std::uint64_t b = 0; b < batches; ++b) {
      all.push_back(stream.batch(b));
      parsed.push_back(parse_all(all.back().lines));
    }
    std::vector<std::string> texts(batches);
    for (std::uint64_t b = 0; b < batches; ++b) {
      ksw::obs::Span call(tracer, "serve.serve_batch");
      service->serve_batch(std::move(parsed[b]), &texts[b], nullptr);
    }
    for (std::uint64_t b = 0; b < batches; ++b) {
      if (opts.inject == "response" && b == 1) corrupt(texts[b]);
      check_batch(all[b].tuples, all[b].ids, texts[b], expected,
                  !stream.hot(), out);
    }
    const auto after = service->cache().stats();
    pass.label("hits", std::to_string(after.hits - before.hits));
    pass.label("misses", std::to_string(after.misses - before.misses));
    pass.label("distinct_new_keys", std::to_string(expected.size() - warm_keys));
  }
  // Passes B: the decomposition, untraced (inert spans) then traced.
  for (ksw::obs::Tracer* t : {static_cast<ksw::obs::Tracer*>(nullptr), tracer}) {
    Decomposed decomposed(t);
    (void)decomposed.serve(stream.warmup().lines);
    ksw::obs::Span pass(tracer, "perfbench.pass");
    pass.label("pass", t == nullptr ? "untraced" : "traced");
    for (std::uint64_t b = 0; b < batches; ++b)
      (void)decomposed.serve(stream.batch(b).lines);
  }
  // core/pgf probe: Theorem 1 moments and series inversion, outside the
  // passes, on the first-stage queries of the first batches.
  for (std::uint64_t b = 0, probes = 0; b < batches && probes < 24; ++b) {
    Stream::Batch batch = stream.batch(b);
    for (const Tuple* t : batch.tuples) {
      if (t->kernel != "first_stage" || probes >= 24) continue;
      ++probes;
      const ksw::core::FirstStage fs(ksw::core::QueueSpec{
          ksw::core::make_bulk_arrivals(t->k, t->k, t->p, 1),
          ksw::sim::ServiceSpec::deterministic(t->m).to_model()});
      double mean = 0.0;
      {
        ksw::obs::Span span(tracer, "core.moments");
        mean = fs.moments().mean;
      }
      out.check(agrees(mean, ksw::core::closed::eq8_mean(t->k, t->k, t->p, t->m), 1e-9),
                "core probe: FirstStage::moments != eq. 8");
      if (t->distribution == 0) continue;
      ksw::obs::Span span(tracer, "pgf.distribution");
      span.label("length", std::to_string(t->distribution));
      (void)fs.distribution(t->distribution);
    }
  }
  root.end();

  out.trace_file = opts.trace_dir + "/" + opts.workload + ".trace.jsonl";
  ledger.write_and_reload(out.trace_file);
  auto& m = out.metrics;
  const auto us = [](std::vector<double> ns) {
    for (double& x : ns) x *= 1e-3;
    return ns;
  };
  for (const std::string layer :
       {"parse", "canonical", "cache_lookup", "cache_insert", "render"}) {
    const std::vector<double> d = us(ledger.durations("serve." + layer));
    m["serve." + layer + "_us.p50"] = median(d);
    m["serve." + layer + "_us.total"] = sum(d);
  }
  double components = 0.0;  // per-request work inside serve.request
  for (const std::string layer : {"canonical", "hash", "cache_lookup",
                                  "cache_insert", "render", "eval"})
    components += sum(us(ledger.durations("serve." + layer)));
  for (const std::string& k : serve_kernel_names())
    m["serve.eval_us." + k] = median(us(ledger.durations("serve.eval", "kernel", k)));
  m["pgf.distribution_us"] = median(us(ledger.durations("pgf.distribution")));
  m["core.moments_us"] = median(us(ledger.durations("core.moments")));
  const double batch_us = sum(us(ledger.durations("serve.batch")));
  const double request_us = sum(us(ledger.durations("serve.request")));
  const double threads = static_cast<double>(kThreads);
  m["serve.dispatch_share"] = 1.0 - components / (threads * batch_us);
  m["par.idle_share"] = 1.0 - request_us / (threads * batch_us);
  const double hits = ledger.label_sum("perfbench.pass", "hits");
  const double misses = ledger.label_sum("perfbench.pass", "misses");
  m["serve.cache.hits"] = hits;
  m["serve.cache.misses"] = misses;
  m["serve.hit_ratio"] = hits / (hits + misses);
  m["serve.redundant_evals"] =
      misses - ledger.label_sum("perfbench.pass", "distinct_new_keys");
  m["serve.batch_p99_ms"] = 1e-6 * quantile(ledger.durations("serve.serve_batch"), 0.99);
  const double traced = sum(ledger.durations("perfbench.pass", "pass", "traced"));
  const double untraced = sum(ledger.durations("perfbench.pass", "pass", "untraced"));
  m["obs.trace_overhead"] = traced / untraced - 1.0;
  return out;
}

}  // namespace

std::vector<std::string> serve_kernel_names() {
  return {"first_stage", "later_stages", "closed_form", "total_delay"};
}

bool is_serve_workload(const std::string& name) {
  return name == "serve_hot" || name == "serve_cold";
}

Outcome run_serve(const Options& opts) {
  return opts.trace ? traced_run(opts) : timed_run(opts);
}

}  // namespace perfbench
