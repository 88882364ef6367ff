#include "serve/query.hpp"

#include <cmath>
#include <cstdio>
#include <set>
#include <sstream>
#include <string_view>

#include "sim/service_spec.hpp"
#include "support/error.hpp"

namespace ksw::serve {

namespace {

/// Hexfloat rendering: exact, locale-free, and canonical for a given bit
/// pattern — the property the cache key needs.
std::string hexfloat(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

[[noreturn]] void bad_request(const std::string& what) {
  throw ksw::usage_error(what);
}

unsigned read_unsigned(const io::Json& params, const std::string& key,
                       unsigned fallback, unsigned min_value = 0) {
  if (!params.contains(key)) return fallback;
  std::int64_t v = 0;
  try {
    v = params.at(key).as_int();
  } catch (const std::invalid_argument&) {
    bad_request("params." + key + ": expected an integer");
  }
  if (v < static_cast<std::int64_t>(min_value) || v > 0xffffffffll)
    bad_request("params." + key + ": out of range");
  return static_cast<unsigned>(v);
}

/// Subnormal parameters parse (io::Json accepts finite underflow) but
/// are no model input: a rate of 1e-320 overflows 1/lambda. Reject them
/// in-band instead of evaluating garbage.
void check_normal(double v, const std::string& what) {
  if (std::fpclassify(v) == FP_SUBNORMAL)
    bad_request(what + ": subnormal numbers are not accepted");
}

double read_double(const io::Json& params, const std::string& key,
                   double fallback) {
  if (!params.contains(key)) return fallback;
  double v = 0.0;
  try {
    v = params.at(key).as_double();
  } catch (const std::invalid_argument&) {
    bad_request("params." + key + ": expected a number");
  }
  check_normal(v, "params." + key);
  return v;
}

std::string read_string(const io::Json& params, const std::string& key,
                        const std::string& fallback) {
  if (!params.contains(key)) return fallback;
  try {
    return params.at(key).as_string();
  } catch (const std::invalid_argument&) {
    bad_request("params." + key + ": expected a string");
  }
}

void check_probability(double v, const std::string& key) {
  if (!(v >= 0.0 && v <= 1.0))
    bad_request("params." + key + ": expected a probability in [0, 1]");
}

/// Reject any params key outside the kernel's vocabulary, so a typo'd
/// tuple never silently evaluates the defaults.
void check_keys(const io::Json& params,
                const std::set<std::string>& allowed) {
  for (const auto& key : params.keys())
    if (allowed.count(key) == 0)
      bad_request("params." + key + ": unknown parameter");
}

Kernel parse_kernel(const std::string& name) {
  if (name == "first_stage") return Kernel::kFirstStage;
  if (name == "later_stages") return Kernel::kLaterStages;
  if (name == "closed_form") return Kernel::kClosedForm;
  if (name == "total_delay") return Kernel::kTotalDelay;
  if (name == "finite_buffer") return Kernel::kFiniteBuffer;
  if (name == "buffer_sweep") return Kernel::kBufferSweep;
  bad_request("kernel: expected first_stage|later_stages|closed_form|"
              "total_delay|finite_buffer|buffer_sweep, got \"" + name +
              "\"");
}

/// Shared parsing of the finite_buffer/buffer_sweep simulation tuple
/// (everything except depth/depths). Simulation kernels are the only
/// ones whose cost scales with the tuple, so serve's cost caps live here;
/// the domain rules are sim::check's (check_sim_depth).
void parse_sim_tuple(Query& query, const io::Json& params) {
  query.stages = read_unsigned(params, "stages", 3, 1);
  if (sim::port_count(query.k, query.stages) > 4096)
    bad_request("params.stages: k^stages must stay <= 4096 ports");
  try {
    query.flow = sim::parse_flow_control(read_string(params, "flow", "vct"));
  } catch (const std::invalid_argument&) {
    bad_request("params.flow: expected vct|saf|credit");
  }
  if (query.flow == sim::FlowControl::kCredit)
    query.credit_latency = read_unsigned(params, "credit_latency", 2);
  else if (params.contains("credit_latency"))
    bad_request("params.credit_latency: only meaningful with flow=credit");
  query.cycles = read_unsigned(params, "cycles", 20'000, 1);
  if (query.cycles > 200'000)
    bad_request("params.cycles: at most 200000 measured cycles");
  query.warmup = read_unsigned(params, "warmup", 2'000);
  if (query.warmup > 200'000)
    bad_request("params.warmup: at most 200000 warmup cycles");
  query.replicates = read_unsigned(params, "replicates", 1, 1);
  if (query.replicates > 8)
    bad_request("params.replicates: at most 8 replicates");
  query.seed = read_unsigned(params, "seed", 1);
}

/// sim::check on the config the kernel runs at `depth`; a rejected field
/// is named by its params key.
void check_sim_depth(const Query& query, unsigned depth) {
  try {
    sim::check(sim_config(query, depth));
  } catch (const sim::ConfigError& e) {
    const std::string field = e.field;
    const std::string key = field == "measure_cycles"  ? "cycles"
                            : field == "warmup_cycles" ? "warmup"
                                                       : field;
    bad_request("params." + key + ": " + e.what());
  }
}

Query parse_query(Kernel kernel, const io::Json& params) {
  if (!params.is_null() && !params.is_object())
    bad_request("params: expected an object");
  Query query;
  query.kernel = kernel;

  const auto traffic = [&](bool with_s) {
    query.k = read_unsigned(params, "k", 2, 1);
    query.s = with_s ? read_unsigned(params, "s", query.k, 1) : query.k;
    query.p = read_double(params, "p", 0.5);
    check_probability(query.p, "p");
    query.bulk = read_unsigned(params, "bulk", 1, 1);
    query.q = read_double(params, "q", 0.0);
    check_probability(query.q, "q");
    query.service = read_string(params, "service", "det:1");
    try {
      (void)sim::ServiceSpec::parse(query.service);
    } catch (const std::invalid_argument& e) {
      bad_request("params.service: " + std::string(e.what()));
    }
  };

  switch (kernel) {
    case Kernel::kFirstStage:
      check_keys(params,
                 {"k", "s", "p", "bulk", "q", "service", "distribution"});
      traffic(/*with_s=*/true);
      query.distribution = read_unsigned(params, "distribution", 0);
      if (query.distribution > 1u << 16)
        bad_request("params.distribution: at most 65536 terms");
      if (query.q > 0.0 && query.k != query.s)
        bad_request("params.q: favorite-output traffic requires k == s");
      break;
    case Kernel::kLaterStages:
      check_keys(params, {"k", "p", "bulk", "q", "service", "stage"});
      traffic(/*with_s=*/false);
      query.stage = read_unsigned(params, "stage", 0);
      break;
    case Kernel::kTotalDelay: {
      check_keys(params,
                 {"k", "p", "bulk", "q", "service", "stages", "quantiles"});
      traffic(/*with_s=*/false);
      query.stages = read_unsigned(params, "stages", 10, 1);
      if (params.contains("quantiles")) {
        const io::Json& qs = params.at("quantiles");
        if (!qs.is_array() || qs.size() == 0)
          bad_request("params.quantiles: expected a non-empty array");
        query.quantiles.clear();
        for (std::size_t i = 0; i < qs.size(); ++i) {
          double v = 0.0;
          try {
            v = qs.at(i).as_double();
          } catch (const std::invalid_argument&) {
            bad_request("params.quantiles: expected numbers");
          }
          check_normal(v, "params.quantiles");
          if (!(v > 0.0 && v < 1.0))
            bad_request("params.quantiles: values must lie in (0, 1)");
          query.quantiles.push_back(v);
        }
      }
      break;
    }
    case Kernel::kFiniteBuffer:
      check_keys(params, {"k", "p", "bulk", "q", "service", "stages",
                          "depth", "flow", "credit_latency", "cycles",
                          "warmup", "replicates", "seed"});
      traffic(/*with_s=*/false);
      parse_sim_tuple(query, params);
      query.depth = read_unsigned(params, "depth", 4, 1);
      if (query.depth > 1024)
        bad_request("params.depth: at most 1024 slots per queue");
      check_sim_depth(query, query.depth);
      break;
    case Kernel::kBufferSweep: {
      check_keys(params, {"k", "p", "bulk", "q", "service", "stages",
                          "depths", "flow", "credit_latency", "cycles",
                          "warmup", "replicates", "seed"});
      traffic(/*with_s=*/false);
      parse_sim_tuple(query, params);
      if (!params.contains("depths"))
        bad_request("params.depths: required for buffer_sweep");
      const io::Json& ds = params.at("depths");
      if (!ds.is_array() || ds.size() == 0)
        bad_request("params.depths: expected a non-empty array");
      if (ds.size() > 16) bad_request("params.depths: at most 16 depths");
      for (std::size_t i = 0; i < ds.size(); ++i) {
        std::int64_t v = 0;
        try {
          v = ds.at(i).as_int();
        } catch (const std::invalid_argument&) {
          bad_request("params.depths: expected integers");
        }
        if (v < 1 || v > 1024)
          bad_request("params.depths: depths must lie in [1, 1024]");
        if (!query.depths.empty() &&
            static_cast<unsigned>(v) <= query.depths.back())
          bad_request("params.depths: must be strictly ascending");
        query.depths.push_back(static_cast<unsigned>(v));
      }
      check_sim_depth(query, 0);  // the infinite-queue baseline
      for (const unsigned depth : query.depths) check_sim_depth(query, depth);
      break;
    }
    case Kernel::kClosedForm: {
      query.family = read_string(params, "family", "");
      if (query.family == "uniform") {
        check_keys(params, {"family", "k", "s", "p"});
      } else if (query.family == "bulk") {
        check_keys(params, {"family", "k", "s", "p", "b"});
      } else if (query.family == "nonuniform") {
        check_keys(params, {"family", "k", "p", "q", "b"});
      } else if (query.family == "geometric") {
        check_keys(params, {"family", "k", "s", "p", "mu"});
      } else if (query.family == "deterministic") {
        check_keys(params, {"family", "k", "s", "p", "m"});
      } else {
        bad_request(
            "params.family: expected uniform|bulk|nonuniform|geometric|"
            "deterministic");
      }
      query.k = read_unsigned(params, "k", 2, 1);
      query.s = read_unsigned(params, "s", query.k, 1);
      query.p = read_double(params, "p", 0.5);
      check_probability(query.p, "p");
      query.q = read_double(params, "q", 0.0);
      check_probability(query.q, "q");
      query.b = read_unsigned(params, "b", 1, 1);
      query.m = read_unsigned(params, "m", 1, 1);
      query.mu = read_double(params, "mu", 0.5);
      if (!(query.mu > 0.0 && query.mu <= 1.0))
        bad_request("params.mu: expected a value in (0, 1]");
      break;
    }
  }
  return query;
}

}  // namespace

sim::NetworkConfig sim_config(const Query& q, unsigned depth) {
  sim::NetworkConfig cfg;
  cfg.k = q.k;
  cfg.stages = q.stages;
  cfg.p = q.p;
  cfg.bulk = q.bulk;
  cfg.q = q.q;
  cfg.service = sim::ServiceSpec::parse(q.service);
  cfg.warmup_cycles = q.warmup;
  cfg.measure_cycles = q.cycles;
  cfg.buffer_capacity = depth;
  if (depth > 0) {
    cfg.flow = q.flow;
    cfg.credit_latency = q.credit_latency;  // 0, and unread, unless credit
  }
  return cfg;
}

const char* kernel_name(Kernel kernel) noexcept {
  switch (kernel) {
    case Kernel::kFirstStage:
      return "first_stage";
    case Kernel::kLaterStages:
      return "later_stages";
    case Kernel::kClosedForm:
      return "closed_form";
    case Kernel::kTotalDelay:
      return "total_delay";
    case Kernel::kFiniteBuffer:
      return "finite_buffer";
    case Kernel::kBufferSweep:
      return "buffer_sweep";
  }
  return "?";
}

std::string Query::canonical() const {
  std::ostringstream os;
  os << "{\"kernel\":\"" << kernel_name(kernel) << "\",\"params\":{";
  switch (kernel) {
    case Kernel::kFirstStage:
      os << "\"bulk\":" << bulk << ",\"distribution\":" << distribution
         << ",\"k\":" << k << ",\"p\":" << hexfloat(p)
         << ",\"q\":" << hexfloat(q) << ",\"s\":" << s << ",\"service\":\""
         << service << "\"";
      break;
    case Kernel::kLaterStages:
      os << "\"bulk\":" << bulk << ",\"k\":" << k << ",\"p\":" << hexfloat(p)
         << ",\"q\":" << hexfloat(q) << ",\"service\":\"" << service
         << "\",\"stage\":" << stage;
      break;
    case Kernel::kTotalDelay: {
      os << "\"bulk\":" << bulk << ",\"k\":" << k << ",\"p\":" << hexfloat(p)
         << ",\"q\":" << hexfloat(q) << ",\"quantiles\":[";
      for (std::size_t i = 0; i < quantiles.size(); ++i)
        os << (i ? "," : "") << hexfloat(quantiles[i]);
      os << "],\"service\":\"" << service << "\",\"stages\":" << stages;
      break;
    }
    case Kernel::kFiniteBuffer:
      os << "\"bulk\":" << bulk << ",\"credit_latency\":" << credit_latency
         << ",\"cycles\":" << cycles << ",\"depth\":" << depth
         << ",\"flow\":\"" << sim::to_string(flow) << "\",\"k\":" << k
         << ",\"p\":" << hexfloat(p) << ",\"q\":" << hexfloat(q)
         << ",\"replicates\":" << replicates << ",\"seed\":" << seed
         << ",\"service\":\"" << service << "\",\"stages\":" << stages
         << ",\"warmup\":" << warmup;
      break;
    case Kernel::kBufferSweep: {
      os << "\"bulk\":" << bulk << ",\"credit_latency\":" << credit_latency
         << ",\"cycles\":" << cycles << ",\"depths\":[";
      for (std::size_t i = 0; i < depths.size(); ++i)
        os << (i ? "," : "") << depths[i];
      os << "],\"flow\":\"" << sim::to_string(flow) << "\",\"k\":" << k
         << ",\"p\":" << hexfloat(p) << ",\"q\":" << hexfloat(q)
         << ",\"replicates\":" << replicates << ",\"seed\":" << seed
         << ",\"service\":\"" << service << "\",\"stages\":" << stages
         << ",\"warmup\":" << warmup;
      break;
    }
    case Kernel::kClosedForm:
      os << "\"b\":" << b << ",\"family\":\"" << family << "\",\"k\":" << k
         << ",\"m\":" << m << ",\"mu\":" << hexfloat(mu)
         << ",\"p\":" << hexfloat(p) << ",\"q\":" << hexfloat(q)
         << ",\"s\":" << s;
      break;
  }
  os << "}}";
  return os.str();
}

Request Request::parse(const std::string& line,
                       std::int64_t default_deadline_ms) {
  Request req;
  req.arrival = std::chrono::steady_clock::now();
  req.deadline_ms = default_deadline_ms;
  io::Json doc;
  // Any failure to read the line is the request's fault and answers
  // in-band; nothing a client sends may end the serve loop.
  try {
    doc = io::Json::parse(line);
  } catch (const std::exception& e) {
    req.error_kind = wire::kUsage;
    req.error_message = e.what();
    return req;
  }
  try {
    if (!doc.is_object()) bad_request("request: expected a JSON object");
    for (const auto& key : doc.keys())
      if (key != "schema" && key != "id" && key != "kernel" &&
          key != "params" && key != "deadline_ms" && key != "trace_id")
        bad_request(key + ": unknown request field");
    if (doc.contains("schema") &&
        doc.at("schema").as_string() != "ksw.query/v1")
      bad_request("schema: expected \"ksw.query/v1\"");
    if (doc.contains("id")) {
      const io::Json& id = doc.at("id");
      if (id.is_array() || id.is_object())
        bad_request("id: expected a scalar");
      req.id = id;
    }
    if (doc.contains("trace_id")) {
      const io::Json& trace = doc.at("trace_id");
      if (!trace.is_string() || trace.as_string().empty())
        bad_request("trace_id: expected a non-empty string");
      if (trace.as_string().size() > 64)
        bad_request("trace_id: at most 64 characters");
      req.trace_id = trace.as_string();
    }
    if (!doc.contains("kernel")) bad_request("kernel: required field");
    req.query =
        parse_query(parse_kernel(doc.at("kernel").as_string()),
                    doc.get("params"));
    if (doc.contains("deadline_ms")) {
      const std::int64_t ms = doc.at("deadline_ms").as_int();
      if (ms < 0) bad_request("deadline_ms: expected a non-negative integer");
      // Only a positive value overrides the server-wide --deadline-ms
      // budget. An explicit 0 means "no per-request override" — it must
      // not turn the request immortal when the server set a default.
      if (ms > 0) req.deadline_ms = ms;
    }
  } catch (const std::exception& e) {
    req.error_kind = wire::kUsage;
    req.error_message = e.what();
  }
  return req;
}

namespace {

/// The optional trace_id envelope field, placed right after "id" so
/// correlation fields lead the line. Empty renders nothing — untraced
/// responses keep the historic bytes.
std::string trace_field(const std::string& trace_id) {
  if (trace_id.empty()) return {};
  return ",\"trace_id\":\"" + io::json_escape(trace_id) + "\"";
}

}  // namespace

std::string render_ok(const io::Json& id, Kernel kernel, bool cached,
                      const std::string& result_bytes,
                      const std::string& trace_id) {
  const std::string id_text = id.to_string();
  const std::string trace = trace_field(trace_id);
  const std::string_view parts[] = {
      "{\"id\":", id_text, trace, ",\"ok\":true,\"kernel\":\"",
      kernel_name(kernel), "\",\"cached\":", cached ? "true" : "false",
      ",\"result\":", result_bytes, "}"};
  // One allocation and one copy of the result bytes.
  std::size_t size = 0;
  for (const std::string_view part : parts) size += part.size();
  std::string line;
  line.reserve(size);
  for (const std::string_view part : parts) line += part;
  return line;
}

std::string render_error(const io::Json& id, const std::string& kind,
                         const std::string& message,
                         const std::string& trace_id) {
  return "{\"id\":" + id.to_string() + trace_field(trace_id) +
         ",\"ok\":false,\"error\":{\"kind\":\"" + io::json_escape(kind) +
         "\",\"message\":\"" + io::json_escape(message) + "\"}}";
}

}  // namespace ksw::serve
