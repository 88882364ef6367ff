#include "sweep/manifest.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "sim/service_spec.hpp"
#include "support/error.hpp"

namespace ksw::sweep {

const char* to_string(SectionKind kind) {
  switch (kind) {
    case SectionKind::kFirstStage:
      return "first_stage";
    case SectionKind::kStageConvergence:
      return "stage_convergence";
    case SectionKind::kTotalDelay:
      return "total_delay";
    case SectionKind::kFiniteBuffer:
      return "finite_buffer";
  }
  return "?";
}

std::string Point::label() const {
  std::ostringstream os;
  os << "k=" << k;
  if (s != 0 && s != k) os << " s=" << s;
  os << " p=" << p;
  if (bulk != 1) os << " b=" << bulk;
  if (q != 0.0) os << " q=" << q;
  if (hotspot != 0.0)
    os << " hot=" << hotspot << "@" << hotspot_target;
  if (service != "det:1") os << " " << service;
  return os.str();
}

namespace {

[[noreturn]] void fail(const std::string& where, const std::string& what) {
  throw usage_error("manifest: " + where + ": " + what);
}

/// Strict-schema guard: every key of `obj` must be in `allowed`.
void check_keys(const io::Json& obj,
                std::initializer_list<const char*> allowed,
                const std::string& where) {
  for (const auto& key : obj.keys()) {
    const bool known = std::any_of(
        allowed.begin(), allowed.end(),
        [&](const char* a) { return key == a; });
    if (!known) fail(where, "unknown key \"" + key + "\"");
  }
}

/// A manifest integer that must fit 32 bits and be at least `min`; a value
/// outside that range fails naming `key`, before any narrowing.
unsigned as_u32(const io::Json& value, const std::string& where,
                const std::string& key, unsigned min) {
  const std::int64_t v = value.as_int();
  if (v < min) fail(where, key + " must be >= " + std::to_string(min));
  if (v > 0xffffffffll) fail(where, key + " must be <= 4294967295");
  return static_cast<unsigned>(v);
}

SectionKind parse_kind(const std::string& text, const std::string& where) {
  if (text == "first_stage") return SectionKind::kFirstStage;
  if (text == "stage_convergence") return SectionKind::kStageConvergence;
  if (text == "total_delay") return SectionKind::kTotalDelay;
  if (text == "finite_buffer") return SectionKind::kFiniteBuffer;
  fail(where, "unknown kind \"" + text +
                  "\" (expected first_stage|stage_convergence|total_delay|"
                  "finite_buffer)");
}

/// Merge budget/tolerance keys present in `obj` onto `budget`/`tol`.
void apply_settings(const io::Json& obj, const std::string& where,
                    RunBudget* budget, Tolerance* tol) {
  // Two replicates at least: the CI needs spread.
  if (obj.contains("replicates"))
    budget->replicates = as_u32(obj.at("replicates"), where, "replicates", 2);
  if (obj.contains("measure_cycles")) {
    const std::int64_t c = obj.at("measure_cycles").as_int();
    if (c <= 0) fail(where, "measure_cycles must be positive");
    budget->measure_cycles = c;
  }
  if (obj.contains("warmup_cycles")) {
    const std::int64_t c = obj.at("warmup_cycles").as_int();
    if (c < 0) fail(where, "warmup_cycles must be >= 0");
    budget->warmup_cycles = c;
  }
  if (obj.contains("seed"))
    budget->seed = static_cast<std::uint64_t>(obj.at("seed").as_int());
  if (obj.contains("ci_level")) {
    const double level = obj.at("ci_level").as_double();
    if (!(level > 0.0 && level < 1.0))
      fail(where, "ci_level must be in (0,1)");
    budget->ci_level = level;
  }
  if (obj.contains("mean_rel_tol")) {
    tol->mean_rel = obj.at("mean_rel_tol").as_double();
    if (tol->mean_rel < 0.0) fail(where, "mean_rel_tol must be >= 0");
  }
  if (obj.contains("var_rel_tol")) {
    tol->var_rel = obj.at("var_rel_tol").as_double();
    if (tol->var_rel < 0.0) fail(where, "var_rel_tol must be >= 0");
  }
  if (obj.contains("abs_tol")) {
    tol->abs = obj.at("abs_tol").as_double();
    if (tol->abs < 0.0) fail(where, "abs_tol must be >= 0");
  }
}

constexpr std::initializer_list<const char*> kSettingKeys = {
    "replicates", "measure_cycles", "warmup_cycles", "seed",
    "ci_level",   "mean_rel_tol",   "var_rel_tol",   "abs_tol"};

/// Apply one named parameter to a point. The value is a JSON number for
/// the numeric keys and a string for "service".
void apply_param(Point* point, const std::string& key, const io::Json& value,
                 const std::string& where) {
  if (key == "k") {
    point->k = as_u32(value, where, key, 1);
  } else if (key == "s") {
    point->s = as_u32(value, where, key, 1);
  } else if (key == "p") {
    point->p = value.as_double();
    if (!(point->p > 0.0 && point->p <= 1.0))
      fail(where, "p must be in (0,1]");
  } else if (key == "bulk") {
    point->bulk = as_u32(value, where, key, 1);
  } else if (key == "q") {
    point->q = value.as_double();
    if (!(point->q >= 0.0 && point->q < 1.0))
      fail(where, "q must be in [0,1)");
  } else if (key == "hotspot") {
    point->hotspot = value.as_double();
    if (!(point->hotspot >= 0.0 && point->hotspot < 1.0))
      fail(where, "hotspot must be in [0,1)");
  } else if (key == "hotspot_target") {
    point->hotspot_target = as_u32(value, where, key, 0);
  } else if (key == "service") {
    point->service = value.as_string();
    try {
      (void)sim::ServiceSpec::parse(point->service);  // validate eagerly
    } catch (const std::invalid_argument& e) {
      fail(where, std::string("bad service spec: ") + e.what());
    }
  } else {
    fail(where, "unknown parameter \"" + key +
                    "\" (expected k, s, p, bulk, q, hotspot, "
                    "hotspot_target, or service)");
  }
}

/// Expand a grid block into concrete points: the Cartesian product of the
/// listed axes (later axes vary fastest), then any explicit points.
std::vector<Point> parse_grid(const io::Json& grid, const std::string& where) {
  check_keys(grid, {"axes", "points"}, where);
  std::vector<Point> out;

  if (grid.contains("axes")) {
    const io::Json& axes = grid.at("axes");
    if (!axes.is_object()) fail(where, "axes must be an object");
    const auto keys = axes.keys();
    for (const auto& key : keys)
      if (axes.at(key).size() == 0 || !axes.at(key).is_array())
        fail(where, "axis \"" + key + "\" must be a non-empty array");
    std::vector<Point> expanded = {Point{}};
    for (const auto& key : keys) {
      const io::Json& values = axes.at(key);
      std::vector<Point> next;
      next.reserve(expanded.size() * values.size());
      for (const Point& base : expanded) {
        for (std::size_t i = 0; i < values.size(); ++i) {
          Point pt = base;
          apply_param(&pt, key, values.at(i), where + ".axes." + key);
          next.push_back(pt);
        }
      }
      expanded = std::move(next);
    }
    out = std::move(expanded);
  }

  if (grid.contains("points")) {
    const io::Json& points = grid.at("points");
    if (!points.is_array()) fail(where, "points must be an array");
    for (std::size_t i = 0; i < points.size(); ++i) {
      const io::Json& entry = points.at(i);
      const std::string pw =
          where + ".points[" + std::to_string(i) + "]";
      if (!entry.is_object()) fail(pw, "must be an object");
      Point pt;
      for (const auto& key : entry.keys())
        apply_param(&pt, key, entry.at(key), pw);
      out.push_back(pt);
    }
  }

  if (out.empty()) fail(where, "grid produced no points");
  for (std::size_t i = 0; i < out.size(); ++i)
    for (std::size_t j = i + 1; j < out.size(); ++j)
      if (out[i] == out[j])
        fail(where, "duplicate grid point: " + out[j].label());
  return out;
}

Section parse_section(const io::Json& doc, const Manifest& manifest,
                      std::size_t index) {
  const std::string where = "sections[" + std::to_string(index) + "]";
  if (!doc.is_object()) fail(where, "must be an object");
  std::initializer_list<const char*> keys = {
      "id",          "title",        "notes",          "kind",
      "stages",      "checkpoints",  "grid",           "replicates",
      "measure_cycles", "warmup_cycles", "seed",       "ci_level",
      "mean_rel_tol", "var_rel_tol", "abs_tol",        "depths",
      "flow",        "credit_latency"};
  check_keys(doc, keys, where);

  Section section;
  if (!doc.contains("id")) fail(where, "missing \"id\"");
  section.id = doc.at("id").as_string();
  if (section.id.empty() ||
      section.id.find_first_not_of(
          "abcdefghijklmnopqrstuvwxyz0123456789-") != std::string::npos)
    fail(where, "id must be non-empty [a-z0-9-]: \"" + section.id + "\"");
  if (!doc.contains("title")) fail(where, "missing \"title\"");
  section.title = doc.at("title").as_string();
  if (doc.contains("notes")) section.notes = doc.at("notes").as_string();
  if (!doc.contains("kind")) fail(where, "missing \"kind\"");
  section.kind = parse_kind(doc.at("kind").as_string(), where);

  section.budget = manifest.defaults;
  section.tol = manifest.default_tol;
  apply_settings(doc, where, &section.budget, &section.tol);

  if (doc.contains("stages"))
    section.stages = as_u32(doc.at("stages"), where, "stages", 1);
  // Checkpoint values are range-checked by sim::check on the points.
  if (doc.contains("checkpoints")) {
    const io::Json& cps = doc.at("checkpoints");
    if (!cps.is_array() || cps.size() == 0)
      fail(where, "checkpoints must be a non-empty array");
    for (std::size_t i = 0; i < cps.size(); ++i)
      section.checkpoints.push_back(
          as_u32(cps.at(i), where, "checkpoints", 0));
  }

  if (doc.contains("depths")) {
    const io::Json& ds = doc.at("depths");
    if (!ds.is_array() || ds.size() == 0)
      fail(where, "depths must be a non-empty array");
    for (std::size_t i = 0; i < ds.size(); ++i) {
      const unsigned d = as_u32(ds.at(i), where, "depths", 1);
      if (!section.depths.empty() && d <= section.depths.back())
        fail(where, "depths must be strictly increasing");
      section.depths.push_back(d);
    }
  }
  if (doc.contains("flow")) {
    try {
      section.flow = sim::parse_flow_control(doc.at("flow").as_string());
    } catch (const std::invalid_argument&) {
      fail(where, "flow must be vct, saf, or credit");
    }
  }
  if (doc.contains("credit_latency")) {
    section.credit_latency =
        as_u32(doc.at("credit_latency"), where, "credit_latency", 0);
    if (section.flow != sim::FlowControl::kCredit)
      fail(where, "credit_latency is only meaningful with flow=credit");
  }
  if (section.kind == SectionKind::kFiniteBuffer) {
    if (section.depths.empty())
      fail(where, "finite_buffer sections require \"depths\"");
  } else if (!section.depths.empty() || doc.contains("flow") ||
             doc.contains("credit_latency")) {
    fail(where,
         "depths/flow/credit_latency only apply to finite_buffer sections");
  }
  if (section.kind == SectionKind::kTotalDelay) {
    if (section.checkpoints.empty()) section.checkpoints = {section.stages};
  } else if (!section.checkpoints.empty()) {
    fail(where, "checkpoints only apply to total_delay sections");
  }

  if (!doc.contains("grid")) fail(where, "missing \"grid\"");
  section.points = parse_grid(doc.at("grid"), where + ".grid");

  const bool network = section.kind != SectionKind::kFirstStage;
  for (const Point& pt : section.points) {
    if (network && pt.s != 0 && pt.s != pt.k)
      fail(where, "network sections require s == k (point " + pt.label() +
                      ")");
    if (pt.q > 0.0 && pt.s != 0 && pt.s != pt.k)
      fail(where, "favorite-output traffic requires s == k (point " +
                      pt.label() + ")");
    if (pt.hotspot > 0.0 && section.kind != SectionKind::kFiniteBuffer)
      fail(where, "hotspot traffic is only supported in finite_buffer "
                  "sections (point " + pt.label() + ")");
    if (!network && pt.hotspot_target != 0)
      fail(where, "hotspot_target only applies to network sections (point " +
                      pt.label() + ")");
    // Every config the runner will simulate: the infinite-queue run, then
    // each finite depth.
    for (std::size_t d = 0; network && d <= section.depths.size(); ++d) {
      try {
        sim::check(
            network_config(section, pt, d == 0 ? 0 : section.depths[d - 1]));
      } catch (const sim::ConfigError& e) {
        fail(where, std::string(e.what()) + " (point " + pt.label() + ")");
      }
    }
  }
  return section;
}

}  // namespace

sim::NetworkConfig network_config(const Section& section, const Point& pt,
                                  unsigned depth) {
  sim::NetworkConfig cfg;
  cfg.k = pt.k;
  cfg.stages = section.stages;
  cfg.p = pt.p;
  cfg.bulk = pt.bulk;
  cfg.q = pt.q;
  cfg.hotspot = pt.hotspot;
  cfg.hotspot_target = pt.hotspot_target;
  cfg.service = sim::ServiceSpec::parse(pt.service);
  cfg.warmup_cycles = section.budget.effective_warmup();
  cfg.measure_cycles = section.budget.measure_cycles;
  if (section.kind == SectionKind::kTotalDelay)
    cfg.total_checkpoints = section.checkpoints;
  if (depth > 0) {
    cfg.buffer_capacity = depth;
    cfg.flow = section.flow;
    cfg.credit_latency = section.credit_latency;
  }
  return cfg;
}

Manifest parse_manifest(const io::Json& doc) {
  if (!doc.is_object()) fail("document", "must be a JSON object");
  check_keys(doc,
             {"schema", "name", "title", "output_dir", "index_path",
              "defaults", "sections"},
             "document");
  if (!doc.contains("schema") || doc.at("schema").as_string() != "ksw.sweep/v1")
    fail("document", "missing or unsupported \"schema\" (want ksw.sweep/v1)");

  Manifest manifest;
  if (!doc.contains("name")) fail("document", "missing \"name\"");
  manifest.name = doc.at("name").as_string();
  if (doc.contains("title")) manifest.title = doc.at("title").as_string();
  if (manifest.title.empty()) manifest.title = manifest.name;
  if (doc.contains("output_dir"))
    manifest.output_dir = doc.at("output_dir").as_string();
  if (doc.contains("index_path"))
    manifest.index_path = doc.at("index_path").as_string();

  if (doc.contains("defaults")) {
    const io::Json& defaults = doc.at("defaults");
    check_keys(defaults, kSettingKeys, "defaults");
    apply_settings(defaults, "defaults", &manifest.defaults,
                   &manifest.default_tol);
  }

  if (!doc.contains("sections")) fail("document", "missing \"sections\"");
  const io::Json& sections = doc.at("sections");
  if (!sections.is_array() || sections.size() == 0)
    fail("document", "sections must be a non-empty array");
  for (std::size_t i = 0; i < sections.size(); ++i)
    manifest.sections.push_back(parse_section(sections.at(i), manifest, i));

  for (std::size_t i = 0; i < manifest.sections.size(); ++i)
    for (std::size_t j = i + 1; j < manifest.sections.size(); ++j)
      if (manifest.sections[i].id == manifest.sections[j].id)
        fail("document", "duplicate section id \"" +
                             manifest.sections[j].id + "\"");
  return manifest;
}

Manifest load_manifest(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file)
    throw io_error("manifest: cannot open " + path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return parse_manifest(io::Json::parse(buffer.str()));
}

}  // namespace ksw::sweep
