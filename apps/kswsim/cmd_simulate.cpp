// kswsim simulate — cycle-accurate banyan network simulation.
//
//   kswsim simulate --k=2 --stages=8 --p=0.5 [--bulk=B] [--q=Q]
//                   [--hotspot=H] [--hotspot-target=PORT]
//                   [--service=det:1] [--cycles=N]
//                   [--warmup=N] [--seed=N] [--replicates=R] [--threads=T]
//                   [--buffer-capacity=C] [--flow=vct|saf|credit]
//                   [--credit-latency=N] [--correlations]
//                   [--checkpoints=3,6,9,12] [--format=table|json|csv]
//                   [--metrics-out=FILE] [--obs-stride=N] [--obs-trace=N]
//                   [--obs-wall]
//
// --metrics-out writes a structured run report (JSON, or flat CSV when
// FILE ends in .csv; "-" streams to stdout): per-stage occupancy
// histograms, drop/block counters, phase timers, and a warmup-convergence
// trace against the paper's eq. 12 prediction. The report is bit-identical
// for a fixed seed regardless of --threads; --obs-wall adds wall-clock
// phase durations and thread-pool telemetry, which are not.
#include <cctype>
#include <cstdlib>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/later_stages.hpp"
#include "fault/plan.hpp"
#include "io/atomic.hpp"
#include "io/csv.hpp"
#include "io/json.hpp"
#include "kswsim/cli.hpp"
#include "obs/report.hpp"
#include "sim/replicate.hpp"
#include "simd/simd.hpp"
#include "support/error.hpp"
#include "tables/table.hpp"

namespace ksw::cli {

namespace {

std::vector<unsigned> parse_checkpoints(const std::string& text) {
  std::vector<unsigned> out;
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(item.c_str(), &end, 10);
    if (!std::isdigit(static_cast<unsigned char>(item[0])) || *end != '\0' ||
        v > 0xffffffffull)
      throw usage_error("--checkpoints: bad value " + item);
    out.push_back(static_cast<unsigned>(v));
  }
  return out;
}

/// Eq. 12 per-stage mean-wait predictions (and the eq. 11 limit) for the
/// convergence trace. Empty when the analytic model rejects the operating
/// point (e.g. rho >= 1, where no steady state exists).
std::vector<double> eq12_predictions(const sim::NetworkConfig& cfg,
                                     std::optional<double>* limit) {
  try {
    const core::LaterStages ls(sim::traffic_spec(cfg));
    std::vector<double> pred;
    pred.reserve(cfg.stages);
    for (unsigned i = 1; i <= cfg.stages; ++i)
      pred.push_back(ls.mean_at_stage(i));
    *limit = ls.mean_limit();
    return pred;
  } catch (const std::exception&) {
    limit->reset();
    return {};
  }
}

/// Assemble the full structured run report.
io::Json build_run_report(const sim::NetworkConfig& cfg,
                          const sim::NetworkResults& r, unsigned replicates,
                          const obs::Registry& pool_metrics,
                          const obs::ReportOptions& opts) {
  io::Json doc = io::Json::object();
  doc.set("schema", "ksw.obs.report/v1");
  doc.set("command", "simulate");

  io::Json config = io::Json::object();
  config.set("k", static_cast<std::int64_t>(cfg.k));
  config.set("stages", static_cast<std::int64_t>(cfg.stages));
  config.set("p", cfg.p);
  config.set("bulk", static_cast<std::int64_t>(cfg.bulk));
  config.set("q", cfg.q);
  config.set("hotspot", cfg.hotspot);
  config.set("hotspot_target", static_cast<std::int64_t>(cfg.hotspot_target));
  config.set("service_mean", cfg.service.mean());
  config.set("rho", cfg.rho());
  config.set("buffer_capacity", static_cast<std::int64_t>(cfg.buffer_capacity));
  config.set("flow", sim::to_string(cfg.flow));
  config.set("credit_latency", static_cast<std::int64_t>(cfg.credit_latency));
  config.set("warmup_cycles", static_cast<std::int64_t>(cfg.warmup_cycles));
  config.set("measure_cycles", static_cast<std::int64_t>(cfg.measure_cycles));
  config.set("seed", static_cast<std::uint64_t>(cfg.seed));
  // Philox is the only stream family; the field keeps report/v1 bytes.
  config.set("rng", "philox");
  config.set("simd", simd::to_string(simd::active_level()));
  config.set("replicates", static_cast<std::int64_t>(replicates));
  config.set("obs_stride", static_cast<std::int64_t>(cfg.obs.stride));
  config.set("trace_points", static_cast<std::int64_t>(cfg.obs.trace_points));
  doc.set("config", std::move(config));

  doc.set("metrics", obs::registry_to_json(r.metrics, opts));

  std::optional<double> limit;
  const std::vector<double> predicted = eq12_predictions(cfg, &limit);
  doc.set("convergence", obs::trace_to_json(r.convergence, predicted, limit));

  // Thread-pool telemetry is runtime profile, not simulation state: its
  // shape depends on --threads, so it rides with the wall-clock fields.
  if (opts.include_wall && !pool_metrics.empty()) {
    io::Json pool = obs::registry_to_json(pool_metrics, opts);
    const auto& timers = pool_metrics.timers();
    const auto run_it = timers.find("pool.task_run");
    const auto elapsed_it = timers.find("pool.elapsed");
    const auto& gauges = pool_metrics.gauges();
    const auto workers_it = gauges.find("pool.workers");
    if (run_it != timers.end() && elapsed_it != timers.end() &&
        workers_it != gauges.end() && elapsed_it->second->seconds() > 0.0 &&
        workers_it->second->value() > 0.0)
      pool.set("worker_utilization",
               run_it->second->seconds() / (elapsed_it->second->seconds() *
                                            workers_it->second->value()));
    doc.set("pool", std::move(pool));
  }
  return doc;
}

/// Write the report to `path` ("-" = the command's stdout stream; a .csv
/// suffix selects the flat CSV registry dump instead of the JSON report).
/// File output goes through io::atomic_write_file, so a crash mid-write
/// never leaves a truncated report.
void write_metrics_report(const std::string& path, const io::Json& report,
                          const sim::NetworkResults& r,
                          const obs::ReportOptions& opts, std::ostream& out) {
  const bool csv =
      path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
  std::ostringstream body;
  if (csv) {
    obs::registry_to_csv(r.metrics, opts).write(body);
  } else {
    report.write(body, 2);
    body << '\n';
  }
  if (path == "-")
    out << body.str();
  else
    io::atomic_write_file(path, body.str());
}

}  // namespace

int cmd_simulate(const ArgMap& args, std::ostream& out, std::ostream& err) {
  const Format format = parse_format(args);

  sim::NetworkConfig cfg;
  cfg.k = args.get_unsigned("k", 2);
  cfg.stages = args.get_unsigned("stages", 8);
  cfg.p = args.get_double("p", 0.5);
  cfg.bulk = args.get_unsigned("bulk", 1);
  cfg.q = args.get_double("q", 0.0);
  cfg.hotspot = args.get_double("hotspot", 0.0);
  cfg.hotspot_target = args.get_unsigned("hotspot-target", 0);
  const std::string topology = args.get("topology", "butterfly");
  if (topology == "omega")
    cfg.topology = sim::TopologyKind::kOmega;
  else if (topology != "butterfly")
    throw usage_error("--topology: expected butterfly|omega");
  cfg.service = parse_service(args.get("service", "det:1"));
  cfg.measure_cycles = args.get_int("cycles", 50'000);
  cfg.warmup_cycles = args.get_int("warmup", cfg.measure_cycles / 10);
  cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  cfg.buffer_capacity = args.get_unsigned("buffer-capacity", 0);
  const std::string flow = args.get("flow", "vct");
  try {
    cfg.flow = sim::parse_flow_control(flow);
  } catch (const std::invalid_argument&) {
    throw usage_error("--flow: expected vct|saf|credit, got \"" + flow +
                      "\"");
  }
  cfg.credit_latency = args.get_unsigned("credit-latency", 2);
  cfg.track_correlations = args.get_flag("correlations");
  cfg.total_checkpoints = parse_checkpoints(args.get("checkpoints", ""));
  const unsigned replicates = args.get_unsigned("replicates", 1);
  const unsigned threads = args.get_unsigned("threads", 0);

  const std::string metrics_out = args.get("metrics-out", "");
  cfg.obs.enabled = !metrics_out.empty();
  cfg.obs.stride = args.get_unsigned("obs-stride", 64);
  cfg.obs.trace_points = args.get_unsigned("obs-trace", 24);
  obs::ReportOptions report_opts;
  report_opts.include_wall = args.get_flag("obs-wall");
  const std::string fault_plan = args.get("fault-plan", "");

  const auto unknown = args.unused();
  if (!unknown.empty()) {
    err << "simulate: unknown option --" << unknown.front() << "\n";
    return 2;
  }
  check_network_config(cfg, {{"warmup_cycles", "warmup"},
                             {"measure_cycles", "cycles"},
                             {"track_correlations", "correlations"},
                             {"total_checkpoints", "checkpoints"}});
  if (!fault_plan.empty()) fault::load_plan(fault_plan);

  obs::Registry pool_metrics;
  sim::NetworkResults r;
  if (replicates > 1) {
    par::ThreadPool pool(threads);
    if (cfg.obs.enabled) pool.attach_metrics(&pool_metrics);
    obs::ScopedTimer elapsed(
        cfg.obs.enabled ? &pool_metrics.timer("pool.elapsed") : nullptr);
    r = sim::replicate_network(cfg, replicates, pool);
  } else {
    r = sim::run_network(cfg);
  }

  if (!metrics_out.empty()) {
    const io::Json report =
        build_run_report(cfg, r, replicates, pool_metrics, report_opts);
    write_metrics_report(metrics_out, report, r, report_opts, out);
  }

  switch (format) {
    case Format::kTable: {
      tables::Table table("Simulated per-stage waiting times",
                          {"stage", "E[wait]", "Var[wait]", "E[queue]"});
      for (unsigned s = 0; s < cfg.stages; ++s)
        table.begin_row(std::to_string(s + 1))
            .add_number(r.stage_wait[s].mean(), 5)
            .add_number(r.stage_wait[s].variance(), 5)
            .add_number(r.stage_depth[s].mean(), 5);
      table.print(out);
      if (!cfg.total_checkpoints.empty()) {
        tables::Table totals("\nTotal waiting over first c stages",
                             {"stages", "mean", "variance", "p95"});
        for (std::size_t i = 0; i < cfg.total_checkpoints.size(); ++i)
          totals.begin_row(std::to_string(cfg.total_checkpoints[i]))
              .add_number(r.total_wait[i].mean(), 5)
              .add_number(r.total_wait[i].variance(), 5)
              .add_number(static_cast<double>(r.total_wait[i].quantile(0.95)),
                          1);
        totals.print(out);
      }
      if (cfg.track_correlations && r.stage_covariance) {
        // The paper's Table VI layout: row i, column j > i holds
        // corr(w_i, w_j).
        std::vector<std::string> headers = {"stage"};
        for (unsigned j = 2; j <= cfg.stages; ++j)
          headers.push_back(std::to_string(j));
        tables::Table corr("\nStage-to-stage correlations", headers);
        for (unsigned i = 0; i + 1 < cfg.stages; ++i) {
          corr.begin_row(std::to_string(i + 1));
          for (unsigned j = 1; j < cfg.stages; ++j) {
            if (j <= i)
              corr.add_blank();
            else
              corr.add_number(r.stage_covariance->correlation(i, j), 5);
          }
        }
        corr.print(out);
      }
      out << "packets: injected=" << r.packets_injected
          << " delivered=" << r.packets_delivered
          << " dropped=" << r.packets_dropped << "\n";
      break;
    }
    case Format::kJson: {
      io::Json doc = io::Json::object();
      io::Json per_stage = io::Json::array();
      for (unsigned s = 0; s < cfg.stages; ++s) {
        io::Json row = io::Json::object();
        row.set("stage", static_cast<std::int64_t>(s + 1));
        row.set("mean", r.stage_wait[s].mean());
        row.set("variance", r.stage_wait[s].variance());
        row.set("mean_queue", r.stage_depth[s].mean());
        per_stage.push_back(std::move(row));
      }
      doc.set("per_stage", std::move(per_stage));
      if (!cfg.total_checkpoints.empty()) {
        io::Json totals = io::Json::array();
        for (std::size_t i = 0; i < cfg.total_checkpoints.size(); ++i) {
          io::Json row = io::Json::object();
          row.set("stages",
                  static_cast<std::int64_t>(cfg.total_checkpoints[i]));
          row.set("mean", r.total_wait[i].mean());
          row.set("variance", r.total_wait[i].variance());
          totals.push_back(std::move(row));
        }
        doc.set("totals", std::move(totals));
      }
      doc.set("packets_injected",
              static_cast<std::uint64_t>(r.packets_injected));
      doc.set("packets_delivered",
              static_cast<std::uint64_t>(r.packets_delivered));
      doc.set("packets_dropped",
              static_cast<std::uint64_t>(r.packets_dropped));
      doc.write(out, 2);
      out << '\n';
      break;
    }
    case Format::kCsv: {
      io::CsvWriter csv({"stage", "mean", "variance", "mean_queue"});
      for (unsigned s = 0; s < cfg.stages; ++s)
        csv.begin_row()
            .add(static_cast<std::int64_t>(s + 1))
            .add(r.stage_wait[s].mean())
            .add(r.stage_wait[s].variance())
            .add(r.stage_depth[s].mean());
      csv.write(out);
      break;
    }
  }
  return 0;
}

}  // namespace ksw::cli
