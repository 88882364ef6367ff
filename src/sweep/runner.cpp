#include "sweep/runner.hpp"

#include <chrono>
#include <cmath>
#include <ostream>

#include "core/total_delay.hpp"
#include "fault/injection.hpp"
#include "sim/first_stage_sim.hpp"
#include "sim/replicate.hpp"
#include "stats/confidence.hpp"
#include "stats/goodness_of_fit.hpp"
#include "support/error.hpp"
#include "sweep/checkpoint.hpp"

namespace ksw::sweep {

void Cell::judge(const Tolerance& tol) {
  const double diff = std::abs(simulated - analytic);
  // A zero target (a distance whose perfect value is 0) has no scale to be
  // relative to, so the column carries the absolute difference instead.
  rel_error = analytic == 0.0 ? diff
                              : diff / std::max(std::abs(analytic), 1e-12);
  if (!gated) {
    pass = true;
    return;
  }
  const double rel = mean_like ? tol.mean_rel : tol.var_rel;
  pass = diff <= tol.abs + rel * std::abs(analytic) + ci_half;
}

bool PointResult::pass() const {
  for (const Cell& cell : cells)
    if (cell.gated && !cell.pass) return false;
  return true;
}

unsigned SectionResult::cells_gated() const {
  unsigned n = 0;
  for (const PointResult& pt : points)
    for (const Cell& cell : pt.cells) n += cell.gated ? 1 : 0;
  return n;
}

unsigned SectionResult::cells_failed() const {
  unsigned n = 0;
  for (const PointResult& pt : points)
    for (const Cell& cell : pt.cells) n += (cell.gated && !cell.pass) ? 1 : 0;
  return n;
}

unsigned SectionResult::points_degraded() const {
  unsigned n = 0;
  for (const PointResult& pt : points) n += pt.degraded ? 1 : 0;
  return n;
}

unsigned SweepResult::cells_gated() const {
  unsigned n = 0;
  for (const SectionResult& s : sections) n += s.cells_gated();
  return n;
}

unsigned SweepResult::cells_failed() const {
  unsigned n = 0;
  for (const SectionResult& s : sections) n += s.cells_failed();
  return n;
}

unsigned SweepResult::points_degraded() const {
  unsigned n = 0;
  for (const SectionResult& s : sections) n += s.points_degraded();
  return n;
}

namespace {

/// The analytic queue model a grid point describes (mirrors the kswsim
/// analyze command's construction).
core::QueueSpec analytic_queue(const Point& pt) {
  const unsigned s = pt.s != 0 ? pt.s : pt.k;
  const sim::ServiceSpec service = sim::ServiceSpec::parse(pt.service);
  std::shared_ptr<const core::ArrivalModel> arrivals;
  if (pt.q > 0.0)
    arrivals = core::make_nonuniform_arrivals(pt.k, pt.p, pt.q, pt.bulk);
  else
    arrivals = core::make_bulk_arrivals(pt.k, s, pt.p, pt.bulk);
  return core::QueueSpec{std::move(arrivals), service.to_model()};
}

/// CI half-width over per-replicate scalar statistics.
double half_width(const std::vector<double>& samples, double level) {
  return stats::replicate_interval(samples, level).half_width;
}

Cell make_cell(std::string metric, double analytic, double simulated,
               double ci_half, bool mean_like, bool gated,
               const Tolerance& tol) {
  Cell cell;
  cell.metric = std::move(metric);
  cell.analytic = analytic;
  cell.simulated = simulated;
  cell.ci_half = ci_half;
  cell.mean_like = mean_like;
  cell.gated = gated;
  cell.judge(tol);
  return cell;
}

/// Per-point context threaded into the replicate fans: cancellation plus
/// the optional journal for replicate-shard reuse and recording. With a
/// journal attached, each completed replicate is persisted as a shard and
/// each already-sharded replicate is replayed instead of simulated — safe
/// because replicate streams are pure functions of (seed, replicate index)
/// and the merges are exact integer sums, so a resumed point is
/// bit-identical however its replicates were obtained.
struct PointCtx {
  const par::CancelToken* cancel = nullptr;
  Journal* journal = nullptr;
  const std::string* section_id = nullptr;
  std::size_t point_index = 0;

  [[nodiscard]] Journal::ShardKey shard_key(const std::string& run,
                                            std::size_t replicate) const {
    return Journal::ShardKey{*section_id, point_index, run, replicate};
  }
};

PointResult run_first_stage_point(const Section& section, const Point& pt,
                                  par::ThreadPool& pool,
                                  const PointCtx& ctx) {
  sim::FirstStageConfig cfg;
  cfg.k = pt.k;
  cfg.s = pt.s != 0 ? pt.s : pt.k;
  cfg.p = pt.p;
  cfg.bulk = pt.bulk;
  cfg.q = pt.q;
  cfg.service = sim::ServiceSpec::parse(pt.service);
  cfg.warmup_cycles = section.budget.effective_warmup();
  cfg.measure_cycles = section.budget.measure_cycles;

  const unsigned replicates = section.budget.replicates;
  std::vector<sim::FirstStageResults> parts(replicates);
  par::parallel_for_chunks(
      pool, replicates,
      [&](std::size_t i) {
        fault::maybe_fail("replicate.throw");
        fault::maybe_delay("replicate.slow");
        if (ctx.journal != nullptr) {
          if (auto shard =
                  ctx.journal->find_first_stage_shard(ctx.shard_key("fs", i))) {
            parts[i] = std::move(*shard);
            return;
          }
        }
        sim::FirstStageConfig rep = cfg;
        rep.seed = sim::replicate_seed(section.budget.seed,
                                       static_cast<unsigned>(i));
        parts[i] = sim::run_first_stage(rep);
        if (ctx.journal != nullptr)
          ctx.journal->record_shard(ctx.shard_key("fs", i), parts[i]);
      },
      ctx.cancel);
  sim::FirstStageResults merged = parts[0];
  std::vector<double> means(replicates), vars(replicates);
  means[0] = parts[0].waiting.mean();
  vars[0] = parts[0].waiting.variance();
  for (unsigned i = 1; i < replicates; ++i) {
    merged.merge(parts[i]);
    means[i] = parts[i].waiting.mean();
    vars[i] = parts[i].waiting.variance();
  }

  const core::WaitingMoments exact =
      core::FirstStage(analytic_queue(pt)).moments();
  const double level = section.budget.ci_level;

  PointResult result;
  result.point = pt;
  result.label = pt.label();
  result.samples = merged.messages;
  result.cells.push_back(make_cell("E[w]", exact.mean, merged.waiting.mean(),
                                   half_width(means, level), true, true,
                                   section.tol));
  result.cells.push_back(make_cell("Var[w]", exact.variance,
                                   merged.waiting.variance(),
                                   half_width(vars, level), false, true,
                                   section.tol));
  return result;
}

/// Shared network-simulation scaffolding for the two network section kinds:
/// replicate, merge in index order, and hand per-replicate parts back for
/// CI extraction.
struct NetworkRun {
  sim::NetworkResults merged;
  std::vector<sim::NetworkResults> parts;
};

NetworkRun run_network_replicates(const sim::NetworkConfig& cfg,
                                  const RunBudget& budget,
                                  par::ThreadPool& pool, const PointCtx& ctx,
                                  const std::string& run_tag) {
  NetworkRun run;
  run.parts.resize(budget.replicates);
  par::parallel_for_chunks(
      pool, budget.replicates,
      [&](std::size_t i) {
        fault::maybe_fail("replicate.throw");
        fault::maybe_delay("replicate.slow");
        if (ctx.journal != nullptr) {
          if (auto shard =
                  ctx.journal->find_network_shard(ctx.shard_key(run_tag, i))) {
            run.parts[i] = std::move(*shard);
            return;
          }
        }
        sim::NetworkConfig rep = cfg;
        rep.seed = sim::replicate_seed(budget.seed,
                                       static_cast<unsigned>(i));
        run.parts[i] = sim::run_network(rep);
        if (ctx.journal != nullptr)
          ctx.journal->record_shard(ctx.shard_key(run_tag, i), run.parts[i]);
      },
      ctx.cancel);
  run.merged = run.parts[0];
  for (std::size_t i = 1; i < run.parts.size(); ++i)
    run.merged.merge(run.parts[i]);
  return run;
}

PointResult run_stage_convergence_point(const Section& section,
                                        const Point& pt,
                                        par::ThreadPool& pool,
                                        const PointCtx& ctx) {
  const sim::NetworkConfig cfg = network_config(section, pt);
  const NetworkRun run =
      run_network_replicates(cfg, section.budget, pool, ctx, "net");
  const core::LaterStages ls(sim::traffic_spec(cfg));
  const double level = section.budget.ci_level;

  PointResult result;
  result.point = pt;
  result.label = pt.label();
  result.samples = run.merged.packets_delivered;
  std::vector<double> samples(run.parts.size());
  for (unsigned stage = 1; stage <= section.stages; ++stage) {
    for (std::size_t i = 0; i < run.parts.size(); ++i)
      samples[i] = run.parts[i].stage_wait[stage - 1].mean();
    result.cells.push_back(make_cell(
        "stage " + std::to_string(stage) + " E[w]", ls.mean_at_stage(stage),
        run.merged.stage_wait[stage - 1].mean(), half_width(samples, level),
        true, true, section.tol));
  }
  // Informational: the eq. 11 spatial limit next to the deepest simulated
  // stage (the sim value keeps converging toward it as stages grow).
  result.cells.push_back(make_cell(
      "limit E[w] (eq. 11)", ls.mean_limit(),
      run.merged.stage_wait[section.stages - 1].mean(), 0.0, true, false,
      section.tol));
  return result;
}

PointResult run_total_delay_point(const Section& section, const Point& pt,
                                  par::ThreadPool& pool,
                                  const PointCtx& ctx) {
  const sim::NetworkConfig cfg = network_config(section, pt);
  const NetworkRun run =
      run_network_replicates(cfg, section.budget, pool, ctx, "net");
  const core::LaterStages ls(sim::traffic_spec(cfg));
  const double level = section.budget.ci_level;

  PointResult result;
  result.point = pt;
  result.label = pt.label();
  result.samples = run.merged.packets_delivered;
  std::vector<double> samples(run.parts.size());
  for (std::size_t c = 0; c < section.checkpoints.size(); ++c) {
    const unsigned n = section.checkpoints[c];
    const core::TotalDelay td(ls, n);
    const std::string prefix = "n=" + std::to_string(n) + " ";

    for (std::size_t i = 0; i < run.parts.size(); ++i)
      samples[i] = run.parts[i].total_wait[c].mean();
    result.cells.push_back(make_cell(
        prefix + "E[total]", td.mean_total(), run.merged.total_wait[c].mean(),
        half_width(samples, level), true, true, section.tol));

    for (std::size_t i = 0; i < run.parts.size(); ++i)
      samples[i] = run.parts[i].total_wait[c].variance();
    result.cells.push_back(make_cell(prefix + "Var[total]",
                                     td.variance_total(),
                                     run.merged.total_wait[c].variance(),
                                     half_width(samples, level), false, true,
                                     section.tol));

    // Var[total] split into its two modelled parts: the per-stage
    // variances (eqs. 13/16) and twice the inter-stage covariances (the
    // Section V constants a, b), the latter simulated as the remainder.
    const auto stage_variance_sum = [n](const sim::NetworkResults& r) {
      double sum = 0.0;
      for (unsigned i = 0; i < n; ++i) sum += r.stage_wait[i].variance();
      return sum;
    };
    const double var_independent = td.variance_total(false);
    const double sim_stage_sum = stage_variance_sum(run.merged);
    for (std::size_t i = 0; i < run.parts.size(); ++i)
      samples[i] = stage_variance_sum(run.parts[i]);
    result.cells.push_back(make_cell(
        prefix + "ΣVar[stage]", var_independent, sim_stage_sum,
        half_width(samples, level), false, true, section.tol));
    for (std::size_t i = 0; i < run.parts.size(); ++i)
      samples[i] = run.parts[i].total_wait[c].variance() - samples[i];
    result.cells.push_back(make_cell(
        prefix + "2ΣCov[stages]", td.variance_total() - var_independent,
        run.merged.total_wait[c].variance() - sim_stage_sum,
        half_width(samples, level), false, true, section.tol));

    // Gamma-fit tail check (informational: the empirical quantile is
    // integer-valued, so a pass/fail gate would flap on the rounding).
    const stats::GammaDistribution gamma = td.gamma_approximation();
    const stats::IntHistogram& hist = run.merged.total_wait[c];
    result.cells.push_back(make_cell(
        prefix + "p95", gamma.quantile(0.95),
        static_cast<double>(hist.quantile(0.95)), 0.0, true, false,
        section.tol));

    // Shape of the whole distribution (Figs. 3-8): total-variation
    // distance to the gamma over ~18 equal bins covering 99.5% of the
    // mass. Informational: the fit's quality varies too much across the
    // paper's grid for one bound to mean anything.
    const std::int64_t w_hi = std::max<std::int64_t>(hist.quantile(0.995), 1);
    const std::int64_t width = std::max<std::int64_t>(1, (w_hi + 17) / 18);
    result.cells.push_back(make_cell(
        prefix + "binned TV(gamma)", 0.0,
        stats::binned_total_variation(hist, gamma, width), 0.0, true, false,
        section.tol));
  }
  return result;
}

/// Finite-buffer section: one infinite-queue oracle run plus one finite
/// run per buffer depth. Two cells per depth —
///   * "depth=D accept" — fraction of offered packets admitted at the
///     first stage (analytic target 1.0: deep enough buffers drop
///     nothing);
///   * "depth=D E[w last]" — last-stage waiting vs the infinite-queue
///     oracle *simulation* (not a formula, so hotspot points gate too);
/// both gated only at the deepest depth, so shallow rows document the
/// divergence while the gate proves convergence. When the traffic has an
/// analytic model (hotspot == 0) an extra gated cell pins the oracle
/// itself against eq. 12.
PointResult run_finite_buffer_point(const Section& section, const Point& pt,
                                    par::ThreadPool& pool,
                                    const PointCtx& ctx) {
  const sim::NetworkConfig cfg = network_config(section, pt);
  const NetworkRun oracle =
      run_network_replicates(cfg, section.budget, pool, ctx, "oracle");
  const double level = section.budget.ci_level;
  const unsigned last = section.stages - 1;

  PointResult result;
  result.point = pt;
  result.label = pt.label();
  result.samples = oracle.merged.packets_delivered;
  std::vector<double> samples(oracle.parts.size());

  if (pt.hotspot == 0.0) {
    const core::LaterStages ls(sim::traffic_spec(cfg));
    for (std::size_t i = 0; i < oracle.parts.size(); ++i)
      samples[i] = oracle.parts[i].stage_wait[last].mean();
    result.cells.push_back(make_cell(
        "infinite E[w last] (eq. 12)", ls.mean_at_stage(section.stages),
        oracle.merged.stage_wait[last].mean(), half_width(samples, level),
        true, true, section.tol));
  }

  for (std::size_t d = 0; d < section.depths.size(); ++d) {
    const unsigned depth = section.depths[d];
    const NetworkRun run =
        run_network_replicates(network_config(section, pt, depth),
                               section.budget, pool, ctx,
                               "depth=" + std::to_string(depth));
    const bool gate = d + 1 == section.depths.size();
    const std::string prefix = "depth=" + std::to_string(depth) + " ";

    const auto accept = [](const sim::NetworkResults& r) {
      const double offered =
          static_cast<double>(r.packets_injected + r.packets_dropped);
      return offered > 0.0
                 ? static_cast<double>(r.packets_injected) / offered
                 : 1.0;
    };
    for (std::size_t i = 0; i < run.parts.size(); ++i)
      samples[i] = accept(run.parts[i]);
    result.cells.push_back(make_cell(prefix + "accept", 1.0,
                                     accept(run.merged),
                                     half_width(samples, level), true, gate,
                                     section.tol));

    for (std::size_t i = 0; i < run.parts.size(); ++i)
      samples[i] = run.parts[i].stage_wait[last].mean();
    result.cells.push_back(make_cell(
        prefix + "E[w last]", oracle.merged.stage_wait[last].mean(),
        run.merged.stage_wait[last].mean(), half_width(samples, level), true,
        gate, section.tol));
  }
  return result;
}

PointResult run_point(const Section& section, const Point& pt,
                      par::ThreadPool& pool, const PointCtx& ctx) {
  switch (section.kind) {
    case SectionKind::kStageConvergence:
      return run_stage_convergence_point(section, pt, pool, ctx);
    case SectionKind::kTotalDelay:
      return run_total_delay_point(section, pt, pool, ctx);
    case SectionKind::kFiniteBuffer:
      return run_finite_buffer_point(section, pt, pool, ctx);
    case SectionKind::kFirstStage:
      break;
  }
  return run_first_stage_point(section, pt, pool, ctx);
}

/// Stable trace id for a grid point (or, with index npos, a section):
/// a pure function of (manifest fingerprint, section id, point index),
/// so re-runs and resumed runs key the same work to the same trace.
std::uint64_t point_trace_id(const RunOptions& options,
                             const std::string& section_id,
                             std::size_t index) {
  std::string key = options.trace_key + "/" + section_id;
  if (index != static_cast<std::size_t>(-1))
    key += "#" + std::to_string(index);
  const std::uint64_t id = obs::fnv1a64(key);
  return id != 0 ? id : 1;
}

SectionResult run_section_with(const Section& section, par::ThreadPool& pool,
                               const RunOptions& options) {
  SectionResult result;
  result.section = section;
  obs::Span section_span;
  if (options.tracer != nullptr) {
    section_span = obs::Span(
        options.tracer, "reproduce.section",
        point_trace_id(options, section.id, static_cast<std::size_t>(-1)));
    section_span.label("section", section.id);
  }
  for (std::size_t idx = 0; idx < section.points.size(); ++idx) {
    const Point& pt = section.points[idx];
    if (options.cancel != nullptr && options.cancel->requested())
      throw interrupted_error("sweep cancelled before point '" + pt.label() +
                              "' of section '" + section.id + "'");
    obs::Span point_span;
    if (options.tracer != nullptr) {
      point_span = obs::Span(options.tracer, "reproduce.point",
                             point_trace_id(options, section.id, idx));
      point_span.label("section", section.id);
      point_span.label("point", pt.label());
    }
    if (options.journal != nullptr) {
      if (const PointResult* done = options.journal->find(section.id, idx)) {
        point_span.label("source", "journal");
        result.points.push_back(*done);
        continue;
      }
    }

    const auto started = std::chrono::steady_clock::now();

    // Deterministic fault site: stretch this point's wall time so the soft
    // deadline and kill/resume paths can be exercised on a fast machine.
    fault::maybe_delay("point.slow");

    PointCtx ctx;
    ctx.cancel = options.cancel;
    ctx.journal = options.journal;
    ctx.section_id = &section.id;
    ctx.point_index = idx;

    PointResult point_result;
    try {
      point_result = run_point(section, pt, pool, ctx);
    } catch (const Error& e) {
      // Interruption is the caller's signal and IO failure (shard writes
      // run inside the point now) is environmental — neither is a model
      // failure, so neither degrades the point.
      if (e.kind() == ErrorKind::kInterrupted || e.kind() == ErrorKind::kIo)
        throw;
      point_result.point = pt;
      point_result.label = pt.label();
      point_result.degraded = true;
      point_result.degrade_reason = e.what();
    } catch (const std::exception& e) {
      point_result.point = pt;
      point_result.label = pt.label();
      point_result.degraded = true;
      point_result.degrade_reason = e.what();
    }

    if (!point_result.degraded && options.point_timeout_ms > 0) {
      const auto elapsed =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now() - started)
              .count();
      if (elapsed > options.point_timeout_ms) {
        // The numbers are kept (the point did finish, and aborting
        // mid-flight would make results machine-speed dependent); the
        // point is only flagged and left out of the journal so a resumed
        // run retries it.
        point_result.degraded = true;
        point_result.degrade_reason =
            "exceeded soft point deadline (" + std::to_string(elapsed) +
            " ms > " + std::to_string(options.point_timeout_ms) + " ms)";
      }
    }

    point_span.label(
        "source", point_result.degraded ? "degraded" : "computed");
    if (options.journal != nullptr && !point_result.degraded)
      options.journal->record(section.id, idx, point_result);
    result.points.push_back(std::move(point_result));
  }
  return result;
}

}  // namespace

SectionResult run_section(const Section& section, par::ThreadPool& pool) {
  return run_section_with(section, pool, RunOptions{});
}

SweepResult run_sweep(const Manifest& manifest, par::ThreadPool& pool,
                      const RunOptions& options) {
  SweepResult result;
  for (std::size_t i = 0; i < manifest.sections.size(); ++i) {
    const Section& section = manifest.sections[i];
    result.sections.push_back(run_section_with(section, pool, options));
    if (options.progress != nullptr) {
      const SectionResult& done = result.sections.back();
      *options.progress << "[" << (i + 1) << "/" << manifest.sections.size()
                        << "] " << section.id << ": " << done.points.size()
                        << " points, " << done.cells_gated() << " gates, "
                        << done.cells_failed() << " failed";
      if (done.points_degraded() > 0)
        *options.progress << ", " << done.points_degraded() << " degraded";
      *options.progress << "\n";
    }
  }
  return result;
}

SweepResult run_sweep(const Manifest& manifest, par::ThreadPool& pool,
                      std::ostream* progress) {
  RunOptions options;
  options.progress = progress;
  return run_sweep(manifest, pool, options);
}

}  // namespace ksw::sweep
