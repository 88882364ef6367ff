#include "serve/kernels.hpp"

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/closed_forms.hpp"
#include "core/first_stage.hpp"
#include "core/total_delay.hpp"
#include "sim/network.hpp"
#include "sim/replicate.hpp"
#include "sim/service_spec.hpp"
#include "support/error.hpp"
#include "tables/table.hpp"

namespace ksw::serve {

namespace {

core::QueueSpec first_stage_queue(const Query& q) {
  const sim::ServiceSpec service = sim::ServiceSpec::parse(q.service);
  std::shared_ptr<const core::ArrivalModel> arrivals;
  if (q.q > 0.0) {
    // k == s was enforced at parse time.
    arrivals = core::make_nonuniform_arrivals(q.k, q.p, q.q, q.bulk);
  } else {
    arrivals = core::make_bulk_arrivals(q.k, q.s, q.p, q.bulk);
  }
  return core::QueueSpec{std::move(arrivals), service.to_model()};
}

/// The moments go through io::Json; the N distribution terms are appended
/// straight from the term vector, in the same key order, since one
/// io::Json node per term cost more than formatting it.
std::string eval_first_stage(const Query& q) {
  const core::FirstStage first(first_stage_queue(q));
  const auto m = first.moments();
  io::Json result = io::Json::object();
  result.set("lambda", first.lambda());
  result.set("mean_service", first.mean_service());
  result.set("rho", first.rho());
  result.set("mean_wait", m.mean);
  result.set("var_wait", m.variance);
  result.set("factorial2", m.factorial2);
  result.set("factorial3", m.factorial3);
  result.set("skewness", m.skewness());
  result.set("mean_delay", first.mean_delay());
  result.set("var_delay", first.variance_delay());
  std::string out = result.to_string();
  if (q.distribution == 0) return out;
  const std::vector<double> dist = first.distribution(q.distribution);
  // A number renders in at most 24 chars ("-1.23456789012e-308,").
  out.reserve(out.size() + 24 * (dist.size() + 1) + 64);
  out.pop_back();  // reopen the object
  out += ",\"distribution\":[";
  for (std::size_t j = 0; j < dist.size(); ++j) {
    if (j > 0) out += ',';
    io::append_number(out, dist[j]);
  }
  out += "],\"distribution_tail\":";
  io::append_number(out, core::distribution_tail(dist));
  out += '}';
  return out;
}

io::Json eval_later_stages(const Query& q) {
  const core::LaterStages ls(sim::traffic_spec(sim_config(q, 0)));
  io::Json result = io::Json::object();
  result.set("rho", ls.spec().rho());
  result.set("w1", ls.mean_first_stage());
  result.set("v1", ls.variance_first_stage());
  result.set("mean_limit", ls.mean_limit());
  result.set("variance_limit", ls.variance_limit());
  if (q.stage > 0) {
    result.set("stage", static_cast<std::int64_t>(q.stage));
    result.set("mean_stage", ls.mean_at_stage(q.stage));
    result.set("variance_stage", ls.variance_at_stage(q.stage));
  }
  return result;
}

io::Json eval_closed_form(const Query& q) {
  namespace closed = core::closed;
  io::Json result = io::Json::object();
  result.set("family", q.family);
  if (q.family == "uniform") {
    result.set("mean", closed::eq6_mean(q.k, q.s, q.p));
    result.set("variance", closed::eq7_variance(q.k, q.s, q.p));
  } else if (q.family == "bulk") {
    result.set("mean", closed::bulk_mean(q.k, q.s, q.p, q.b));
    result.set("variance", closed::bulk_variance(q.k, q.s, q.p, q.b));
  } else if (q.family == "nonuniform") {
    result.set("mean", closed::nonuniform_mean(q.k, q.p, q.q, q.b));
    // The paper prints the favorite-output variance for b = 1 only.
    if (q.b == 1)
      result.set("variance", closed::nonuniform_variance(q.k, q.p, q.q));
  } else if (q.family == "geometric") {
    result.set("mean", closed::geometric_mean(q.k, q.s, q.p, q.mu));
    result.set("variance", closed::geometric_variance(q.k, q.s, q.p, q.mu));
  } else {  // deterministic (family vocabulary was enforced at parse time)
    result.set("mean", closed::eq8_mean(q.k, q.s, q.p, q.m));
    result.set("variance", closed::eq9_variance(q.k, q.s, q.p, q.m));
  }
  return result;
}

io::Json eval_total_delay(const Query& q) {
  const core::LaterStages ls(sim::traffic_spec(sim_config(q, 0)));
  const core::TotalDelay td(ls, q.stages);
  const auto gamma = td.gamma_approximation();
  io::Json result = io::Json::object();
  result.set("stages", static_cast<std::int64_t>(q.stages));
  result.set("rho", ls.spec().rho());
  result.set("mean_total", td.mean_total());
  result.set("var_total", td.variance_total());
  result.set("var_independent", td.variance_total(false));
  result.set("mean_total_delay", td.mean_total_delay());
  io::Json g = io::Json::object();
  g.set("shape", gamma.shape());
  g.set("scale", gamma.scale());
  result.set("gamma", std::move(g));
  io::Json qs = io::Json::object();
  for (double prob : q.quantiles)
    qs.set(tables::format_number(prob, 3), gamma.quantile(prob));
  result.set("quantiles", std::move(qs));
  return result;
}

/// One depth point: replicate sequentially (the service evaluates one
/// request at a time) with the canonical per-replicate seeds, merged in
/// index order — the same bytes replicate_network would produce.
///
/// Every emitted field derives from NetworkResults' packet counters and
/// stage accumulators, never from the obs registry, so responses do not
/// depend on telemetry.
io::Json sim_point(const Query& q, unsigned depth) {
  sim::NetworkConfig cfg = sim_config(q, depth);
  sim::NetworkResults merged;
  for (unsigned i = 0; i < q.replicates; ++i) {
    cfg.seed = sim::replicate_seed(q.seed, i);
    sim::NetworkResults one = sim::run_network(cfg);
    if (i == 0)
      merged = std::move(one);
    else
      merged.merge(one);
  }

  const auto ports = static_cast<double>(sim::port_count(q.k, q.stages));
  const double offered = static_cast<double>(merged.packets_injected +
                                             merged.packets_dropped);
  const double accept_ratio =
      offered > 0.0
          ? static_cast<double>(merged.packets_injected) / offered
          : 1.0;
  const double measured_slots =
      ports * static_cast<double>(q.cycles) *
      static_cast<double>(q.replicates);

  io::Json result = io::Json::object();
  result.set("depth", static_cast<std::int64_t>(depth));
  result.set("packets_injected",
             static_cast<std::int64_t>(merged.packets_injected));
  result.set("packets_delivered",
             static_cast<std::int64_t>(merged.packets_delivered));
  result.set("packets_dropped",
             static_cast<std::int64_t>(merged.packets_dropped));
  result.set("accept_ratio", accept_ratio);
  result.set("drop_rate", 1.0 - accept_ratio);
  result.set("throughput",
             static_cast<double>(merged.packets_delivered) / measured_slots);
  result.set("mean_wait_first", merged.stage_wait.front().mean());
  result.set("mean_wait_last", merged.stage_wait.back().mean());
  double total = 0.0;
  for (const auto& acc : merged.stage_wait) total += acc.mean();
  result.set("mean_wait_total", total);
  return result;
}

/// The simulated tuple echoed once per response, so a result is
/// self-describing without the request line.
io::Json sim_tuple(const Query& q) {
  io::Json tuple = io::Json::object();
  tuple.set("k", static_cast<std::int64_t>(q.k));
  tuple.set("stages", static_cast<std::int64_t>(q.stages));
  tuple.set("ports", static_cast<double>(sim::port_count(q.k, q.stages)));
  tuple.set("rho", sim_config(q, 0).rho());
  tuple.set("flow", sim::to_string(q.flow));
  if (q.flow == sim::FlowControl::kCredit)
    tuple.set("credit_latency", static_cast<std::int64_t>(q.credit_latency));
  tuple.set("cycles", static_cast<std::int64_t>(q.cycles));
  tuple.set("warmup", static_cast<std::int64_t>(q.warmup));
  tuple.set("replicates", static_cast<std::int64_t>(q.replicates));
  tuple.set("seed", static_cast<std::int64_t>(q.seed));
  return tuple;
}

io::Json eval_finite_buffer(const Query& q) {
  io::Json result = sim_tuple(q);
  const io::Json point = sim_point(q, q.depth);
  for (const auto& key : point.keys()) result.set(key, point.at(key));
  return result;
}

io::Json eval_buffer_sweep(const Query& q) {
  io::Json result = sim_tuple(q);
  io::Json grid = io::Json::array();
  for (const unsigned depth : q.depths) grid.push_back(sim_point(q, depth));
  result.set("grid", std::move(grid));
  // Infinite-queue baseline: what the depth grid should converge to.
  io::Json inf = sim_point(q, 0);
  io::Json baseline = io::Json::object();
  baseline.set("mean_wait_first", inf.at("mean_wait_first"));
  baseline.set("mean_wait_last", inf.at("mean_wait_last"));
  baseline.set("mean_wait_total", inf.at("mean_wait_total"));
  baseline.set("throughput", inf.at("throughput"));
  result.set("infinite", std::move(baseline));
  return result;
}

}  // namespace

std::string evaluate_bytes(const Query& query) {
  std::string bytes = [&] {
    switch (query.kernel) {
      case Kernel::kFirstStage:
        return eval_first_stage(query);
      case Kernel::kLaterStages:
        return eval_later_stages(query).to_string();
      case Kernel::kClosedForm:
        return eval_closed_form(query).to_string();
      case Kernel::kTotalDelay:
        return eval_total_delay(query).to_string();
      case Kernel::kFiniteBuffer:
        return eval_finite_buffer(query).to_string();
      case Kernel::kBufferSweep:
        return eval_buffer_sweep(query).to_string();
    }
    throw ksw::usage_error("kernel: unknown");
  }();
  // The cache keeps these bytes: drop the growth slack of appending.
  bytes.shrink_to_fit();
  return bytes;
}

}  // namespace ksw::serve
