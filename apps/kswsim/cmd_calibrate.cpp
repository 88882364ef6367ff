// kswsim calibrate — re-fit the Section IV interpolation constants from
// fresh simulations (the paper's own methodology).
//
//   kswsim calibrate [--k=2] [--rho=0.5] [--stages=8] [--cycles=N]
//                    [--seed=N] [--format=table|json|csv]
#include <ostream>

#include "core/calibration.hpp"
#include "core/later_stages.hpp"
#include "io/csv.hpp"
#include "io/json.hpp"
#include "kswsim/cli.hpp"
#include "sim/network.hpp"
#include "tables/table.hpp"

namespace ksw::cli {

int cmd_calibrate(const ArgMap& args, std::ostream& out, std::ostream& err) {
  const Format format = parse_format(args);
  const unsigned k = args.get_unsigned("k", 2);
  const double rho = args.get_double("rho", 0.5);
  sim::NetworkConfig cfg;
  cfg.k = k;
  cfg.p = rho;
  cfg.stages = args.get_unsigned("stages", 8);
  cfg.measure_cycles = args.get_int("cycles", 100'000);
  cfg.warmup_cycles = cfg.measure_cycles / 10;
  cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));

  const auto unknown = args.unused();
  if (!unknown.empty()) {
    err << "calibrate: unknown option --" << unknown.front() << "\n";
    return 2;
  }
  check_network_config(cfg, {{"p", "rho"},
                             {"warmup_cycles", "cycles"},
                             {"measure_cycles", "cycles"}});
  const auto r = sim::run_network(cfg);

  std::vector<core::StageObservation> obs;
  for (unsigned s = 0; s < cfg.stages; ++s)
    obs.push_back(
        {s + 1, r.stage_wait[s].mean(), r.stage_wait[s].variance()});
  const auto limit = core::limit_estimate(obs, 2);

  const core::LaterStages ls(sim::traffic_spec(cfg));

  const double mean_coeff =
      core::fit_mean_coeff(ls.mean_first_stage(), limit.mean, rho, k);
  const double stage_rate =
      core::fit_stage_rate(obs, ls.mean_first_stage(), limit.mean);
  const double var_ratio = limit.variance / ls.variance_first_stage();

  switch (format) {
    case Format::kTable: {
      tables::Table table("Calibration at k=" + std::to_string(k) +
                              ", rho=" + tables::format_number(rho, 2),
                          {"constant", "fitted", "paper"});
      table.begin_row("mean_coeff (eq 11)")
          .add_number(mean_coeff, 4)
          .add_cell("0.8");
      table.begin_row("stage rate a (eq 12)")
          .add_number(stage_rate, 4)
          .add_cell("0.4");
      table.begin_row("v_inf/v1 (eq 13)")
          .add_number(var_ratio, 4)
          .add_cell(tables::format_number(
              1.0 + rho / k + rho * rho / k, 4));
      table.print(out);
      break;
    }
    case Format::kJson: {
      io::Json doc = io::Json::object();
      doc.set("k", static_cast<std::int64_t>(k));
      doc.set("rho", rho);
      doc.set("mean_coeff", mean_coeff);
      doc.set("stage_rate", stage_rate);
      doc.set("var_ratio", var_ratio);
      doc.set("w1", ls.mean_first_stage());
      doc.set("w_limit_sim", limit.mean);
      doc.write(out, 2);
      out << '\n';
      break;
    }
    case Format::kCsv: {
      io::CsvWriter csv({"constant", "fitted"});
      csv.begin_row().add("mean_coeff").add(mean_coeff);
      csv.begin_row().add("stage_rate").add(stage_rate);
      csv.begin_row().add("var_ratio").add(var_ratio);
      csv.write(out);
      break;
    }
  }
  return 0;
}

}  // namespace ksw::cli
