// kswsim analyze — exact first-stage analysis (Theorem 1).
//
//   kswsim analyze --k=2 --s=2 --p=0.5 [--bulk=B] [--q=Q]
//                  [--service=det:1] [--distribution=N]
//                  [--format=table|json|csv]
#include <memory>
#include <ostream>
#include <vector>

#include "core/first_stage.hpp"
#include "io/csv.hpp"
#include "io/json.hpp"
#include "kswsim/cli.hpp"
#include "support/error.hpp"
#include "tables/table.hpp"

namespace ksw::cli {

namespace {

core::QueueSpec build_queue(const ArgMap& args) {
  const unsigned k = args.get_unsigned("k", 2);
  const unsigned s = args.get_unsigned("s", k);
  const double p = args.get_double("p", 0.5);
  const unsigned bulk = args.get_unsigned("bulk", 1);
  const double q = args.get_double("q", 0.0);
  const sim::ServiceSpec service =
      parse_service(args.get("service", "det:1"));

  std::shared_ptr<const core::ArrivalModel> arrivals;
  if (q > 0.0) {
    if (k != s)
      throw usage_error(
          "analyze: favorite-output traffic (--q) requires k == s");
    arrivals = core::make_nonuniform_arrivals(k, p, q, bulk);
  } else {
    arrivals = core::make_bulk_arrivals(k, s, p, bulk);
  }
  return core::QueueSpec{std::move(arrivals), service.to_model()};
}

}  // namespace

int cmd_analyze(const ArgMap& args, std::ostream& out, std::ostream& err) {
  const Format format = parse_format(args);
  const auto dist_len =
      static_cast<std::size_t>(args.get_int("distribution", 0));

  const core::QueueSpec queue = build_queue(args);
  const auto unknown = args.unused();
  if (!unknown.empty()) {
    err << "analyze: unknown option --" << unknown.front() << "\n";
    return 2;
  }

  const core::FirstStage first(queue);
  const auto m = first.moments();
  const std::vector<double> dist =
      dist_len > 0 ? first.distribution(dist_len) : std::vector<double>{};

  switch (format) {
    case Format::kTable: {
      tables::Table table("First-stage waiting time (Theorem 1)",
                          {"quantity", "value"});
      table.begin_row("lambda").add_number(first.lambda(), 6);
      table.begin_row("mean service").add_number(first.mean_service(), 6);
      table.begin_row("rho").add_number(first.rho(), 6);
      table.begin_row("E[wait]").add_number(m.mean, 6);
      table.begin_row("Var[wait]").add_number(m.variance, 6);
      table.begin_row("skewness").add_number(m.skewness(), 6);
      table.begin_row("E[delay]").add_number(first.mean_delay(), 6);
      table.begin_row("Var[delay]").add_number(first.variance_delay(), 6);
      table.print(out);
      if (dist_len > 0) {
        tables::Table dist_table("P(wait = j)", {"j", "probability"});
        for (std::size_t j = 0; j < dist.size(); ++j)
          dist_table.begin_row(std::to_string(j)).add_number(dist[j], 8);
        dist_table.begin_row("tail").add_number(core::distribution_tail(dist),
                                                8);
        dist_table.print(out);
      }
      break;
    }
    case Format::kJson: {
      io::Json doc = io::Json::object();
      doc.set("lambda", first.lambda());
      doc.set("mean_service", first.mean_service());
      doc.set("rho", first.rho());
      doc.set("mean_wait", m.mean);
      doc.set("var_wait", m.variance);
      doc.set("skewness", m.skewness());
      doc.set("mean_delay", first.mean_delay());
      doc.set("var_delay", first.variance_delay());
      if (dist_len > 0) {
        io::Json arr = io::Json::array();
        for (double pj : dist) arr.push_back(pj);
        doc.set("distribution", std::move(arr));
        doc.set("distribution_tail", core::distribution_tail(dist));
      }
      doc.write(out, 2);
      out << '\n';
      break;
    }
    case Format::kCsv: {
      io::CsvWriter csv({"quantity", "value"});
      csv.begin_row().add("lambda").add(first.lambda());
      csv.begin_row().add("mean_service").add(first.mean_service());
      csv.begin_row().add("rho").add(first.rho());
      csv.begin_row().add("mean_wait").add(m.mean);
      csv.begin_row().add("var_wait").add(m.variance);
      csv.begin_row().add("skewness").add(m.skewness());
      if (dist_len > 0) {
        for (std::size_t j = 0; j < dist.size(); ++j)
          csv.begin_row().add("P(w=" + std::to_string(j) + ")").add(dist[j]);
        csv.begin_row().add("distribution_tail").add(
            core::distribution_tail(dist));
      }
      csv.write(out);
      break;
    }
  }
  return 0;
}

}  // namespace ksw::cli
