// Extension figure F1: flow-level behaviour of run-time admission control.
// Poisson flow arrivals over the configured MCI network at increasing
// offered load; reports admission probability and mean carried flows.
// This is the operating regime the paper targets: enormous numbers of
// flow-level events, each decided by a constant-cost utilization test.
//
// --metrics-out=<path> instruments the controllers and exports the merged
// telemetry snapshot (.prom/.json/.csv chosen by extension).

#include "admission/controller.hpp"
#include "admission/load_driver.hpp"
#include "admission/reduced_load.hpp"
#include "admission/telemetry.hpp"
#include "bench_common.hpp"
#include "routing/route_selection.hpp"
#include "util/cli.hpp"

using namespace ubac;

namespace {

int run(const util::ArgParser& args) {
  bench::ScopedBenchTracing tracing(args);
  const std::string metrics_out = args.get("metrics-out", "");
  telemetry::MetricsRegistry registry;
  const bench::VoipScenario scenario;
  const auto topo = net::mci_backbone();
  const net::ServerGraph graph(topo, 6u);
  const auto demands = traffic::all_ordered_pairs(topo);

  // Configuration at a safe utilization (the Table 1 heuristic region).
  const double alpha = 0.40;
  const auto selection = routing::select_routes_heuristic(
      graph, alpha, scenario.bucket, scenario.deadline, demands);
  if (!selection.success) {
    std::fprintf(stderr, "configuration failed at alpha=%.2f\n", alpha);
    return 1;
  }
  const auto classes =
      traffic::ClassSet::two_class(scenario.bucket, scenario.deadline, alpha);
  const admission::RoutingTable table(demands, selection.server_routes);

  bench::print_header(
      "Fig. F1 (extension): admission probability vs offered load",
      "MCI backbone configured at alpha=0.40 (heuristic routes); Poisson\n"
      "flow arrivals, exponential holding (mean 90 s), 2 simulated hours.");

  // Analytic prediction: Erlang reduced-load fixed point per offered load.
  const auto flow_limit = static_cast<std::size_t>(
      alpha * 100e6 / scenario.bucket.rate);
  auto predicted_acceptance = [&](double rate) {
    admission::ReducedLoadInput input;
    input.offered_erlangs.assign(
        demands.size(), rate * 90.0 / static_cast<double>(demands.size()));
    input.routes = selection.server_routes;
    input.circuits.assign(graph.size(), flow_limit);
    return admission::solve_reduced_load(input).overall_acceptance;
  };

  util::TextTable table_out({"arrivals/s", "offered", "admitted",
                             "admit ratio", "Erlang prediction",
                             "mean active", "peak active"});
  std::vector<std::vector<std::string>> rows;
  for (const double rate : {20.0, 50.0, 100.0, 200.0, 400.0, 800.0}) {
    admission::AdmissionController controller(graph, classes, table);
    admission::ControllerTelemetry telemetry(registry, "runtime");
    if (!metrics_out.empty()) controller.attach_telemetry(&telemetry);
    admission::LoadDriverConfig cfg;
    cfg.arrival_rate = rate;
    cfg.mean_holding = 90.0;
    cfg.duration = 7200.0;
    cfg.seed = 20260704;
    const auto stats = admission::run_poisson_load(controller, demands, cfg);
    if (!metrics_out.empty())
      admission::update_utilization_gauges(registry, "runtime", controller);
    rows.push_back({util::TextTable::fmt(rate, 0),
                    std::to_string(stats.offered),
                    std::to_string(stats.admitted),
                    util::TextTable::fmt(stats.admit_ratio(), 3),
                    util::TextTable::fmt(predicted_acceptance(rate), 3),
                    util::TextTable::fmt(stats.mean_active, 0),
                    std::to_string(stats.peak_active)});
    table_out.add_row(rows.back());
  }
  bench::emit(table_out,
              {"arrival_rate", "offered", "admitted", "admit_ratio",
               "erlang_prediction", "mean_active", "peak_active"},
              rows, "admission_runtime");
  if (!metrics_out.empty())
    bench::export_metrics(registry.snapshot(), metrics_out);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args(argc, argv);
  args.describe("metrics-out",
                "instrument the controllers and export the metrics snapshot "
                "(.prom/.json/.csv chosen by extension)")
      .describe("trace-out", bench::kTraceOutHelp);
  return util::run_main(args, "bench_admission_runtime", [&] { return run(args); });
}
