// SLA renegotiation: the configuration lifecycle of a DiffServ operator.
//
// 1. Initial configuration: maximize utilization for the current customer
//    demand set and persist the configuration artifact.
// 2. A new customer arrives: extend the configuration *without touching
//    the routes promised to existing customers* (Configurator::add_demands).
// 3. A customer leaves: shrink it (remove_demands).
// 4. Reload the persisted artifact and show it still verifies (Fig. 2).
//
//   $ sla_renegotiation [--save=config.txt]

#include <cstdio>
#include <fstream>

#include "config/configurator.hpp"
#include "net/topology_factory.hpp"
#include "traffic/workload.hpp"
#include "util/cli.hpp"
#include "util/units.hpp"

using namespace ubac;

namespace {

int run(const util::ArgParser& args) {
  const auto topo = net::mci_backbone();
  const net::ServerGraph graph(topo, 6u);
  const traffic::LeakyBucket voice(640.0, units::kbps(32));
  const config::Configurator configurator(graph, voice,
                                          units::milliseconds(100));

  // --- 1. Initial customers: 60 random pairs, maximize alpha. ---
  const auto initial = traffic::random_pairs(topo, 60, 2026);
  auto result = configurator.maximize(initial);
  if (!result.success) {
    std::fprintf(stderr, "initial configuration failed: %s\n",
                 result.failure_reason.c_str());
    return 1;
  }
  std::printf("initial configuration: %zu demands at alpha=%.3f "
              "(worst bound %.2f ms)\n",
              result.config.demands.size(), result.config.alpha,
              units::to_ms(result.report.worst_route_delay));

  // --- 2. New customer: 8 more pairs, same alpha, existing routes pinned.
  const auto additions = traffic::random_pairs(topo, 8, 999);
  const auto extended = configurator.add_demands(result.config, additions);
  if (extended.success) {
    std::printf("renegotiation: +%zu demands accepted at alpha=%.3f "
                "(worst bound %.2f ms); existing routes untouched\n",
                additions.size(), extended.config.alpha,
                units::to_ms(extended.report.worst_route_delay));
    result = extended;
  } else {
    std::printf("renegotiation rejected: %s\n",
                extended.failure_reason.c_str());
  }

  // --- 3. A customer leaves: drop the first three demands. ---
  const auto trimmed = configurator.remove_demands(result.config, {0, 1, 2});
  std::printf("churn: removed 3 demands -> %zu remain, worst bound %.2f ms\n",
              trimmed.config.demands.size(),
              units::to_ms(trimmed.report.worst_route_delay));
  result = trimmed;

  // --- 3b. Link failure: reroute around a duplex cut, pinning survivors.
  const auto chicago = topo.find_node("Chicago").value();
  const auto stlouis = topo.find_node("KansasCity").value();
  std::vector<net::ServerId> failed{
      graph.server_for_link(*topo.find_link(chicago, stlouis)),
      graph.server_for_link(*topo.find_link(stlouis, chicago))};
  const auto healed = configurator.reroute_avoiding(result.config, failed);
  if (healed.success) {
    std::printf("failure of Chicago<->KansasCity: rerouted safely, "
                "worst bound now %.2f ms\n",
                units::to_ms(healed.report.worst_route_delay));
    result = healed;
  } else {
    std::printf("failure of Chicago<->KansasCity could not be absorbed: %s\n",
                healed.failure_reason.c_str());
  }

  // --- 4. Persist and reload the artifact. ---
  const std::string text = config::to_text(result.config, topo);
  const std::string path = args.get("save", "/tmp/ubac_config.txt");
  std::ofstream(path) << text;
  std::printf("configuration persisted to %s (%zu bytes)\n", path.c_str(),
              text.size());

  const auto reloaded = config::from_text(text, topo);
  const auto reverify = configurator.verify(reloaded.alpha, reloaded.demands,
                                            reloaded.routes);
  std::printf("reloaded configuration verifies: %s\n",
              reverify.success ? "yes" : "NO");
  return reverify.success ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args(argc, argv);
  args.describe("save", "write the final configuration to this file");
  return util::run_main(args, "sla_renegotiation", [&] { return run(args); });
}
