// Run-time admission control demo: configure the MCI backbone once, then
// drive it with Poisson flow arrivals and watch the utilization-based
// controller admit and reject in O(route length) per request. Finally,
// packet-simulate a snapshot of the admitted population and check the
// measured delays against the guarantee.
//
//   $ admission_control_sim --arrivals=200 --holding=60 --duration=1800

#include <cstdio>

#include "admission/controller.hpp"
#include "admission/load_driver.hpp"
#include "admission/snapshot.hpp"
#include "net/topology_factory.hpp"
#include "routing/route_selection.hpp"
#include "sim/network_sim.hpp"
#include "traffic/workload.hpp"
#include "util/cli.hpp"
#include "util/units.hpp"

using namespace ubac;

namespace {

int run(const util::ArgParser& args) {
  const double alpha = args.get_double("alpha", 0.40);

  // --- Configuration (offline, done once). ---
  const auto topo = net::mci_backbone();
  const net::ServerGraph graph(topo, 6u);
  const traffic::LeakyBucket voice(640.0, units::kbps(32));
  const Seconds deadline = units::milliseconds(100);
  const auto demands = traffic::all_ordered_pairs(topo);

  const auto selection = routing::select_routes_heuristic(
      graph, alpha, voice, deadline, demands);
  if (!selection.success) {
    std::fprintf(stderr,
                 "alpha=%.2f is not a safe utilization for this network; "
                 "try a smaller --alpha\n",
                 alpha);
    return 1;
  }
  std::printf("configured %zu routes at alpha=%.2f "
              "(worst route bound %.2f ms <= %.0f ms)\n",
              demands.size(), alpha,
              units::to_ms(selection.solution.worst_route_delay()),
              units::to_ms(deadline));

  // --- Run time: flow churn. ---
  const auto classes = traffic::ClassSet::two_class(voice, deadline, alpha);
  admission::RoutingTable table(demands, selection.server_routes);
  admission::AdmissionController controller(graph, classes, table);

  admission::LoadDriverConfig cfg;
  cfg.arrival_rate = args.get_double("arrivals", 200.0);
  cfg.mean_holding = args.get_double("holding", 60.0);
  cfg.duration = args.get_double("duration", 1800.0);
  cfg.seed = static_cast<std::uint64_t>(args.get_long("seed", 1));

  const auto stats = admission::run_poisson_load(controller, demands, cfg);
  std::printf("\nflow churn: %zu offered, %zu admitted (%.1f%%), "
              "mean %.0f / peak %zu active flows\n",
              stats.offered, stats.admitted, 100.0 * stats.admit_ratio(),
              stats.mean_active, stats.peak_active);

  // --- Validation: packet-simulate a fresh admitted snapshot. ---
  std::size_t snapshot = 0;
  sim::NetworkSim netsim(graph, classes);
  for (int round = 0; round < 10; ++round) {
    for (const auto& d : demands) {
      const auto decision = controller.request(d.src, d.dst, d.class_index);
      if (!decision.admitted()) continue;
      ++snapshot;
      sim::SourceConfig src;
      src.model = sim::SourceModel::kGreedy;
      src.packet_size = 640.0;
      src.stop = sim::to_sim_time(0.25);
      netsim.add_flow(*controller.find_flow(decision.flow_id)->route, 0, src);
    }
  }
  // Operator view of the utilization state with the snapshot admitted.
  std::printf("\n%s",
              admission::render_snapshot(
                  admission::take_snapshot(controller, graph, classes),
                  graph, classes)
                  .c_str());

  const auto results = netsim.run(0.5);
  std::printf("\npacket validation: %zu greedy flows, %llu packets, "
              "worst e2e %.2f ms (guarantee %.0f ms)\n",
              snapshot,
              static_cast<unsigned long long>(results.packets_delivered),
              units::to_ms(results.class_delay[0].max()),
              units::to_ms(deadline));
  const bool ok =
      results.class_delay[0].max() <= deadline;
  std::printf("guarantee %s\n", ok ? "HELD" : "VIOLATED");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args(argc, argv);
  args.describe("alpha", "configured utilization share (default 0.40)")
      .describe("arrivals", "flow arrivals per second (default 200)")
      .describe("holding", "mean flow holding time, s (default 60)")
      .describe("duration", "simulated seconds of flow churn (default 1800)")
      .describe("seed", "RNG seed (default 1)");
  return util::run_main(args, "admission_control_sim", [&] { return run(args); });
}
