// Quickstart: the smallest useful ubac program.
//
// Build a topology, describe the real-time traffic class, verify a safe
// utilization assignment over shortest-path routes (Fig. 2 of the paper),
// and print the per-route delay bounds. Exit code 0 iff the assignment is
// safe.
//
//   $ quickstart [--alpha=0.30]

#include <cstdio>

#include "analysis/verification.hpp"
#include "net/shortest_path.hpp"
#include "net/topology_factory.hpp"
#include "traffic/leaky_bucket.hpp"
#include "util/cli.hpp"
#include "util/units.hpp"

using namespace ubac;

namespace {

int run(const util::ArgParser& args) {
  const double alpha = args.get_double("alpha", 0.30);

  // 1. Network: the MCI backbone of the paper's evaluation (19 routers,
  //    100 Mb/s links). Every directed link is one queueing "link server".
  const net::Topology topo = net::mci_backbone();
  const net::ServerGraph graph(topo, /*uniform_n=*/6u);

  // 2. Traffic class: voice, policed by a leaky bucket (640-bit bursts at
  //    32 kb/s), end-to-end deadline 100 ms.
  const traffic::LeakyBucket voice(units::bits(640), units::kbps(32));
  const Seconds deadline = units::milliseconds(100);

  // 3. Routes: one shortest path per ordered router pair.
  std::vector<net::NodePath> routes;
  for (net::NodeId s = 0; s < topo.node_count(); ++s)
    for (net::NodeId d = 0; d < topo.node_count(); ++d)
      if (s != d) routes.push_back(*net::shortest_path(topo, s, d));

  // 4. Configuration-time verification: is `alpha` safe? If yes, run-time
  //    admission control is a pure utilization test per hop.
  const auto report = analysis::verify_safe_utilization(
      graph, alpha, voice, deadline, routes);

  std::printf("verify alpha=%.2f over %zu routes: %s\n", alpha, routes.size(),
              analysis::to_string(report.status));
  if (report.safe) {
    std::printf("worst end-to-end delay bound: %.2f ms (deadline %.0f ms)\n",
                units::to_ms(report.worst_route_delay),
                units::to_ms(deadline));
    std::printf("fixed point converged in %d iterations\n", report.iterations);
  } else {
    std::printf("NOT safe: route %zu would reach %.2f ms\n",
                report.worst_route, units::to_ms(report.worst_route_delay));
  }
  return report.safe ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args(argc, argv);
  args.describe("alpha", "utilization share for the real-time class");
  return util::run_main(args, "quickstart", [&] { return run(args); });
}
