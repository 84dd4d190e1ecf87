// VoIP provisioning: the paper's full configuration workflow (Section 6).
//
// Given a network and the voice traffic profile, find the maximum safe
// utilization with both route selectors (Section 5.3's binary search over
// the Theorem 4 interval), print the Table 1 row, and show the winning
// route set's delay profile. All scenario knobs are CLI options, so this
// doubles as a what-if tool for a network operator:
//
//   $ voip_provisioning --deadline-ms=50 --burst=1280 --candidates=4

#include <algorithm>
#include <cstdio>

#include "net/shortest_path.hpp"
#include "net/topology_factory.hpp"
#include "routing/max_util_search.hpp"
#include "traffic/workload.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

using namespace ubac;

namespace {

int run(const util::ArgParser& args) {
  const Seconds deadline = units::milliseconds(args.get_double("deadline-ms", 100.0));
  const traffic::LeakyBucket bucket(args.get_double("burst", 640.0),
                                    units::kbps(args.get_double("rate-kbps", 32.0)));

  const auto topo = net::mci_backbone();
  const net::ServerGraph graph(topo, 6u);
  const auto demands = traffic::all_ordered_pairs(topo);

  std::printf("VoIP provisioning on %s: %zu routers, %zu directed links,\n"
              "%zu demands, T=%.0f bits, rho=%.0f kb/s, D=%.0f ms\n\n",
              topo.name().c_str(), topo.node_count(), topo.link_count(),
              demands.size(), bucket.burst, bucket.rate / 1e3,
              units::to_ms(deadline));

  routing::MaxUtilOptions search;
  search.resolution = args.get_double("resolution", 0.005);
  routing::HeuristicOptions heuristic;
  heuristic.candidates_per_pair =
      static_cast<std::size_t>(args.get_long("candidates", 8));

  const auto sp = routing::maximize_utilization_shortest_path(
      graph, bucket, deadline, demands, {}, search);
  const auto best = routing::maximize_utilization_heuristic(
      graph, bucket, deadline, demands, heuristic, search);

  util::TextTable table({"Lower Bound", "SP", "Our Heuristics",
                         "Upper Bound"});
  table.add_row({util::TextTable::fmt(sp.theorem4_lower, 2),
                 util::TextTable::fmt(sp.max_alpha, 2),
                 util::TextTable::fmt(best.max_alpha, 2),
                 util::TextTable::fmt(sp.theorem4_upper, 2)});
  std::fputs(table.render().c_str(), stdout);

  // Capacity interpretation for the operator: voice flows per link.
  const double flows_per_link =
      best.max_alpha * 100e6 / bucket.rate;
  std::printf("\nAt alpha=%.2f each 100 Mb/s link admits %.0f voice flows.\n",
              best.max_alpha, flows_per_link);

  // Delay profile of the committed heuristic routes.
  const auto& delays = best.best.solution.route_delay;
  if (!delays.empty()) {
    auto sorted = delays;
    std::sort(sorted.begin(), sorted.end());
    std::printf("route delay bounds: median %.2f ms, p95 %.2f ms, max %.2f ms "
                "(deadline %.0f ms)\n",
                units::to_ms(sorted[sorted.size() / 2]),
                units::to_ms(sorted[sorted.size() * 95 / 100]),
                units::to_ms(sorted.back()), units::to_ms(deadline));
  }
  // Longest route chosen by the heuristic (vs 4-hop SP diameter).
  std::size_t longest = 0;
  for (const auto& route : best.best.routes)
    longest = std::max(longest, net::hop_count(route));
  std::printf("longest heuristic route: %zu hops (network diameter %d)\n",
              longest, net::diameter(topo));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args(argc, argv);
  args.describe("deadline-ms", "end-to-end deadline D in ms (default 100)")
      .describe("burst", "leaky bucket burst T in bits (default 640)")
      .describe("rate-kbps", "leaky bucket rate rho in kb/s (default 32)")
      .describe("candidates", "k-shortest-path candidates per pair (default 8)")
      .describe("resolution", "binary search resolution (default 0.005)");
  return util::run_main(args, "voip_provisioning", [&] { return run(args); });
}
