// Topology explorer: inspect any topology (built-in or from a file in the
// net/topology_io.hpp text format) and report the quantities the paper's
// analysis is driven by — diameter L, fan-in N, the Theorem 4 utilization
// envelope for a traffic profile, and the achieved SP / heuristic maxima.
//
//   $ topology_explorer --builtin=grid
//   $ topology_explorer --file=mynet.txt --deadline-ms=50

#include <cstdio>
#include <fstream>
#include <sstream>

#include "analysis/bounds.hpp"
#include "net/shortest_path.hpp"
#include "net/topology_factory.hpp"
#include "net/topology_io.hpp"
#include "routing/max_util_search.hpp"
#include "traffic/workload.hpp"
#include "util/cli.hpp"
#include "util/units.hpp"

using namespace ubac;

namespace {

net::Topology load(const util::ArgParser& args) {
  if (args.has("file")) {
    std::ifstream in(args.get("file", ""));
    if (!in) throw std::runtime_error("cannot open " + args.get("file", ""));
    std::ostringstream text;
    text << in.rdbuf();
    return net::from_text(text.str());
  }
  const std::string name = args.get("builtin", "mci");
  if (name == "mci") return net::mci_backbone();
  if (name == "ring") return net::ring(10);
  if (name == "grid") return net::grid(4, 4);
  if (name == "tree") return net::balanced_tree(2, 3);
  if (name == "mesh") return net::full_mesh(8);
  if (name == "random") return net::random_connected(16, 3.5, 1);
  throw std::runtime_error("unknown builtin '" + name +
                           "' (mci|ring|grid|tree|mesh|random)");
}

int run(const util::ArgParser& args) {
  const net::Topology topo = load(args);
  if (args.get_bool("print", false)) std::fputs(net::to_text(topo).c_str(), stdout);

  if (!net::is_strongly_connected(topo)) {
    std::fprintf(stderr, "topology is not strongly connected\n");
    return 1;
  }
  const int l = net::diameter(topo);
  const auto n = topo.max_in_degree();
  std::printf("%s: %zu routers, %zu directed links, diameter L=%d, "
              "max fan-in N=%zu\n",
              topo.name().c_str(), topo.node_count(), topo.link_count(), l,
              n);

  const traffic::LeakyBucket bucket(
      args.get_double("burst", 640.0),
      units::kbps(args.get_double("rate-kbps", 32.0)));
  const Seconds deadline =
      units::milliseconds(args.get_double("deadline-ms", 100.0));

  const double lb =
      analysis::alpha_lower_bound(static_cast<double>(n), l, bucket, deadline);
  const double ub =
      analysis::alpha_upper_bound(static_cast<double>(n), l, bucket, deadline);
  std::printf("Theorem 4 envelope for (T=%.0f b, rho=%.0f kb/s, D=%.0f ms): "
              "[%.3f, %.3f]\n",
              bucket.burst, bucket.rate / 1e3, units::to_ms(deadline), lb,
              ub);

  const net::ServerGraph graph(topo);
  const auto demands = traffic::all_ordered_pairs(topo);
  const auto sp = routing::maximize_utilization_shortest_path(
      graph, bucket, deadline, demands);
  const auto heuristic = routing::maximize_utilization_heuristic(
      graph, bucket, deadline, demands);
  std::printf("achieved maxima over %zu demands: SP %.3f, heuristic %.3f\n",
              demands.size(), sp.max_alpha, heuristic.max_alpha);
  std::printf("one 100 Mb/s link then admits %.0f (SP) / %.0f (heuristic) "
              "flows of this class\n",
              sp.max_alpha * 100e6 / bucket.rate,
              heuristic.max_alpha * 100e6 / bucket.rate);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args(argc, argv);
  args.describe("builtin", "built-in topology: mci|ring|grid|tree|mesh|random")
      .describe("file", "topology file (net/topology_io.hpp format)")
      .describe("deadline-ms", "deadline D in ms (default 100)")
      .describe("burst", "burst T in bits (default 640)")
      .describe("rate-kbps", "rate rho in kb/s (default 32)")
      .describe("print", "dump the topology in serialized form");
  return util::run_main(args, "topology_explorer", [&] { return run(args); });
}
