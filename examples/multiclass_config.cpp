// Multi-class configuration (Section 5.4): provision voice and video as
// two static-priority real-time classes over the MCI backbone and explore
// the share trade-off between them with Theorem 5's delay bounds.
//
//   $ multiclass_config --voice-share=0.15 --video-share=0.20

#include <cstdio>

#include "analysis/multiclass.hpp"
#include "net/shortest_path.hpp"
#include "net/topology_factory.hpp"
#include "traffic/workload.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

using namespace ubac;

namespace {

int run(const util::ArgParser& args) {
  const double voice_share = args.get_double("voice-share", 0.15);
  const double video_share = args.get_double("video-share", 0.20);

  const auto topo = net::mci_backbone();
  const net::ServerGraph graph(topo, 6u);

  traffic::ClassSet classes;
  classes.add(traffic::ServiceClass(
      "voice", traffic::LeakyBucket(640.0, units::kbps(32)),
      units::milliseconds(100), voice_share));
  classes.add(traffic::ServiceClass(
      "video", traffic::LeakyBucket(16000.0, units::mbps(1)),
      units::milliseconds(200), video_share));
  classes.add(traffic::ServiceClass(
      "best-effort", traffic::LeakyBucket(1.0, 1.0), 0.0, 0.0, false));

  // Both classes between all pairs, on shortest-path routes.
  std::vector<traffic::Demand> demands;
  std::vector<net::ServerPath> routes;
  for (net::NodeId s = 0; s < topo.node_count(); ++s)
    for (net::NodeId d = 0; d < topo.node_count(); ++d) {
      if (s == d) continue;
      const auto path = net::shortest_path(topo, s, d).value();
      for (std::size_t cls = 0; cls < 2; ++cls) {
        demands.push_back({s, d, cls});
        routes.push_back(graph.map_path(path));
      }
    }

  const auto sol = analysis::solve_multiclass(graph, classes, demands, routes);
  std::printf("multi-class verification at voice=%.2f, video=%.2f: %s\n\n",
              voice_share, video_share, analysis::to_string(sol.status));

  if (sol.safe()) {
    util::TextTable table({"class", "share", "deadline", "worst e2e bound"});
    for (std::size_t cls = 0; cls < 2; ++cls) {
      Seconds worst = 0.0;
      for (std::size_t r = 0; r < demands.size(); ++r)
        if (demands[r].class_index == cls)
          worst = std::max(worst, sol.route_delay[r]);
      table.add_row({classes.at(cls).name,
                     util::TextTable::fmt(classes.at(cls).share, 2),
                     util::TextTable::fmt_ms(classes.at(cls).deadline, 0),
                     util::TextTable::fmt_ms(worst)});
    }
    std::fputs(table.render().c_str(), stdout);
    std::printf("\n(remaining %.0f%% of each link serves best-effort "
                "traffic below the real-time classes)\n",
                (1.0 - voice_share - video_share) * 100.0);
  } else {
    std::printf("the share pair is not safe; lower one of the shares.\n");
  }
  return sol.safe() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args(argc, argv);
  args.describe("voice-share", "link share for voice (default 0.15)")
      .describe("video-share", "link share for video (default 0.20)");
  return util::run_main(args, "multiclass_config", [&] { return run(args); });
}
