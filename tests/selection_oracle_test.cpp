// The Section 5.2 heuristic against a reference that probes every
// candidate of every pair to the end: no committed-sum pruning and no
// cut-off probes. Both shortcuts only skip candidates that cannot win the
// strict min-delay comparison, so the routes, the failing demand and the
// verified delays must agree bit for bit — at, below and above the alpha
// the search finds, where the selection fails.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <optional>
#include <utility>
#include <vector>

#include "analysis/engine.hpp"
#include "net/ksp.hpp"
#include "net/shortest_path.hpp"
#include "net/topology_factory.hpp"
#include "routing/cycle_check.hpp"
#include "routing/max_util_search.hpp"
#include "routing/multiclass_selection.hpp"
#include "routing/route_selection.hpp"
#include "traffic/workload.hpp"
#include "util/units.hpp"

namespace ubac::routing {
namespace {

const traffic::LeakyBucket kVoice(640.0, units::kbps(32));
const Seconds kDeadline = units::milliseconds(100);
constexpr std::size_t kCandidates = 8;

/// The heuristic with default options, written out plainly: pairs by
/// decreasing hop distance, then (src, dst); acyclic candidates first;
/// every candidate probed without a cutoff; the strictly smallest delay
/// wins.
RouteSelectionResult reference_heuristic(
    const net::ServerGraph& graph, double alpha,
    const std::vector<traffic::Demand>& demands) {
  const net::Topology& topo = graph.topology();
  RouteSelectionResult result;
  result.routes.assign(demands.size(), {});
  result.server_routes.assign(demands.size(), {});
  analysis::AnalysisEngine engine(graph, alpha, kVoice, kDeadline);
  engine.solve();

  const auto hops = net::all_pairs_hops(topo);
  std::vector<std::size_t> order(demands.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                   std::size_t b) {
    const traffic::Demand& x = demands[a];
    const traffic::Demand& y = demands[b];
    const int hx = hops[x.src][x.dst], hy = hops[y.src][y.dst];
    if (hx != hy) return hx > hy;
    return std::pair(x.src, x.dst) < std::pair(y.src, y.dst);
  });

  RouteDependencyGraph dependency(graph.size());
  for (const std::size_t d : order) {
    const auto paths = net::k_shortest_paths(topo, demands[d].src,
                                             demands[d].dst, kCandidates);
    std::vector<net::ServerPath> servers;
    std::vector<std::size_t> preferred, fallback;
    for (std::size_t c = 0; c < paths.size(); ++c) {
      servers.push_back(graph.map_path(paths[c]));
      (dependency.stays_acyclic(servers[c]) ? preferred : fallback)
          .push_back(c);
    }
    using Best = std::optional<std::pair<std::size_t, analysis::RouteProbe>>;
    const auto best_of = [&](const std::vector<std::size_t>& group) {
      Best best;
      for (const std::size_t c : group) {
        analysis::RouteProbe probe = engine.probe_route(servers[c]);
        if (probe.safe() &&
            (!best || probe.route_delay < best->second.route_delay))
          best.emplace(c, std::move(probe));
      }
      return best;
    };
    Best best = best_of(preferred);
    if (!best) best = best_of(fallback);
    if (!best) {
      result.failed_demand = d;
      return result;
    }
    const auto& [c, probe] = *best;
    result.routes[d] = paths[c];
    result.server_routes[d] = servers[c];
    dependency.add_route(servers[c]);
    engine.commit_probe(servers[c], probe);
  }
  result.solution = analysis::solve_two_class(graph, alpha, kVoice, kDeadline,
                                              result.server_routes);
  result.success = result.solution.safe();
  return result;
}

/// The heuristic and the reference at alphas around the one the search
/// finds; at least one of them must fail. (A reference run costs up to 25
/// selector runs at 30 routers, hence few alphas and one graph per test.)
void expect_matches_reference(const net::ServerGraph& graph) {
  const auto demands = traffic::all_ordered_pairs(graph.topology());
  const auto search =
      maximize_utilization_heuristic(graph, kVoice, kDeadline, demands);
  ASSERT_TRUE(search.any_feasible);
  int failures = 0;
  for (const double offset : {-0.02, 0.0, 0.005, 0.1}) {
    const double alpha = search.max_alpha + offset;
    SCOPED_TRACE(::testing::Message() << "alpha=" << alpha);
    const auto real =
        select_routes_heuristic(graph, alpha, kVoice, kDeadline, demands);
    const auto reference = reference_heuristic(graph, alpha, demands);
    EXPECT_EQ(real.success, reference.success);
    EXPECT_EQ(real.failed_demand, reference.failed_demand);
    EXPECT_EQ(real.routes, reference.routes);
    EXPECT_EQ(real.server_routes, reference.server_routes);
    EXPECT_EQ(real.solution.status, reference.solution.status);
    EXPECT_EQ(real.solution.server_delay, reference.solution.server_delay);
    EXPECT_EQ(real.solution.route_delay, reference.solution.route_delay);
    failures += real.success ? 0 : 1;
  }
  EXPECT_GT(failures, 0);
}

TEST(SelectionEquivalence, HeuristicMatchesProbeEverythingReferenceOnMci) {
  const auto topo = net::mci_backbone();
  expect_matches_reference(net::ServerGraph(topo, 6u));
}

// At seed 1031 the selection fails just above the found alpha; at 2024 it
// still succeeds there and fails further up.
TEST(SelectionEquivalence, HeuristicMatchesProbeEverythingReferenceOnRandom1031) {
  const auto topo = net::random_connected(30, 3.5, 1031);
  expect_matches_reference(net::ServerGraph(topo));
}

TEST(SelectionEquivalence, HeuristicMatchesProbeEverythingReferenceOnRandom2024) {
  const auto topo = net::random_connected(30, 3.5, 2024);
  expect_matches_reference(net::ServerGraph(topo));
}

// ---------------------------------------------------------------------------
// Multi-class: the same heuristic under Theorem 5
// ---------------------------------------------------------------------------

/// The multi-class heuristic with default options, written out plainly:
/// pairs by class, then decreasing hop distance, then (src, dst); acyclic
/// candidates first; every candidate probed without a cutoff; the
/// strictly smallest delay wins.
MulticlassSelectionResult reference_multiclass(
    const net::ServerGraph& graph, const traffic::ClassSet& classes,
    const std::vector<traffic::Demand>& demands) {
  const net::Topology& topo = graph.topology();
  MulticlassSelectionResult result;
  result.routes.assign(demands.size(), {});
  result.server_routes.assign(demands.size(), {});
  analysis::MulticlassEngine engine(graph, classes);
  engine.solve();

  const auto hops = net::all_pairs_hops(topo);
  std::vector<std::size_t> order(demands.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                   std::size_t b) {
    const traffic::Demand& x = demands[a];
    const traffic::Demand& y = demands[b];
    if (x.class_index != y.class_index) return x.class_index < y.class_index;
    const int hx = hops[x.src][x.dst], hy = hops[y.src][y.dst];
    if (hx != hy) return hx > hy;
    return std::pair(x.src, x.dst) < std::pair(y.src, y.dst);
  });

  RouteDependencyGraph dependency(graph.size());
  for (const std::size_t d : order) {
    const auto paths = net::k_shortest_paths(topo, demands[d].src,
                                             demands[d].dst, kCandidates);
    std::vector<net::ServerPath> servers;
    std::vector<std::size_t> preferred, fallback;
    for (std::size_t c = 0; c < paths.size(); ++c) {
      servers.push_back(graph.map_path(paths[c]));
      (dependency.stays_acyclic(servers[c]) ? preferred : fallback)
          .push_back(c);
    }
    using Best = std::optional<std::pair<std::size_t, analysis::RouteProbe>>;
    const auto best_of = [&](const std::vector<std::size_t>& group) {
      Best best;
      for (const std::size_t c : group) {
        analysis::RouteProbe probe = engine.probe_route(demands[d], servers[c]);
        if (probe.safe() &&
            (!best || probe.route_delay < best->second.route_delay))
          best.emplace(c, std::move(probe));
      }
      return best;
    };
    Best best = best_of(preferred);
    if (!best) best = best_of(fallback);
    if (!best) {
      result.failed_demand = d;
      return result;
    }
    const auto& [c, probe] = *best;
    result.routes[d] = paths[c];
    result.server_routes[d] = servers[c];
    dependency.add_route(servers[c]);
    engine.commit_probe(demands[d], servers[c], probe);
  }
  result.solution =
      analysis::solve_multiclass(graph, classes, demands, result.server_routes);
  result.success = result.solution.safe();
  return result;
}

/// Every ordered MCI pair once per real-time class of `templates`: the
/// heuristic and the reference at the share scale the search finds and
/// just above it, where the selection fails.
void expect_multiclass_matches_reference(
    const std::vector<ClassTemplate>& templates) {
  const auto topo = net::mci_backbone();
  const net::ServerGraph graph(topo, 6u);
  std::vector<traffic::Demand> demands;
  for (const traffic::Demand& d : traffic::all_ordered_pairs(topo))
    for (std::size_t c = 0; c < templates.size(); ++c)
      demands.push_back({d.src, d.dst, c});
  const auto search =
      maximize_share_scale(graph, templates, demands, 0.5, 0.005);
  ASSERT_TRUE(search.any_feasible);
  int failures = 0;
  for (const double offset : {0.0, 0.005, 0.05}) {
    const double scale = search.max_scale + offset;
    SCOPED_TRACE(::testing::Message() << "scale=" << scale);
    const auto classes = scaled_class_set(templates, scale);
    const auto real = select_routes_multiclass(graph, classes, demands);
    const auto reference = reference_multiclass(graph, classes, demands);
    EXPECT_EQ(real.success, reference.success);
    EXPECT_EQ(real.failed_demand, reference.failed_demand);
    EXPECT_EQ(real.routes, reference.routes);
    EXPECT_EQ(real.server_routes, reference.server_routes);
    EXPECT_EQ(real.solution.status, reference.solution.status);
    EXPECT_EQ(real.solution.class_server_delay,
              reference.solution.class_server_delay);
    EXPECT_EQ(real.solution.route_delay, reference.solution.route_delay);
    failures += real.success ? 0 : 1;
  }
  EXPECT_GT(failures, 0);
}

const ClassTemplate kVoiceTemplate{"voice", kVoice, kDeadline, 1.0};
const ClassTemplate kVideoTemplate{"video",
                                   traffic::LeakyBucket(16000.0,
                                                        units::mbps(1)),
                                   units::milliseconds(200), 1.0};

TEST(SelectionEquivalence, MulticlassMatchesProbeEverythingReferenceTwoClasses) {
  expect_multiclass_matches_reference({kVoiceTemplate, kVideoTemplate});
}

TEST(SelectionEquivalence,
     MulticlassMatchesProbeEverythingReferenceThreeClasses) {
  expect_multiclass_matches_reference(
      {kVoiceTemplate, kVideoTemplate,
       {"data", traffic::LeakyBucket(4000.0, units::kbps(256)),
        units::milliseconds(150), 0.5}});
}

}  // namespace
}  // namespace ubac::routing
