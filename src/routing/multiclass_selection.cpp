#include "routing/multiclass_selection.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "analysis/engine.hpp"
#include "net/ksp.hpp"
#include "net/shortest_path.hpp"
#include "routing/cycle_check.hpp"
#include "util/log.hpp"

namespace ubac::routing {

MulticlassSelectionResult select_routes_multiclass(
    const net::ServerGraph& graph, const traffic::ClassSet& classes,
    const std::vector<traffic::Demand>& demands,
    const HeuristicOptions& options) {
  const net::Topology& topo = graph.topology();
  if (options.candidates_per_pair == 0)
    throw std::invalid_argument("multiclass: candidates_per_pair >= 1");
  for (const auto& d : demands) {
    topo.check_node(d.src);
    topo.check_node(d.dst);
    if (d.src == d.dst)
      throw std::invalid_argument("multiclass: demand with src == dst");
    if (d.class_index >= classes.size() ||
        !classes.at(d.class_index).realtime)
      throw std::invalid_argument("multiclass: demand class must be realtime");
  }

  MulticlassSelectionResult result;
  result.routes.assign(demands.size(), {});
  result.server_routes.assign(demands.size(), {});

  // Order: higher priority class first, then decreasing distance.
  std::vector<std::size_t> order(demands.size());
  std::iota(order.begin(), order.end(), 0);
  const auto hops = net::all_pairs_hops(topo);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                   std::size_t b) {
    if (demands[a].class_index != demands[b].class_index)
      return demands[a].class_index < demands[b].class_index;
    if (!options.order_by_distance) return false;
    const int da = hops[demands[a].src][demands[a].dst];
    const int db = hops[demands[b].src][demands[b].dst];
    if (da != db) return da > db;
    if (demands[a].src != demands[b].src) return demands[a].src < demands[b].src;
    return demands[a].dst < demands[b].dst;
  });

  RouteDependencyGraph dependency(graph.size());
  // Incremental engine over the committed multi-class set; candidates are
  // probed against it (and in parallel on the pool) instead of cold
  // re-solving every committed route.
  analysis::MulticlassEngine engine(graph, classes, options.fixed_point);
  engine.solve();

  for (const std::size_t demand_index : order) {
    const traffic::Demand& demand = demands[demand_index];
    const auto candidates = net::k_shortest_paths(
        topo, demand.src, demand.dst, options.candidates_per_pair);
    if (candidates.empty()) {
      result.failed_demand = demand_index;
      return result;
    }

    std::vector<const net::NodePath*> preferred, fallback;
    std::vector<net::ServerPath> candidate_servers(candidates.size());
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      candidate_servers[c] = graph.map_path(candidates[c]);
      const bool acyclic = !options.prefer_acyclic ||
                           dependency.stays_acyclic(candidate_servers[c]);
      (acyclic ? preferred : fallback).push_back(&candidates[c]);
    }

    struct Best {
      std::size_t candidate = 0;
      Seconds own_delay = 0.0;
      analysis::RouteProbe probe;
      bool found = false;
    };
    // Rule (3): the smallest own delay wins (the first on a tie); with
    // the rule off, the first feasible candidate.
    auto try_group = [&](const std::vector<const net::NodePath*>& group) {
      Best best;
      for (const net::NodePath* path : group) {
        const auto c = static_cast<std::size_t>(path - candidates.data());
        analysis::RouteProbe probe =
            engine.probe_route(demand, candidate_servers[c]);
        if (!probe.safe()) continue;
        if (!best.found || probe.route_delay < best.own_delay) {
          best.found = true;
          best.candidate = c;
          best.own_delay = probe.route_delay;
          best.probe = std::move(probe);
        }
        if (!options.pick_min_delay) break;
      }
      return best;
    };

    Best best = try_group(preferred);
    if (!best.found && options.prefer_acyclic) best = try_group(fallback);
    if (!best.found) {
      result.failed_demand = demand_index;
      return result;
    }
    result.routes[demand_index] = candidates[best.candidate];
    result.server_routes[demand_index] = candidate_servers[best.candidate];
    dependency.add_route(candidate_servers[best.candidate]);
    engine.commit_probe(demand, candidate_servers[best.candidate], best.probe);
  }

  // Final cold verification, route delays in input-demand order.
  result.solution = analysis::solve_multiclass(
      graph, classes, demands, result.server_routes, options.fixed_point);
  result.success = result.solution.safe();
  return result;
}

traffic::ClassSet scaled_class_set(const std::vector<ClassTemplate>& templates,
                                   double scale) {
  if (templates.empty())
    throw std::invalid_argument("scaled_class_set: no classes");
  traffic::ClassSet classes;
  for (const auto& t : templates)
    classes.add(traffic::ServiceClass(t.name, t.bucket, t.deadline,
                                      t.weight * scale, true));
  classes.add(traffic::ServiceClass("best-effort",
                                    traffic::LeakyBucket(1.0, 1.0), 0.0, 0.0,
                                    false));
  return classes;
}

ShareScaleResult maximize_share_scale(
    const net::ServerGraph& graph,
    const std::vector<ClassTemplate>& templates,
    const std::vector<traffic::Demand>& demands, double scale_hi,
    double resolution, const HeuristicOptions& options) {
  if (scale_hi <= 0.0 || resolution <= 0.0)
    throw std::invalid_argument("maximize_share_scale: bad search params");
  double weight_total = 0.0;
  for (const auto& t : templates) weight_total += t.weight;
  if (weight_total <= 0.0)
    throw std::invalid_argument("maximize_share_scale: zero weights");
  // Clamp so every probe builds a valid ClassSet (total share < 1).
  scale_hi = std::min(scale_hi, 0.999 / weight_total);

  ShareScaleResult result;
  double lo = 0.0, hi = scale_hi;
  auto probe = [&](double scale) {
    ++result.probes;
    return select_routes_multiclass(graph, scaled_class_set(templates, scale),
                                    demands, options);
  };
  while (hi - lo > resolution) {
    const double mid = 0.5 * (lo + hi);
    MulticlassSelectionResult r = probe(mid);
    if (r.success) {
      lo = mid;
      result.any_feasible = true;
      result.max_scale = mid;
      result.best = std::move(r);
    } else {
      hi = mid;
    }
  }
  return result;
}

}  // namespace ubac::routing
