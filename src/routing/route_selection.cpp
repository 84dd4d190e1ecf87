#include "routing/route_selection.hpp"

#include <algorithm>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "analysis/engine.hpp"
#include "net/shortest_path.hpp"
#include "routing/candidate_set.hpp"
#include "routing/cycle_check.hpp"
#include "telemetry/span.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace ubac::routing {

namespace {

thread_local const std::atomic<bool>* t_stop = nullptr;

void check_demands(const net::Topology& topo,
                   const std::vector<traffic::Demand>& demands) {
  for (const auto& d : demands) {
    topo.check_node(d.src);
    topo.check_node(d.dst);
    if (d.src == d.dst)
      throw std::invalid_argument("route selection: demand with src == dst");
  }
}

/// Shared core of the Section 5.2 heuristic under either delay model:
/// route `demands` one by one on `engine`, never disturbing `pinned`
/// routes (class 0; only the two-class renegotiation pins any).
/// Candidates come from `shared` when given (a search builds them once),
/// else are built here. `verify` re-solves the committed routes of
/// `demands` cold. Returns routes aligned with `demands`.
template <typename Engine, typename Verify>
SelectionResult<typename Engine::Solution> heuristic_core(
    Engine& engine, const std::vector<net::ServerPath>& pinned,
    const std::vector<traffic::Demand>& demands,
    const HeuristicOptions& options, const detail::CandidateSet* shared,
    const Verify& verify) {
  const net::ServerGraph& graph = engine.graph();
  const net::Topology& topo = graph.topology();
  check_demands(topo, demands);
  // The engine's class of each demand: 0 throughout under Theorem 3.
  std::vector<std::size_t> cls(demands.size());
  for (std::size_t d = 0; d < demands.size(); ++d)
    cls[d] = engine.class_of(demands[d]);
  std::optional<detail::CandidateSet> own;
  const detail::CandidateSet& candidates =
      shared != nullptr
          ? *shared
          : own.emplace(graph, demands, options.candidates_per_pair,
                        options.candidates);

  SelectionResult<typename Engine::Solution> result;
  result.routes.assign(demands.size(), {});
  result.server_routes.assign(demands.size(), {});

  // The engine owns the committed scenario: pinned routes first, then the
  // winner of every pair. Candidate evaluations are incremental probes
  // against it instead of cold re-solves of the whole set.
  for (const auto& route : pinned) engine.add(0, route);

  // The pinned set must itself be feasible before we extend it (this
  // first solve is the engine's cold baseline either way).
  const auto& pinned_solution = engine.solve();
  if (!pinned_solution.safe()) {
    result.solution = pinned_solution;
    return result;
  }

  // Rule (1), class by class in priority order: pairs by decreasing
  // shortest-path distance, then (src, dst). A non-zero jitter seed
  // randomizes the order among equal distances (restart support); the
  // sort key then drops the (src, dst) tiebreak.
  std::vector<std::size_t> order(demands.size());
  std::iota(order.begin(), order.end(), 0);
  if (options.order_jitter_seed != 0) {
    util::Xoshiro256 rng(options.order_jitter_seed);
    rng.shuffle(order);
  }
  const auto hops = options.order_by_distance
                        ? net::all_pairs_hops(topo)
                        : std::vector<std::vector<int>>{};
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                   std::size_t b) {
    if (cls[a] != cls[b]) return cls[a] < cls[b];
    if (!options.order_by_distance) return false;
    const int da = hops[demands[a].src][demands[a].dst];
    const int db = hops[demands[b].src][demands[b].dst];
    if (da != db) return da > db;
    if (options.order_jitter_seed != 0) return false;  // keep shuffle
    if (demands[a].src != demands[b].src) return demands[a].src < demands[b].src;
    return demands[a].dst < demands[b].dst;
  });

  RouteDependencyGraph dependency(graph.size());
  for (const auto& route : pinned) dependency.add_route(route);

  const auto forbidden = [&](net::ServerId s) {
    return std::find(options.forbidden_servers.begin(),
                     options.forbidden_servers.end(),
                     s) != options.forbidden_servers.end();
  };
  std::vector<std::size_t> preferred, fallback;
  for (std::size_t rank = 0; rank < order.size(); ++rank) {
    const std::size_t demand_index = order[rank];
    const traffic::Demand& demand = demands[demand_index];
    const std::size_t demand_class = cls[demand_index];
    // A cancelled speculative run gives up here; nobody reads its result.
    if (detail::stop_requested()) {
      result.failed_demand = demand_index;
      return result;
    }
    UBAC_SPAN_ARG("route.select_pair", "routing", "demand", demand_index);
    const auto servers_of = [&](std::size_t c) {
      return candidates.servers(demand_index, c);
    };

    // Candidates through a forbidden server are skipped; rule (2): try
    // acyclicity-preserving candidates first.
    preferred.clear();
    fallback.clear();
    for (std::size_t c = 0; c < candidates.count(demand_index); ++c) {
      const auto servers = servers_of(c);
      if (std::any_of(servers.begin(), servers.end(), forbidden)) continue;
      const bool acyclic =
          !options.prefer_acyclic || dependency.stays_acyclic(servers);
      (acyclic ? preferred : fallback).push_back(c);
    }
    if (preferred.empty() && fallback.empty()) {
      result.failed_demand = demand_index;
      return result;
    }

    struct Best {
      std::size_t candidate = 0;
      Seconds own_delay = 0.0;
      analysis::RouteProbe probe;
      bool found = false;
    };

    // Score a group of candidates against the committed set.
    auto try_group = [&](const std::vector<std::size_t>& group) {
      Best best;
      if (options.pick_min_delay) {
        // Min-delay with sound pruning: the committed delays are a lower
        // bound of a candidate's converged delay, so once its bound reaches
        // the best's *converged* delay it cannot win the strict
        // comparison. The same argument cuts a probe off once one of its
        // sweeps reaches that delay. Same winner as probing everything.
        for (const std::size_t c : group) {
          if (best.found &&
              engine.committed_sum(demand_class, servers_of(c)) >=
                  best.own_delay)
            continue;
          analysis::RouteProbe probe = engine.probe(
              demand_class, servers_of(c),
              best.found ? best.own_delay
                         : std::numeric_limits<Seconds>::infinity());
          if (!probe.safe()) continue;
          if (!best.found || probe.route_delay < best.own_delay) {
            best.found = true;
            best.candidate = c;
            best.own_delay = probe.route_delay;
            best.probe = std::move(probe);
          }
        }
      } else {
        // Rule (3) off => the first feasible candidate wins; stop probing
        // at the first success.
        for (const std::size_t c : group) {
          analysis::RouteProbe probe =
              engine.probe(demand_class, servers_of(c));
          if (!probe.safe()) continue;
          best.found = true;
          best.candidate = c;
          best.own_delay = probe.route_delay;
          best.probe = std::move(probe);
          break;
        }
      }
      return best;
    };

    Best best = try_group(preferred);
    if (!best.found && options.prefer_acyclic) best = try_group(fallback);
    if (!best.found) {
      // No backtracking: declare failure (Section 5.2).
      result.failed_demand = demand_index;
      UBAC_LOG_DEBUG << "heuristic: no safe route for demand " << demand_index
                     << " (" << topo.node_name(demand.src) << "->"
                     << topo.node_name(demand.dst) << ")";
      return result;
    }

    const auto nodes = candidates.nodes(demand_index, best.candidate);
    const auto servers = servers_of(best.candidate);
    result.routes[demand_index].assign(nodes.begin(), nodes.end());
    result.server_routes[demand_index].assign(servers.begin(), servers.end());
    dependency.add_route(result.server_routes[demand_index]);
    engine.commit(demand_class, servers, best.probe);
  }

  // Final cold verification of the committed set.
  UBAC_SPAN_ARG("route.final_verify", "routing", "routes",
                pinned.size() + result.server_routes.size());
  result.solution = verify(result.server_routes);
  result.success = result.solution.safe();
  if (!result.success) {
    // Should not happen (cold solve of the same set the warm solves
    // accepted); surface loudly if it ever does.
    UBAC_LOG_WARN << "heuristic: committed set failed final verification";
  }
  return result;
}

/// The heuristic under Theorem 3 at `alpha`; the final verification
/// covers pinned + new routes in that order.
RouteSelectionResult two_class_heuristic(
    const net::ServerGraph& graph, double alpha,
    const traffic::LeakyBucket& bucket, Seconds deadline,
    const std::vector<net::ServerPath>& pinned,
    const std::vector<traffic::Demand>& demands,
    const HeuristicOptions& options, const detail::CandidateSet* shared) {
  analysis::AnalysisEngine engine(graph, alpha, bucket, deadline,
                                  options.fixed_point);
  return heuristic_core(
      engine, pinned, demands, options, shared,
      [&](const std::vector<net::ServerPath>& routes) {
        if (pinned.empty())
          return analysis::solve_two_class(graph, alpha, bucket, deadline,
                                           routes, options.fixed_point);
        std::vector<net::ServerPath> all = pinned;
        all.insert(all.end(), routes.begin(), routes.end());
        return analysis::solve_two_class(graph, alpha, bucket, deadline, all,
                                         options.fixed_point);
      });
}

/// The heuristic under Theorem 5 for the shares of `classes`.
MulticlassSelectionResult multiclass_heuristic(
    const net::ServerGraph& graph, const traffic::ClassSet& classes,
    const std::vector<traffic::Demand>& demands,
    const HeuristicOptions& options, const detail::CandidateSet* shared) {
  analysis::MulticlassEngine engine(graph, classes, options.fixed_point);
  return heuristic_core(
      engine, {}, demands, options, shared,
      [&](const std::vector<net::ServerPath>& routes) {
        return analysis::solve_multiclass(graph, classes, demands, routes,
                                          options.fixed_point);
      });
}

}  // namespace

RouteSelectionResult select_routes_shortest_path(
    const net::ServerGraph& graph, double alpha,
    const traffic::LeakyBucket& bucket, Seconds deadline,
    const std::vector<traffic::Demand>& demands,
    const analysis::FixedPointOptions& options) {
  const net::Topology& topo = graph.topology();
  check_demands(topo, demands);

  RouteSelectionResult result;
  result.routes.reserve(demands.size());
  result.server_routes.reserve(demands.size());
  for (const auto& d : demands) {
    auto path = net::shortest_path(topo, d.src, d.dst);
    if (!path) {
      result.failed_demand = static_cast<std::size_t>(&d - demands.data());
      return result;
    }
    result.routes.push_back(std::move(*path));
    result.server_routes.push_back(graph.map_path(result.routes.back()));
  }
  result.solution = analysis::solve_two_class(graph, alpha, bucket, deadline,
                                              result.server_routes, options);
  result.success = result.solution.safe();
  return result;
}

RouteSelectionResult select_routes_heuristic(
    const net::ServerGraph& graph, double alpha,
    const traffic::LeakyBucket& bucket, Seconds deadline,
    const std::vector<traffic::Demand>& demands,
    const HeuristicOptions& options) {
  return two_class_heuristic(graph, alpha, bucket, deadline, {}, demands,
                             options, nullptr);
}

RouteSelectionResult select_routes_heuristic_restarts(
    const net::ServerGraph& graph, double alpha,
    const traffic::LeakyBucket& bucket, Seconds deadline,
    const std::vector<traffic::Demand>& demands, int restarts,
    const HeuristicOptions& options) {
  if (restarts < 1)
    throw std::invalid_argument("heuristic restarts: need >= 1");
  RouteSelectionResult last;
  for (int r = 0; r < restarts; ++r) {
    HeuristicOptions attempt = options;
    // Restart 0 keeps the caller's (usually deterministic) order.
    if (r > 0) attempt.order_jitter_seed = options.order_jitter_seed + r;
    last = two_class_heuristic(graph, alpha, bucket, deadline, {}, demands,
                               attempt, nullptr);
    if (last.success) return last;
  }
  return last;
}

RouteSelectionResult select_routes_heuristic_incremental(
    const net::ServerGraph& graph, double alpha,
    const traffic::LeakyBucket& bucket, Seconds deadline,
    const std::vector<net::ServerPath>& pinned,
    const std::vector<traffic::Demand>& new_demands,
    const HeuristicOptions& options) {
  return two_class_heuristic(graph, alpha, bucket, deadline, pinned,
                             new_demands, options, nullptr);
}

RouteSelectionResult detail::select_routes_heuristic(
    const net::ServerGraph& graph, double alpha,
    const traffic::LeakyBucket& bucket, Seconds deadline,
    const std::vector<traffic::Demand>& demands,
    const HeuristicOptions& options, const CandidateSet& candidates) {
  return two_class_heuristic(graph, alpha, bucket, deadline, {}, demands,
                             options, &candidates);
}

MulticlassSelectionResult select_routes_multiclass(
    const net::ServerGraph& graph, const traffic::ClassSet& classes,
    const std::vector<traffic::Demand>& demands,
    const HeuristicOptions& options) {
  return multiclass_heuristic(graph, classes, demands, options, nullptr);
}

MulticlassSelectionResult detail::select_routes_multiclass(
    const net::ServerGraph& graph, const traffic::ClassSet& classes,
    const std::vector<traffic::Demand>& demands,
    const HeuristicOptions& options, const CandidateSet& candidates) {
  return multiclass_heuristic(graph, classes, demands, options, &candidates);
}

bool detail::stop_requested() {
  return t_stop != nullptr && t_stop->load(std::memory_order_relaxed);
}

void detail::set_stop_flag(const std::atomic<bool>* flag) { t_stop = flag; }

}  // namespace ubac::routing
