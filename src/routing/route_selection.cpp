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

/// Shared core of the Section 5.2 heuristic: route `demands` one by one,
/// never disturbing `pinned` routes. Candidates come from `shared` when
/// given (a search over alpha builds them once), else are built here.
/// Returns routes aligned with `demands`; the final solution covers
/// pinned + demands in that order.
RouteSelectionResult heuristic_core(
    const net::ServerGraph& graph, double alpha,
    const traffic::LeakyBucket& bucket, Seconds deadline,
    const std::vector<net::ServerPath>& pinned,
    const std::vector<traffic::Demand>& demands,
    const HeuristicOptions& options, const detail::CandidateSet* shared) {
  const net::Topology& topo = graph.topology();
  check_demands(topo, demands);
  std::optional<detail::CandidateSet> own;
  const detail::CandidateSet& candidates =
      shared != nullptr
          ? *shared
          : own.emplace(graph, demands, options.candidates_per_pair,
                        options.candidates);

  RouteSelectionResult result;
  result.routes.assign(demands.size(), {});
  result.server_routes.assign(demands.size(), {});

  // The engine owns the committed scenario: pinned routes first, then the
  // winner of every pair. Candidate evaluations are incremental probes
  // against it instead of cold re-solves of the whole set.
  analysis::AnalysisEngine engine(graph, alpha, bucket, deadline,
                                  options.fixed_point);
  for (const auto& route : pinned) engine.add_route(route);

  // The pinned set must itself be feasible at alpha before we extend it
  // (this first solve is the engine's cold baseline either way).
  const analysis::DelaySolution& pinned_solution = engine.solve();
  if (!pinned_solution.safe()) {
    result.solution = pinned_solution;
    return result;
  }

  // Rule (1): order pairs by decreasing shortest-path distance. A
  // non-zero jitter seed randomizes the order among equal distances
  // (restart support); the sort key then drops the (src, dst) tiebreak.
  std::vector<std::size_t> order(demands.size());
  std::iota(order.begin(), order.end(), 0);
  if (options.order_jitter_seed != 0) {
    util::Xoshiro256 rng(options.order_jitter_seed);
    rng.shuffle(order);
  }
  if (options.order_by_distance) {
    const auto hops = net::all_pairs_hops(topo);
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                     std::size_t b) {
      const int da = hops[demands[a].src][demands[a].dst];
      const int db = hops[demands[b].src][demands[b].dst];
      if (da != db) return da > db;
      if (options.order_jitter_seed != 0) return false;  // keep shuffle
      if (demands[a].src != demands[b].src) return demands[a].src < demands[b].src;
      return demands[a].dst < demands[b].dst;
    });
  }

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
        const std::vector<Seconds>& committed = engine.server_delays();
        for (const std::size_t c : group) {
          Seconds bound = 0.0;
          for (const net::ServerId s : servers_of(c)) bound += committed[s];
          if (best.found && bound >= best.own_delay) continue;
          analysis::RouteProbe probe = engine.probe_route(
              servers_of(c), best.found
                                 ? best.own_delay
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
          analysis::RouteProbe probe = engine.probe_route(servers_of(c));
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
                     << topo.node_name(demand.dst) << ") at alpha=" << alpha;
      return result;
    }

    const auto nodes = candidates.nodes(demand_index, best.candidate);
    const auto servers = servers_of(best.candidate);
    result.routes[demand_index].assign(nodes.begin(), nodes.end());
    result.server_routes[demand_index].assign(servers.begin(), servers.end());
    dependency.add_route(result.server_routes[demand_index]);
    engine.commit_probe(servers, best.probe);
  }

  // Final cold verification of the committed set (pinned first, then new
  // routes in input-demand order).
  UBAC_SPAN_ARG("route.final_verify", "routing", "routes",
                pinned.size() + result.server_routes.size());
  if (pinned.empty()) {
    result.solution = analysis::solve_two_class(
        graph, alpha, bucket, deadline, result.server_routes,
        options.fixed_point);
  } else {
    std::vector<net::ServerPath> all = pinned;
    all.insert(all.end(), result.server_routes.begin(),
               result.server_routes.end());
    result.solution = analysis::solve_two_class(graph, alpha, bucket, deadline,
                                                all, options.fixed_point);
  }
  result.success = result.solution.safe();
  if (!result.success) {
    // Should not happen (cold solve of the same set the warm solves
    // accepted); surface loudly if it ever does.
    UBAC_LOG_WARN << "heuristic: committed set failed final verification at "
                     "alpha=" << alpha;
  }
  return result;
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
  return heuristic_core(graph, alpha, bucket, deadline, {}, demands, options,
                        nullptr);
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
    last = heuristic_core(graph, alpha, bucket, deadline, {}, demands,
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
  return heuristic_core(graph, alpha, bucket, deadline, pinned, new_demands,
                        options, nullptr);
}

RouteSelectionResult detail::select_routes_heuristic(
    const net::ServerGraph& graph, double alpha,
    const traffic::LeakyBucket& bucket, Seconds deadline,
    const std::vector<traffic::Demand>& demands,
    const HeuristicOptions& options, const CandidateSet& candidates) {
  return heuristic_core(graph, alpha, bucket, deadline, {}, demands, options,
                        &candidates);
}

bool detail::stop_requested() {
  return t_stop != nullptr && t_stop->load(std::memory_order_relaxed);
}

void detail::set_stop_flag(const std::atomic<bool>* flag) { t_stop = flag; }

}  // namespace ubac::routing
