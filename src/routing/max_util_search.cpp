#include "routing/max_util_search.hpp"

#include <stdexcept>

#include "net/shortest_path.hpp"
#include "routing/candidate_set.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"
#include "util/log.hpp"

namespace ubac::routing {

MaxUtilResult maximize_utilization(double fan_in, int diameter,
                                   const traffic::LeakyBucket& bucket,
                                   Seconds deadline,
                                   const RouteSelector& selector,
                                   const MaxUtilOptions& options,
                                   const RouteReverifier& reverifier) {
  if (options.resolution <= 0.0)
    throw std::invalid_argument("maximize_utilization: bad resolution");

  telemetry::Counter* probes_metric = nullptr;
  telemetry::Counter* reverify_metric = nullptr;
  if (options.metrics != nullptr) {
    probes_metric = &options.metrics->counter(
        "ubac_maxutil_probes_total",
        "Route-selector invocations made by the max-utilization search");
    reverify_metric = &options.metrics->counter(
        "ubac_maxutil_reverify_hits_total",
        "Selector runs skipped because the last feasible route set "
        "re-verified at the probed alpha");
  }

  MaxUtilResult result;
  result.theorem4_lower =
      analysis::alpha_lower_bound(fan_in, diameter, bucket, deadline);
  result.theorem4_upper =
      analysis::alpha_upper_bound(fan_in, diameter, bucket, deadline);

  double lo = options.search_lo >= 0.0 ? options.search_lo
                                       : result.theorem4_lower;
  double hi = options.search_hi >= 0.0 ? options.search_hi
                                       : result.theorem4_upper;
  if (lo > hi) throw std::invalid_argument("maximize_utilization: lo > hi");

  auto probe = [&](double alpha) {
    UBAC_SPAN_ARG("maxutil.probe", "routing", "alpha", alpha);
    ++result.probes;
    if (probes_metric != nullptr) probes_metric->add();
    RouteSelectionResult r = selector(alpha);
    UBAC_LOG_DEBUG << "max-util probe alpha=" << alpha
                   << " -> " << (r.success ? "feasible" : "infeasible");
    return r;
  };

  // Fast path for the upward half-steps: the route set committed at
  // alpha_lo is a feasibility *witness* at alpha_mid whenever it
  // re-verifies there, so the (much more expensive) selector run can be
  // skipped. Warm-starting that re-verification from the alpha_lo delays
  // is sound because Z grows pointwise in alpha (fixed_point.hpp). When
  // the witness fails the selector still gets its full chance — it may
  // route differently at the higher alpha — so the search result can only
  // improve, never degrade.
  auto try_reuse = [&](double alpha) -> bool {
    if (!options.reuse_feasible_routes || !reverifier || !result.any_feasible)
      return false;
    UBAC_SPAN_ARG("maxutil.reverify", "routing", "alpha", alpha);
    analysis::DelaySolution sol = reverifier(alpha, result.best);
    if (!sol.safe()) return false;
    ++result.reverify_hits;
    if (reverify_metric != nullptr) reverify_metric->add();
    UBAC_LOG_DEBUG << "max-util probe alpha=" << alpha
                   << " -> feasible (reused route set)";
    result.best.solution = std::move(sol);
    return true;
  };

  // The Theorem 4 lower bound should always be feasible for selectors that
  // keep routes within the diameter; verify rather than assume, and fall
  // back to searching below it if needed.
  RouteSelectionResult at_lo = probe(lo);
  if (!at_lo.success) {
    UBAC_LOG_WARN << "selector infeasible at the Theorem 4 lower bound "
                  << lo << "; searching below it";
    hi = lo;
    lo = 0.0;
    result.any_feasible = false;
  } else {
    result.any_feasible = true;
    result.max_alpha = lo;
    result.best = std::move(at_lo);
  }

  while (hi - lo > options.resolution) {
    const double mid = 0.5 * (lo + hi);
    if (mid <= 0.0) break;
    if (try_reuse(mid)) {
      lo = mid;
      result.max_alpha = mid;
      continue;
    }
    RouteSelectionResult r = probe(mid);
    if (r.success) {
      lo = mid;
      result.any_feasible = true;
      result.max_alpha = mid;
      result.best = std::move(r);
    } else {
      hi = mid;
    }
  }
  return result;
}

namespace {

double uniform_fan_in(const net::ServerGraph& graph) {
  if (graph.size() == 0)
    throw std::invalid_argument("maximize_utilization: empty graph");
  return graph.server(0).fan_in;
}

}  // namespace

namespace {

/// Warm-started re-verification of a previously committed route set at a
/// higher alpha (sound lower bound: Z grows pointwise in alpha).
RouteReverifier make_reverifier(const net::ServerGraph& graph,
                                const traffic::LeakyBucket& bucket,
                                Seconds deadline,
                                const analysis::FixedPointOptions& fixed_point) {
  return [&graph, bucket, deadline, fixed_point](
             double alpha, const RouteSelectionResult& last) {
    const std::vector<Seconds>* warm =
        last.solution.safe() ? &last.solution.server_delay : nullptr;
    return analysis::solve_two_class(graph, alpha, bucket, deadline,
                                     last.server_routes, fixed_point, warm);
  };
}

}  // namespace

MaxUtilResult maximize_utilization_heuristic(
    const net::ServerGraph& graph, const traffic::LeakyBucket& bucket,
    Seconds deadline, const std::vector<traffic::Demand>& demands,
    const HeuristicOptions& heuristic, const MaxUtilOptions& options) {
  const int l = net::diameter(graph.topology());
  // Candidate routes depend only on the topology, not on alpha: build them
  // and their link-server mapping once and share them across every probe
  // of the binary search.
  const detail::CandidateSet candidates(
      graph, demands, heuristic.candidates_per_pair, heuristic.candidates);
  return maximize_utilization(
      uniform_fan_in(graph), l, bucket, deadline,
      [&](double alpha) {
        return detail::select_routes_heuristic(graph, alpha, bucket, deadline,
                                               demands, heuristic, candidates);
      },
      options,
      make_reverifier(graph, bucket, deadline, heuristic.fixed_point));
}

MaxUtilResult maximize_utilization_shortest_path(
    const net::ServerGraph& graph, const traffic::LeakyBucket& bucket,
    Seconds deadline, const std::vector<traffic::Demand>& demands,
    const analysis::FixedPointOptions& fixed_point,
    const MaxUtilOptions& options) {
  const int l = net::diameter(graph.topology());
  return maximize_utilization(
      uniform_fan_in(graph), l, bucket, deadline,
      [&](double alpha) {
        return select_routes_shortest_path(graph, alpha, bucket, deadline,
                                           demands, fixed_point);
      },
      options, make_reverifier(graph, bucket, deadline, fixed_point));
}

}  // namespace ubac::routing
