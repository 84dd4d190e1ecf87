#pragma once

/// \file max_util_search.hpp
/// \brief Maximizing utilization by safe route selection (Section 5.3).
///
/// Binary search on the assigned utilization alpha, initialized with the
/// Theorem 4 bounds. Each probe runs a route selector (the Section 5.2
/// heuristic, or the SP baseline) and keeps the upper/lower half of the
/// interval depending on feasibility. The search stops when the interval
/// shrinks below `resolution`.
///
/// The search is speculative: while the calling thread runs the selector
/// at the midpoint, up to two helper threads run it at both midpoints the
/// next step can reach (one per outcome). The steps are still consumed in
/// the sequential order — the reuse fast path first, then the selector
/// result — so the outcome is identical to the sequential search; runs at
/// an alpha the search can no longer reach are cancelled (see
/// detail::stop_requested). Selectors must therefore be safe to call
/// concurrently at different alphas.

#include <functional>

#include "analysis/bounds.hpp"
#include "routing/route_selection.hpp"

namespace ubac::routing {

/// A route selector probed at a given utilization.
using RouteSelector =
    std::function<RouteSelectionResult(double alpha)>;

/// Re-verifies an already selected route set at a (higher) utilization,
/// warm-started from the delays it carries. Used by the binary search as a
/// fast path: when the routes found at alpha_lo stay feasible at alpha_mid
/// the full selector run is skipped.
using RouteReverifier = std::function<analysis::DelaySolution(
    double alpha, const RouteSelectionResult& last)>;

struct MaxUtilOptions {
  double resolution = 0.005;  ///< paper reports two significant digits
  /// Search-interval override; when negative, Theorem 4 bounds are used.
  double search_lo = -1.0;
  double search_hi = -1.0;
  /// Fast path: before running the selector at alpha_mid, re-verify the
  /// last feasible route set there (sound — a feasible set is a witness
  /// regardless of how it was found; the result can only improve). Only
  /// effective when a reverifier is available.
  bool reuse_feasible_routes = true;
  /// Optional sink for search counters
  /// (ubac_maxutil_{probes,reverify_hits}_total); nullptr costs nothing.
  telemetry::MetricsRegistry* metrics = nullptr;
};

struct MaxUtilResult {
  double max_alpha = 0.0;           ///< largest alpha found feasible
  bool any_feasible = false;        ///< false when even the low end failed
  RouteSelectionResult best;        ///< routes at max_alpha
  int probes = 0;                   ///< selector invocations
  int reverify_hits = 0;            ///< selector runs skipped by reuse
  double theorem4_lower = 0.0;      ///< bounds used to seed the search
  double theorem4_upper = 0.0;
};

/// Maximize alpha for an arbitrary selector. `fan_in` and `diameter` seed
/// the Theorem 4 interval. `reverifier` (optional) enables the
/// reuse_feasible_routes fast path. Speculates on two helper threads when
/// the host has at least three hardware threads, else runs sequentially.
MaxUtilResult maximize_utilization(double fan_in, int diameter,
                                   const traffic::LeakyBucket& bucket,
                                   Seconds deadline,
                                   const RouteSelector& selector,
                                   const MaxUtilOptions& options = {},
                                   const RouteReverifier& reverifier = {});

namespace detail {

/// The same search with an explicit number of helper threads (0 is the
/// sequential search; at most 2 are used). The result does not depend on
/// `helpers`.
MaxUtilResult maximize_utilization(double fan_in, int diameter,
                                   const traffic::LeakyBucket& bucket,
                                   Seconds deadline,
                                   const RouteSelector& selector,
                                   const MaxUtilOptions& options,
                                   const RouteReverifier& reverifier,
                                   int helpers);

}  // namespace detail

/// Convenience wrappers for the two selectors compared in Table 1. The
/// heuristic's search builds its candidate set on the calling thread and
/// the helper threads it then speculates on.
MaxUtilResult maximize_utilization_heuristic(
    const net::ServerGraph& graph, const traffic::LeakyBucket& bucket,
    Seconds deadline, const std::vector<traffic::Demand>& demands,
    const HeuristicOptions& heuristic = {},
    const MaxUtilOptions& options = {});

MaxUtilResult maximize_utilization_shortest_path(
    const net::ServerGraph& graph, const traffic::LeakyBucket& bucket,
    Seconds deadline, const std::vector<traffic::Demand>& demands,
    const analysis::FixedPointOptions& fixed_point = {},
    const MaxUtilOptions& options = {});

}  // namespace ubac::routing
