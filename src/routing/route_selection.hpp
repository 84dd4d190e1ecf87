#pragma once

/// \file route_selection.hpp
/// \brief Safe route selection: SP baseline and the Section 5.2 heuristic.
///
/// Safe route selection — one route per demand such that every route's
/// end-to-end delay bound meets the class deadline at a given utilization
/// — is NP-hard (reduction from Maximum Fixed-Length Disjoint Paths). The
/// paper's polynomial heuristic:
///   (1) process source/destination pairs in decreasing order of
///       shortest-path distance;
///   (2) among the candidate routes of a pair, prefer those that keep the
///       route dependency graph acyclic;
///   (3) among surviving candidates, pick the one whose own end-to-end
///       delay bound is smallest (after re-verifying all committed
///       routes);
/// with no backtracking: the first pair with no safe candidate fails the
/// whole selection. Every rule is individually switchable for the
/// ablation bench.

#include <atomic>
#include <cstddef>
#include <limits>
#include <vector>

#include "analysis/fixed_point.hpp"
#include "net/server_graph.hpp"
#include "traffic/flow.hpp"
#include "traffic/leaky_bucket.hpp"

namespace ubac::routing {

struct HeuristicOptions {
  std::size_t candidates_per_pair = 8;  ///< k of k-shortest-paths
  bool order_by_distance = true;        ///< heuristic rule (1)
  bool prefer_acyclic = true;           ///< heuristic rule (2)
  bool pick_min_delay = true;           ///< rule (3); false = first feasible
  /// Candidates traversing any of these servers are discarded (used for
  /// rerouting around failed links during reconfiguration).
  std::vector<net::ServerId> forbidden_servers;
  /// When non-zero, demands of equal shortest-path distance are processed
  /// in a seed-dependent random order instead of (src, dst) order. The
  /// no-backtrack search is sensitive to tie order; randomized restarts
  /// over this seed recover some of what backtracking would.
  std::uint64_t order_jitter_seed = 0;
  analysis::FixedPointOptions fixed_point;
  /// Optional precomputed k-shortest-path candidate lists, aligned with
  /// the demand vector; nullptr computes them. Candidates are
  /// alpha-independent, so maximize_utilization_heuristic builds them and
  /// their link-server mapping once per search and shares that across
  /// every probe. Candidates through forbidden_servers are skipped.
  const std::vector<std::vector<net::NodePath>>* candidates = nullptr;
};

inline constexpr std::size_t kNoFailedDemand =
    std::numeric_limits<std::size_t>::max();

/// One route per demand and the verification of the committed set, for
/// either delay model (RouteSelectionResult: Theorem 3;
/// MulticlassSelectionResult: Theorem 5).
template <typename Solution>
struct SelectionResult {
  bool success = false;
  /// Routes aligned with the input demand order (empty paths when failed).
  std::vector<net::NodePath> routes;
  std::vector<net::ServerPath> server_routes;
  /// Index (into the input demands) of the first pair with no safe route.
  std::size_t failed_demand = kNoFailedDemand;
  /// Delay solution for the committed route set (valid when success).
  Solution solution;
};

using RouteSelectionResult = SelectionResult<analysis::DelaySolution>;

/// Shortest-path baseline: route every demand on its hop-count shortest
/// path, then verify the whole set at `alpha`.
RouteSelectionResult select_routes_shortest_path(
    const net::ServerGraph& graph, double alpha,
    const traffic::LeakyBucket& bucket, Seconds deadline,
    const std::vector<traffic::Demand>& demands,
    const analysis::FixedPointOptions& options = {});

/// The Section 5.2 heuristic at a fixed utilization `alpha`.
RouteSelectionResult select_routes_heuristic(
    const net::ServerGraph& graph, double alpha,
    const traffic::LeakyBucket& bucket, Seconds deadline,
    const std::vector<traffic::Demand>& demands,
    const HeuristicOptions& options = {});

/// Randomized-restart wrapper: run the heuristic with `restarts`
/// different tie-order seeds and return the first success (or the last
/// failure). Restores some robustness of backtracking search at
/// `restarts` times the cost; the ablation bench quantifies the gain.
RouteSelectionResult select_routes_heuristic_restarts(
    const net::ServerGraph& graph, double alpha,
    const traffic::LeakyBucket& bucket, Seconds deadline,
    const std::vector<traffic::Demand>& demands, int restarts,
    const HeuristicOptions& options = {});

/// Incremental variant for SLA renegotiation: `pinned` routes (already
/// promised to existing traffic) are kept verbatim; only `new_demands`
/// are routed, each candidate verified against the combined set. The
/// result's routes/server_routes cover only the new demands, aligned with
/// `new_demands`; its solution covers pinned + new routes in that order.
RouteSelectionResult select_routes_heuristic_incremental(
    const net::ServerGraph& graph, double alpha,
    const traffic::LeakyBucket& bucket, Seconds deadline,
    const std::vector<net::ServerPath>& pinned,
    const std::vector<traffic::Demand>& new_demands,
    const HeuristicOptions& options = {});

namespace detail {

/// Cooperative cancellation of speculative selector runs. The alpha search
/// (max_util_search.hpp) installs a stop flag on each helper run and
/// raises it once the run's alpha leaves the live search interval. The
/// heuristic polls stop_requested() once per demand and then gives up with
/// a failed result, which the search never reads.
bool stop_requested();

/// Installs `flag` (nullptr: none) as the calling thread's stop flag.
void set_stop_flag(const std::atomic<bool>* flag);

}  // namespace detail

}  // namespace ubac::routing
