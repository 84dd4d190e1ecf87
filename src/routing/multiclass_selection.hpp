#pragma once

/// \file multiclass_selection.hpp
/// \brief Multi-class variants of the Section 5.2/5.3 algorithms.
///
/// Section 5.4 closes by noting that "variations of the algorithms derived
/// in Sections 5.2 and 5.3 can then be used to select safe routes and to
/// either maximize utilization assignments or trade-off utilization
/// assignments of classes against each other." This module implements
/// those variations:
///
///  * select_routes_multiclass — the Section 5.2 heuristic itself
///    (route_selection.cpp: the same candidate set, pruning, cut-off
///    probes and engine) with MulticlassEngine, i.e. Theorem 5
///    verification: demands of all real-time classes are routed together,
///    higher-priority class first, then by decreasing distance;
///  * maximize_share_scale — binary search on a common scale factor
///    applied to a vector of per-class share weights, the multi-class
///    analogue of maximizing alpha. It builds the candidate set once and
///    shares it across every probe.

#include <string>
#include <vector>

#include "analysis/multiclass.hpp"
#include "net/server_graph.hpp"
#include "routing/route_selection.hpp"
#include "traffic/service_class.hpp"

namespace ubac::routing {

using MulticlassSelectionResult = SelectionResult<analysis::MulticlassSolution>;

/// Section 5.2 heuristic with Theorem 5 verification. Demands may belong
/// to any real-time class of `classes`. Rules and options are the same as
/// the two-class heuristic's; pairs are processed higher-priority class
/// first, then in the two-class order.
MulticlassSelectionResult select_routes_multiclass(
    const net::ServerGraph& graph, const traffic::ClassSet& classes,
    const std::vector<traffic::Demand>& demands,
    const HeuristicOptions& options = {});

/// One real-time class in a share-scaling template: `weight` is its share
/// at scale 1.0.
struct ClassTemplate {
  std::string name;
  traffic::LeakyBucket bucket;
  Seconds deadline;
  double weight;
};

/// Build a ClassSet with shares scale*weight (plus a best-effort tail).
/// Throws if any scaled share leaves (0,1) or the total reaches 1.
traffic::ClassSet scaled_class_set(const std::vector<ClassTemplate>& templates,
                                   double scale);

struct ShareScaleResult {
  bool any_feasible = false;
  double max_scale = 0.0;
  MulticlassSelectionResult best;  ///< routes at max_scale
  int probes = 0;
};

/// Maximize the common scale of the class-share template such that
/// multi-class safe route selection succeeds (binary search to
/// `resolution`, seeded with [0, scale_hi]).
ShareScaleResult maximize_share_scale(
    const net::ServerGraph& graph,
    const std::vector<ClassTemplate>& templates,
    const std::vector<traffic::Demand>& demands, double scale_hi,
    double resolution = 0.01, const HeuristicOptions& options = {});

}  // namespace ubac::routing
