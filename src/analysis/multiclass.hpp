#pragma once

/// \file multiclass.hpp
/// \brief Extension to multiple real-time classes (Section 5.4, Theorem 5).
///
/// With classes indexed in decreasing static priority, the worst-case
/// queueing delay of class i at server k is bounded by
///
///              sum_{l<=i} a_l (T_l/r_l + Y_{l,k})
///                + (sum_{l<=i} a_l - 1) * a_i (T_i/r_i + Y_{i,k}) / (N - a_i)
///   d_{i,k} = ---------------------------------------------------------------
///                          1 - sum_{l<i} a_l
///
/// (sums over *real-time* classes only). Equation 25 in the paper is
/// OCR-garbled; this reconstruction is chosen so that the single-real-time-
/// class case reduces exactly to Theorem 3 / Equation 10, and is validated
/// by tests. Y_{i,k} is class i's own upstream accumulation (Eq. 26), and
/// the whole system is again solved as a monotone fixed point.

#include <span>
#include <vector>

#include "analysis/fixed_point.hpp"
#include "net/server_graph.hpp"
#include "traffic/flow.hpp"
#include "traffic/service_class.hpp"

namespace ubac::analysis {

struct MulticlassSolution {
  FeasibilityStatus status = FeasibilityStatus::kNoConvergence;
  /// d[i][k]: delay bound of class i at server k (real-time classes only
  /// carry meaning; best-effort rows stay 0).
  std::vector<std::vector<Seconds>> class_server_delay;
  /// End-to-end bound per demand (aligned with the demand span).
  std::vector<Seconds> route_delay;
  int iterations = 0;

  bool safe() const { return status == FeasibilityStatus::kSafe; }
};

/// Closed-form Theorem 5 bound for one server given current upstream
/// delays per class (one entry per class of `classes`).
Seconds theorem5_delay(const traffic::ClassSet& classes, std::size_t class_index,
                       double fan_in,
                       std::span<const Seconds> upstream_per_class);
inline Seconds theorem5_delay(const traffic::ClassSet& classes,
                              std::size_t class_index, double fan_in,
                              const std::vector<Seconds>& upstream_per_class) {
  return theorem5_delay(classes, class_index, fan_in,
                        std::span<const Seconds>(upstream_per_class));
}

/// Solve the multi-class delay system over `demands`/`routes` (aligned
/// spans; routes at link-server granularity). Demands of best-effort
/// classes are rejected with std::invalid_argument — only real-time
/// classes have deadlines to verify.
///
/// `warm_start`, when given, must be a known lower bound of the least
/// fixed point — e.g. the class_server_delay of a solution for a subset
/// of these routes with the same class set (the same soundness argument
/// as the two-class solver).
MulticlassSolution solve_multiclass(
    const net::ServerGraph& graph, const traffic::ClassSet& classes,
    std::span<const traffic::Demand> demands,
    std::span<const net::ServerPath> routes,
    const FixedPointOptions& options = {},
    const std::vector<std::vector<Seconds>>* warm_start = nullptr);

}  // namespace ubac::analysis
