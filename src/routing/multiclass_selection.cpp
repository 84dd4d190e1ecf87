#include "routing/multiclass_selection.hpp"

#include <algorithm>
#include <stdexcept>

#include "routing/candidate_set.hpp"

namespace ubac::routing {

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

  // Candidates do not depend on the shares: build them once.
  const detail::CandidateSet candidates(graph, demands,
                                        options.candidates_per_pair,
                                        options.candidates);
  ShareScaleResult result;
  double lo = 0.0, hi = scale_hi;
  auto probe = [&](double scale) {
    ++result.probes;
    return detail::select_routes_multiclass(
        graph, scaled_class_set(templates, scale), demands, options,
        candidates);
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
