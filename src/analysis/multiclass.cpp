#include "analysis/multiclass.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ubac::analysis {

Seconds theorem5_delay(const traffic::ClassSet& classes,
                       std::size_t class_index, double fan_in,
                       std::span<const Seconds> upstream_per_class) {
  if (class_index >= classes.size())
    throw std::out_of_range("theorem5_delay: bad class index");
  const traffic::ServiceClass& cls = classes.at(class_index);
  if (!cls.realtime)
    throw std::invalid_argument("theorem5_delay: best-effort class");
  if (upstream_per_class.size() != classes.size())
    throw std::invalid_argument("theorem5_delay: upstream size mismatch");

  double cum_through_i = 0.0;  // sum_{l<=i} alpha_l over real-time classes
  double cum_below_i = 0.0;    // sum_{l<i} alpha_l
  double burst_terms = 0.0;    // sum_{l<=i} alpha_l (T_l/rho_l + Y_l)
  for (std::size_t l = 0; l <= class_index; ++l) {
    const traffic::ServiceClass& c = classes.at(l);
    if (!c.realtime) continue;
    cum_through_i += c.share;
    if (l < class_index) cum_below_i += c.share;
    burst_terms +=
        c.share * (c.bucket.burst / c.bucket.rate + upstream_per_class[l]);
  }
  if (cum_below_i >= 1.0)
    throw std::invalid_argument("theorem5_delay: higher classes saturate link");

  const double own_term = cls.share *
                          (cls.bucket.burst / cls.bucket.rate +
                           upstream_per_class[class_index]) /
                          (fan_in - cls.share);
  const double numerator = burst_terms + (cum_through_i - 1.0) * own_term;
  const Seconds d = numerator / (1.0 - cum_below_i);
  return std::max(0.0, d);
}

MulticlassSolution solve_multiclass(
    const net::ServerGraph& graph, const traffic::ClassSet& classes,
    std::span<const traffic::Demand> demands,
    std::span<const net::ServerPath> routes,
    const FixedPointOptions& options,
    const std::vector<std::vector<Seconds>>* warm_start) {
  if (demands.size() != routes.size())
    throw std::invalid_argument("solve_multiclass: demands/routes mismatch");
  const std::size_t servers = graph.size();
  const std::size_t num_classes = classes.size();

  for (const auto& demand : demands) {
    if (demand.class_index >= num_classes)
      throw std::invalid_argument("solve_multiclass: bad class index");
    if (!classes.at(demand.class_index).realtime)
      throw std::invalid_argument(
          "solve_multiclass: demands must be real-time classes");
  }

  MulticlassSolution sol;
  sol.class_server_delay.assign(num_classes,
                                std::vector<Seconds>(servers, 0.0));
  if (warm_start) {
    if (warm_start->size() != num_classes ||
        (num_classes && (*warm_start)[0].size() != servers))
      throw std::invalid_argument("solve_multiclass: warm_start shape");
    sol.class_server_delay = *warm_start;
  }
  sol.route_delay.assign(routes.size(), 0.0);

  // Which (class, server) combinations carry traffic.
  std::vector<std::vector<char>> used(num_classes,
                                      std::vector<char>(servers, 0));
  for (std::size_t r = 0; r < routes.size(); ++r)
    for (net::ServerId s : routes[r]) {
      if (s >= servers)
        throw std::out_of_range("solve_multiclass: bad server in route");
      used[demands[r].class_index][s] = 1;
    }

  std::vector<std::vector<Seconds>> upstream(
      num_classes, std::vector<Seconds>(servers, 0.0));
  std::vector<Seconds> upstream_at_k(num_classes, 0.0);

  for (int iter = 1; iter <= options.max_iterations; ++iter) {
    sol.iterations = iter;

    // Per-class Y_{i,k} from per-class prefix sums (Eq. 26), plus the
    // sound early deadline check on route sums.
    for (auto& row : upstream) std::fill(row.begin(), row.end(), 0.0);
    bool violated = false;
    for (std::size_t r = 0; r < routes.size(); ++r) {
      const std::size_t i = demands[r].class_index;
      Seconds prefix = 0.0;
      for (net::ServerId s : routes[r]) {
        upstream[i][s] = std::max(upstream[i][s], prefix);
        prefix += sol.class_server_delay[i][s];
      }
      sol.route_delay[r] = prefix;
      if (prefix > classes.at(i).deadline) violated = true;
    }
    if (violated) {
      sol.status = FeasibilityStatus::kDeadlineViolated;
      return sol;
    }

    // Update every used (class, server) delay via Theorem 5.
    Seconds max_change = 0.0;
    for (std::size_t i = 0; i < num_classes; ++i) {
      if (!classes.at(i).realtime) continue;
      for (net::ServerId s = 0; s < servers; ++s) {
        if (!used[i][s]) continue;
        for (std::size_t l = 0; l < num_classes; ++l)
          upstream_at_k[l] = upstream[l][s];
        const Seconds next = theorem5_delay(
            classes, i, graph.server(s).fan_in, upstream_at_k);
        max_change =
            std::max(max_change, std::abs(next - sol.class_server_delay[i][s]));
        sol.class_server_delay[i][s] = next;
      }
    }

    if (max_change < options.tolerance) {
      bool ok = true;
      for (std::size_t r = 0; r < routes.size(); ++r) {
        const std::size_t i = demands[r].class_index;
        Seconds total = 0.0;
        for (net::ServerId s : routes[r])
          total += sol.class_server_delay[i][s];
        sol.route_delay[r] = total;
        ok = ok && total <= classes.at(i).deadline;
      }
      sol.status = ok ? FeasibilityStatus::kSafe
                      : FeasibilityStatus::kDeadlineViolated;
      return sol;
    }
  }

  sol.status = FeasibilityStatus::kNoConvergence;
  return sol;
}

}  // namespace ubac::analysis
