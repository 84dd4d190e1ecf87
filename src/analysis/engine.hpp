#pragma once

/// \file engine.hpp
/// \brief Incremental analysis engine over the coupled delay equations.
///
/// The configuration pipeline (route selection, binary search on alpha,
/// renegotiation) evaluates thousands of "committed set +/- one route"
/// scenarios. The cold solvers in fixed_point.hpp / multiclass.hpp
/// recompute every per-server aggregate from nothing on every call; this
/// engine instead *owns* a scenario — server graph, traffic class(es) and
/// the committed route set — and re-solves incrementally. One engine
/// serves both systems: AnalysisEngine (Theorem 3) and MulticlassEngine
/// (Theorem 5) are EngineCore under two per-server delay models, bound at
/// compile time (docs/analysis_engine.md).
///
///  * **Dirty closure.** Adding or removing a route can only change the
///    delays of the servers on that route and of servers *downstream* of
///    them along some committed route (d_k depends on upstream delays
///    through Y_k, Eq. 6, so changes propagate strictly downstream in the
///    route dependency relation). solve() re-iterates only that closure,
///    holding every other server's delay fixed — the untouched subsystem
///    is self-contained, so its committed values remain exact.
///
///  * **Warm starts.** Z is monotone and the iteration runs upward, so any
///    known lower bound of the new least fixed point is a sound starting
///    point (fixed_point.hpp). The committed delay vector is such a bound
///    after adding a route or raising alpha; removals and alpha decreases
///    re-start the dirty closure from zero instead (the outside stays
///    exact either way).
///
///  * **Forked probe views.** probe_route() evaluates "committed set +
///    candidate" without mutating the engine: it copies the delay vector,
///    solves the candidate's dirty closure on the copy, and returns the
///    sparse delta. The winner is applied with commit_probe() in
///    O(delta). Probes are const and touch only immutable committed state;
///    route selection scores a pair's candidates one after another, and
///    the parallelism of configuration lives one level up, in the
///    speculative alpha search (routing/max_util_search.hpp), where each
///    thread owns a whole engine.
///
/// The stateless solvers remain the regression oracle: a fresh engine's
/// first solve() performs exactly the cold iteration, and
/// tests/engine_equivalence_test.cpp asserts that *any* operation sequence
/// matches a cold oracle solve of the same committed set to 1e-9, under
/// either model.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "analysis/fixed_point.hpp"
#include "analysis/multiclass.hpp"
#include "net/server_graph.hpp"
#include "traffic/flow.hpp"
#include "traffic/leaky_bucket.hpp"
#include "traffic/service_class.hpp"

namespace ubac::telemetry {
class Counter;
class LatencyHistogram;
class MetricsRegistry;
}

namespace ubac::analysis {

/// Stable handle for a committed route; ids of removed routes are reused.
using EngineRouteId = std::size_t;

inline constexpr EngineRouteId kInvalidEngineRoute =
    std::numeric_limits<EngineRouteId>::max();

/// Result of trial-evaluating one candidate route against the committed
/// set. Holds the sparse state delta so the winning candidate can be
/// committed without re-solving.
struct RouteProbe {
  FeasibilityStatus status = FeasibilityStatus::kNoConvergence;
  Seconds route_delay = 0.0;  ///< end-to-end bound of the probed route
  int iterations = 0;
  /// Delay slots whose value changed, with their new values (a slot is
  /// the server under the two-class model).
  std::vector<std::pair<std::size_t, Seconds>> server_delta;
  /// Committed routes whose end-to-end bound changed, with new values.
  std::vector<std::pair<EngineRouteId, Seconds>> committed_route_delta;
  /// The probe stopped once the candidate's sum reached the caller's
  /// cutoff: status is kNoConvergence, route_delay is that sum (a lower
  /// bound of the converged delay) and both deltas are empty.
  bool cut = false;

  bool safe() const { return status == FeasibilityStatus::kSafe; }
};

/// One class's share change proposed by a max-alpha re-search. The
/// two-class engine has exactly one real-time class (index 0); the struct
/// carries the index so actuators can forward deltas to a multi-class
/// ledger unchanged.
struct ShareDelta {
  std::size_t class_index = 0;
  double previous = 0.0;
  double proposed = 0.0;
};

/// Result of research_alpha(): the committed alpha after the search plus
/// the sparse share deltas a consumer must push into a live ledger (empty
/// when the search lands back on the seed).
struct AlphaResearch {
  bool feasible = false;   ///< some alpha in [lo, hi] verified safe
  double alpha = 0.0;      ///< alpha the engine is committed at now
  double seed_alpha = 0.0; ///< alpha the search started from
  int probes = 0;          ///< solve() evaluations spent
  std::vector<ShareDelta> deltas;
};

/// Shared instrument bundle (resolved lazily against the registry named in
/// EngineOptions-style metrics pointers). See docs/observability.md.
struct EngineTelemetry {
  telemetry::Counter* solves_warm = nullptr;
  telemetry::Counter* solves_cold = nullptr;
  telemetry::Counter* probes = nullptr;
  telemetry::LatencyHistogram* dirty_servers = nullptr;

  static EngineTelemetry resolve(telemetry::MetricsRegistry& registry);
};

namespace detail {

/// Theorem 3 delay model: one real-time class at utilization alpha, so
/// every route is class 0 and d_k = beta(alpha, N_k) * (T/rho + Y_k).
class TwoClassDelay {
 public:
  using Solution = DelaySolution;
  static constexpr bool kOneClass = true;

  TwoClassDelay(const net::ServerGraph& graph, double alpha,
                traffic::LeakyBucket bucket, Seconds deadline);

  static constexpr std::size_t class_count() { return 1; }
  /// Demands carry no class here: every route is the real-time class.
  std::size_t class_of(std::size_t) const { return 0; }
  Seconds deadline(std::size_t) const { return deadline_; }
  /// Z of server u from its upstream maximum.
  Seconds delay(std::size_t, net::ServerId u, const Seconds* upstream) const {
    return beta_[u] * (base_ + upstream[0]);
  }

  double alpha() const { return alpha_; }
  void set_alpha(const net::ServerGraph& graph, double alpha);

 private:
  double alpha_;
  Seconds base_;  ///< T / rho
  Seconds deadline_;
  std::vector<double> beta_;  ///< beta(alpha, fan_in) per server
};

/// Theorem 5 delay model: one delay per (real-time class, server), where
/// d_{j,k} reads the upstream maxima Y_{l,k} of classes l <= j.
class Theorem5Delay {
 public:
  using Solution = MulticlassSolution;
  static constexpr bool kOneClass = false;

  Theorem5Delay(const net::ServerGraph& graph,
                const traffic::ClassSet& classes);

  std::size_t class_count() const { return classes_->size(); }
  /// `cls` itself; throws std::invalid_argument unless it is a real-time
  /// class of the set.
  std::size_t class_of(std::size_t cls) const;
  Seconds deadline(std::size_t cls) const {
    return classes_->at(cls).deadline;
  }
  /// Z of (class cls, server u) from the upstream maxima of every class.
  Seconds delay(std::size_t cls, net::ServerId u,
                const Seconds* upstream) const {
    return theorem5_delay(*classes_, cls, fan_in_[u],
                          std::span<const Seconds>(upstream, class_count()));
  }

  const traffic::ClassSet& classes() const { return *classes_; }

 private:
  const traffic::ClassSet* classes_;
  std::vector<double> fan_in_;
};

/// The incremental engine, parameterised on the per-server delay model.
/// Delays live in one vector of slots, server-major (the classes of a
/// server are adjacent); under the two-class model a slot is the server.
/// Operations take the route's class; the two-class model maps every
/// class to 0 at compile time. Not thread-safe for mutation; const probes
/// may run concurrently.
template <typename Model>
class EngineCore {
 public:
  using Solution = typename Model::Solution;

  /// Remove a committed route. The dirty closure restarts from zero on
  /// the next solve (delays may decrease; warm starts are only sound
  /// upward). O(|route|).
  void remove_route(EngineRouteId id);

  /// Settle all pending mutations incrementally and return the committed
  /// solution (cached when nothing changed). After an unsafe result the
  /// engine state is *poisoned*: the next solve after further mutations
  /// runs cold over the full system, and probes are rejected until a safe
  /// solve commits.
  const Solution& solve();

  // -- class-indexed operations (the route selector calls these) --------

  /// The engine's class of `demand`; throws std::invalid_argument when
  /// the model has no real-time class of that index.
  std::size_t class_of(const traffic::Demand& demand) const {
    return model_.class_of(demand.class_index);
  }

  /// Add a route of class `cls` (link-server granularity). O(|route|).
  EngineRouteId add(std::size_t cls, std::span<const net::ServerId> route);

  /// Trial-evaluate committed + `route` (class `cls`) without mutating
  /// the engine. Requires a clean, safely solved committed state.
  /// Thread-safe against concurrent probes. Once a sweep's sum along
  /// `route` reaches `cutoff` the probe stops, cut and not safe: the
  /// sweep sums only grow, so the delay the full probe would report is
  /// >= cutoff too. A probe that is not cut is exactly the probe without
  /// a cutoff.
  RouteProbe probe(
      std::size_t cls, std::span<const net::ServerId> route,
      Seconds cutoff = std::numeric_limits<Seconds>::infinity()) const;

  /// Commit a candidate previously accepted by probe(), applying its
  /// sparse delta instead of re-solving. The probe must be safe and the
  /// engine unchanged since the probe was taken.
  EngineRouteId commit(std::size_t cls, std::span<const net::ServerId> route,
                       const RouteProbe& accepted);

  /// Sum of the committed class-`cls` delays along `route`: a lower bound
  /// of the route's delay in any probe.
  Seconds committed_sum(std::size_t cls,
                        std::span<const net::ServerId> route) const;

  // -- accessors ---------------------------------------------------------

  const net::ServerGraph& graph() const { return *graph_; }
  std::size_t route_count() const { return active_routes_; }
  Seconds route_delay(EngineRouteId id) const;

 protected:
  EngineCore(const net::ServerGraph& graph, Model model,
             const FixedPointOptions& options);

  /// A committed route: its servers are hops_[begin, begin + length).
  struct RouteEntry {
    std::uint32_t begin = 0;
    std::uint32_t length = 0;
    Seconds delay = 0.0;
    std::uint32_t cls = 0;
    bool active = false;
  };

  /// Delay slot of (class, server).
  std::size_t slot(std::size_t cls, net::ServerId u) const {
    if constexpr (Model::kOneClass)
      return u;
    else
      return u * model_.class_count() + cls;
  }
  std::size_t route_class(EngineRouteId id) const {
    if constexpr (Model::kOneClass)
      return 0;
    else
      return routes_[id].cls;
  }
  std::span<const net::ServerId> servers_of(EngineRouteId id) const {
    return {hops_.data() + routes_[id].begin, routes_[id].length};
  }
  /// Append `route` to the arena and give it an id (a reused one when a
  /// route was removed). Compacts the arena first once removed routes
  /// fill half of it.
  EngineRouteId store(std::size_t cls, std::span<const net::ServerId> route,
                      Seconds delay);
  void mark_dirty(net::ServerId s);
  void refresh_solution(int iterations);

  /// Frontier-restricted upward iteration for Z-increasing changes: only
  /// servers whose inputs actually changed (beyond the tolerance) are
  /// re-iterated, activating downstream servers on demand. `extra`, when
  /// non-empty, is an uncommitted candidate route of class `extra_cls`
  /// overlaid on the committed set (the probe path); the iteration stops
  /// with `cut` set once a sweep's sum along it reaches `cutoff`. Touched
  /// committed routes and their final sums are returned through
  /// `touched`/`touched_delay`.
  FeasibilityStatus run_frontier(const std::vector<net::ServerId>& seeds,
                                 std::size_t extra_cls,
                                 std::span<const net::ServerId> extra,
                                 Seconds cutoff, std::vector<Seconds>& d,
                                 std::vector<EngineRouteId>& touched,
                                 std::vector<Seconds>& touched_delay,
                                 Seconds& extra_delay, bool& cut,
                                 int& iterations,
                                 std::size_t& active_count) const;

  const net::ServerGraph* graph_;
  Model model_;
  FixedPointOptions options_;
  EngineTelemetry telemetry_;

  std::vector<RouteEntry> routes_;
  std::vector<net::ServerId> hops_;  ///< servers of every route, one arena
  std::size_t dead_hops_ = 0;        ///< arena hops of removed routes
  std::vector<EngineRouteId> free_ids_;
  std::size_t active_routes_ = 0;
  /// Active route ids through each server (removal erases eagerly).
  std::vector<std::vector<EngineRouteId>> routes_by_server_;
  std::vector<std::uint32_t> used_count_;  ///< active routes per slot

  std::vector<Seconds> delay_;  ///< committed delay per slot
  Solution solution_;           ///< cache returned by solve()
  bool solution_fresh_ = false;

  std::vector<char> pending_dirty_;
  std::vector<net::ServerId> pending_list_;
  bool pending_cold_ = false;  ///< reset the dirty closure to zero
  bool poisoned_ = true;       ///< full cold solve required (also: never solved)
};

}  // namespace detail

/// Incremental engine for the two-class system of Theorem 3 (one
/// real-time class at utilization alpha + best effort).
class AnalysisEngine : public detail::EngineCore<detail::TwoClassDelay> {
 public:
  AnalysisEngine(const net::ServerGraph& graph, double alpha,
                 traffic::LeakyBucket bucket, Seconds deadline,
                 const FixedPointOptions& options = {});

  EngineRouteId add_route(const net::ServerPath& route) {
    return add(0, route);
  }
  RouteProbe probe_route(
      std::span<const net::ServerId> route,
      Seconds cutoff = std::numeric_limits<Seconds>::infinity()) const {
    return probe(0, route, cutoff);
  }
  EngineRouteId commit_probe(std::span<const net::ServerId> route,
                             const RouteProbe& accepted) {
    return commit(0, route, accepted);
  }

  /// Change the assigned utilization. Raising alpha keeps the committed
  /// delays as a warm start (Z grows pointwise in alpha); lowering it
  /// restarts every used server from zero.
  void set_alpha(double alpha);

  /// Warm-started incremental max-alpha re-search over [lo, hi], seeded
  /// from the current (last feasible) configuration: find the largest
  /// alpha within `resolution` whose committed route set still verifies
  /// safe, and leave the engine committed there. Raising alpha from a safe
  /// seed re-solves only the warm frontier; each unsafe probe poisons the
  /// state and costs one cold restart, which bisection keeps to
  /// O(log((hi-lo)/resolution)) total. When nothing in [lo, hi] is safe
  /// the engine is restored to the seed alpha and `feasible` is false.
  /// Throws std::invalid_argument unless 0 <= lo <= hi <= 1.
  AlphaResearch research_alpha(double lo, double hi,
                               double resolution = 1e-3);

  double alpha() const { return model_.alpha(); }
  /// Committed per-server delay vector (meaningful after a safe solve).
  const std::vector<Seconds>& server_delays() const { return delay_; }
};

/// Incremental engine for the multi-class system of Theorem 5: the same
/// engine under the Theorem 5 delay model. Probe deltas index the delay
/// slot server * classes().size() + class.
class MulticlassEngine : public detail::EngineCore<detail::Theorem5Delay> {
 public:
  MulticlassEngine(const net::ServerGraph& graph,
                   const traffic::ClassSet& classes,
                   const FixedPointOptions& options = {});

  EngineRouteId add_route(const traffic::Demand& demand,
                          const net::ServerPath& route) {
    return add(demand.class_index, route);
  }
  RouteProbe probe_route(
      const traffic::Demand& demand, std::span<const net::ServerId> route,
      Seconds cutoff = std::numeric_limits<Seconds>::infinity()) const {
    return probe(demand.class_index, route, cutoff);
  }
  EngineRouteId commit_probe(const traffic::Demand& demand,
                             std::span<const net::ServerId> route,
                             const RouteProbe& accepted) {
    return commit(demand.class_index, route, accepted);
  }

  const traffic::ClassSet& classes() const { return model_.classes(); }
};

}  // namespace ubac::analysis
