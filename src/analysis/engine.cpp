#include "analysis/engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "analysis/delay_bound.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"

namespace ubac::analysis {

namespace {

/// Dirty closure of a set of seed servers: the seeds plus every server
/// reachable strictly downstream of a dirty server along some route. A
/// route is re-walked whenever one of its servers newly enters the
/// closure, so the earliest-dirty position can only move forward and the
/// scan converges. Also collects the ids of routes intersecting the
/// closure — exactly the routes whose Y contributions or end-to-end sums
/// can change. `by_server` lists active routes only, and `route_path(rid)`
/// gives a route's servers.
struct Closure {
  std::vector<char> in;               ///< per-server membership
  std::vector<net::ServerId> list;    ///< members, discovery order
  std::vector<EngineRouteId> routes;  ///< active routes touching the closure
};

template <typename RoutePath>
void build_closure(std::size_t servers, std::size_t route_capacity,
                   const std::vector<net::ServerId>& seeds,
                   const std::vector<std::vector<EngineRouteId>>& by_server,
                   const RoutePath& route_path, Closure& out) {
  out.in.assign(servers, 0);
  out.list.clear();
  out.routes.clear();
  std::vector<char> queued(route_capacity, 0);
  std::vector<char> touched(route_capacity, 0);
  std::vector<EngineRouteId> route_queue;

  auto push_routes = [&](net::ServerId s) {
    for (const EngineRouteId rid : by_server[s]) {
      if (!queued[rid]) {
        queued[rid] = 1;
        route_queue.push_back(rid);
      }
    }
  };
  auto mark = [&](net::ServerId s) {
    if (out.in[s]) return;
    out.in[s] = 1;
    out.list.push_back(s);
    push_routes(s);
  };
  for (const net::ServerId s : seeds) mark(s);

  while (!route_queue.empty()) {
    const EngineRouteId rid = route_queue.back();
    route_queue.pop_back();
    queued[rid] = 0;
    bool dirty_prefix = false;
    for (const net::ServerId u : route_path(rid)) {
      if (out.in[u]) {
        dirty_prefix = true;
      } else if (dirty_prefix) {
        mark(u);
      }
    }
    if (dirty_prefix && !touched[rid]) {
      touched[rid] = 1;
      out.routes.push_back(rid);
    }
  }
}

}  // namespace

EngineTelemetry EngineTelemetry::resolve(telemetry::MetricsRegistry& registry) {
  EngineTelemetry t;
  t.solves_warm =
      &registry.counter("ubac_engine_solves_total",
                        "Incremental engine solves by start mode",
                        {{"mode", "warm"}});
  t.solves_cold =
      &registry.counter("ubac_engine_solves_total",
                        "Incremental engine solves by start mode",
                        {{"mode", "cold"}});
  t.probes = &registry.counter(
      "ubac_engine_probes_total",
      "Candidate route probes evaluated against a committed set");
  t.dirty_servers = &registry.histogram(
      "ubac_engine_dirty_servers",
      "Dirty-closure size (servers re-iterated) per solve or probe",
      {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024});
  return t;
}


// ---------------------------------------------------------------------------
// Delay models
// ---------------------------------------------------------------------------

namespace detail {

TwoClassDelay::TwoClassDelay(const net::ServerGraph& graph, double alpha,
                             traffic::LeakyBucket bucket, Seconds deadline)
    : alpha_(alpha), base_(bucket.burst / bucket.rate), deadline_(deadline) {
  if (deadline <= 0.0)
    throw std::invalid_argument("AnalysisEngine: deadline must be > 0");
  set_alpha(graph, alpha);
}

void TwoClassDelay::set_alpha(const net::ServerGraph& graph, double alpha) {
  alpha_ = alpha;
  beta_.resize(graph.size());
  for (net::ServerId s = 0; s < graph.size(); ++s)
    beta_[s] = beta(alpha, graph.server(s).fan_in);
}

Theorem5Delay::Theorem5Delay(const net::ServerGraph& graph,
                             const traffic::ClassSet& classes)
    : classes_(&classes) {
  fan_in_.reserve(graph.size());
  for (net::ServerId s = 0; s < graph.size(); ++s)
    fan_in_.push_back(graph.server(s).fan_in);
}

std::size_t Theorem5Delay::class_of(std::size_t cls) const {
  if (cls >= classes_->size() || !classes_->at(cls).realtime)
    throw std::invalid_argument("engine: route class must be real-time");
  return cls;
}

// ---------------------------------------------------------------------------
// EngineCore
// ---------------------------------------------------------------------------

namespace {

/// Reusable scratch for run_frontier (per thread: probes run concurrently).
struct FrontierScratch {
  std::vector<char> active, in_route, changed, on_extra;
  std::vector<net::ServerId> alist, changed_list;
  std::vector<EngineRouteId> rlist;
  std::vector<Seconds> upstream, accum, sums;
};

}  // namespace

template <typename Model>
EngineCore<Model>::EngineCore(const net::ServerGraph& graph, Model model,
                              const FixedPointOptions& options)
    : graph_(&graph), model_(std::move(model)), options_(options) {
  const std::size_t servers = graph.size();
  routes_by_server_.resize(servers);
  used_count_.assign(servers * model_.class_count(), 0);
  delay_.assign(servers * model_.class_count(), 0.0);
  pending_dirty_.assign(servers, 0);
  if (options_.metrics) telemetry_ = EngineTelemetry::resolve(*options_.metrics);
}

template <typename Model>
FeasibilityStatus EngineCore<Model>::run_frontier(
    const std::vector<net::ServerId>& seeds, std::size_t extra_cls,
    std::span<const net::ServerId> extra, Seconds cutoff,
    std::vector<Seconds>& d, std::vector<EngineRouteId>& touched,
    std::vector<Seconds>& touched_delay, Seconds& extra_delay, bool& cut,
    int& iterations, std::size_t& active_count) const {
  // The static reachability closure over-approximates badly on dense
  // route sets (it degenerates to the whole system). This loop instead
  // grows the re-iterated region on demand: a server joins only once the
  // accumulated change of some server upstream of it exceeds the
  // tolerance. Because every hop attenuates (beta < 1), changes decay
  // geometrically and the active region stays near the seeds. Soundness
  // is unchanged — any schedule of monotone updates from a lower bound
  // stays below the least fixed point — and unpropagated drift is capped
  // at the tolerance per server, the same slack the full sweep's stopping
  // rule already accepts.
  const std::size_t servers = graph_->size();
  const std::size_t classes = model_.class_count();
  if constexpr (Model::kOneClass) extra_cls = 0;

  static thread_local FrontierScratch sc;
  sc.active.assign(servers, 0);
  sc.on_extra.assign(servers, 0);
  sc.changed.assign(servers, 0);
  sc.in_route.assign(routes_.size(), 0);
  sc.upstream.assign(servers * classes, 0.0);
  sc.accum.assign(servers, 0.0);
  sc.alist.clear();
  sc.changed_list.clear();
  sc.rlist.clear();
  sc.sums.clear();

  auto activate = [&](net::ServerId s) {
    if (sc.active[s]) return;
    sc.active[s] = 1;
    sc.alist.push_back(s);
    // routes_by_server_ holds active ids only (removal erases eagerly).
    for (const EngineRouteId rid : routes_by_server_[s])
      if (!sc.in_route[rid]) {
        sc.in_route[rid] = 1;
        sc.rlist.push_back(rid);
      }
  };
  for (const net::ServerId s : seeds) activate(s);
  for (const net::ServerId s : extra) {
    sc.on_extra[s] = 1;
    activate(s);
  }

  // Gauss-Seidel-style sweeps. The warm iteration is monotone
  // non-decreasing (the committed delays satisfy d = Z_old(d) <= Z_new(d)),
  // so prefix sums and upstream maxima only grow: `upstream` is kept as a
  // running max across sweeps, and a server's delay is raised *during* the
  // route walk as soon as a larger prefix reaches it. Later routes in the
  // same sweep see the raised value, so changes propagate many hops per
  // sweep instead of one. Every in-walk update applies Z with
  // underestimated inputs, so all iterates stay below the least fixed
  // point — the soundness argument is unchanged.
  Seconds extra_sum = 0.0;
  auto relax = [&](std::size_t cls, net::ServerId u, Seconds prefix,
                   Seconds& max_change) {
    Seconds* up = &sc.upstream[slot(0, u)];
    // >= rather than >: equal prefixes must still re-apply Z so that a
    // server whose own beta or usage changed (alpha raise, first route)
    // gets updated even when its max prefix does not move.
    if (prefix < up[cls]) return;
    up[cls] = prefix;
    // d_{j,u} reads Y_{l,u} for l <= j only and grows with each of them
    // (Theorem 5 is monotone in every Y), so a larger Y of class `cls`
    // re-evaluates the classes from `cls` down in priority.
    for (std::size_t j = cls; j < classes; ++j) {
      const std::size_t k = slot(j, u);
      if (used_count_[k] == 0 && !(j == extra_cls && sc.on_extra[u])) continue;
      const Seconds next = model_.delay(j, u, up);
      if (next > d[k]) {
        const Seconds delta = next - d[k];
        d[k] = next;
        max_change = std::max(max_change, delta);
        // Expansion is monotone — once a server has triggered it, its
        // downstream is active for good, so it never re-triggers.
        if (!sc.changed[u]) {
          sc.accum[u] += delta;
          if (sc.accum[u] > options_.tolerance) {
            sc.changed[u] = 1;
            sc.changed_list.push_back(u);
          }
        }
      }
    }
  };
  cut = false;
  for (int iter = 1; iter <= options_.max_iterations; ++iter) {
    iterations = iter;
    bool violated = false;
    Seconds max_change = 0.0;
    sc.changed_list.clear();
    sc.sums.resize(sc.rlist.size());
    for (std::size_t idx = 0; idx < sc.rlist.size(); ++idx) {
      const std::size_t cls = route_class(sc.rlist[idx]);
      Seconds prefix = 0.0;
      for (const net::ServerId u : servers_of(sc.rlist[idx])) {
        if (sc.active[u]) relax(cls, u, prefix, max_change);
        prefix += d[slot(cls, u)];
      }
      sc.sums[idx] = prefix;
      if (prefix > model_.deadline(cls)) violated = true;
    }
    if (!extra.empty()) {
      Seconds prefix = 0.0;
      for (const net::ServerId u : extra) {
        if (sc.active[u]) relax(extra_cls, u, prefix, max_change);
        prefix += d[slot(extra_cls, u)];
      }
      extra_sum = prefix;
      if (prefix > model_.deadline(extra_cls)) violated = true;
    }
    if (violated) {
      extra_delay = extra_sum;
      active_count = sc.alist.size();
      return FeasibilityStatus::kDeadlineViolated;
    }
    // The candidate's sum only grows from sweep to sweep, and the delay a
    // probe reports is its last sweep's sum: once a sum reaches the cutoff,
    // the probe cannot come in below it.
    if (!extra.empty() && extra_sum >= cutoff) {
      cut = true;
      extra_delay = extra_sum;
      active_count = sc.alist.size();
      return FeasibilityStatus::kNoConvergence;
    }

    if (max_change < options_.tolerance) {
      bool ok = true;
      touched.clear();
      touched_delay.clear();
      for (std::size_t idx = 0; idx < sc.rlist.size(); ++idx) {
        const std::size_t cls = route_class(sc.rlist[idx]);
        Seconds total = 0.0;
        for (const net::ServerId u : servers_of(sc.rlist[idx]))
          total += d[slot(cls, u)];
        touched.push_back(sc.rlist[idx]);
        touched_delay.push_back(total);
        ok = ok && total <= model_.deadline(cls);
      }
      if (!extra.empty()) {
        Seconds total = 0.0;
        for (const net::ServerId u : extra) total += d[slot(extra_cls, u)];
        extra_sum = total;
        ok = ok && total <= model_.deadline(extra_cls);
      }
      extra_delay = extra_sum;
      active_count = sc.alist.size();
      return ok ? FeasibilityStatus::kSafe
                : FeasibilityStatus::kDeadlineViolated;
    }

    // Expansion: servers strictly downstream of a changed server join the
    // active set before the next sweep (their Y can now move).
    for (const net::ServerId s : sc.changed_list) {
      for (const EngineRouteId rid : routes_by_server_[s]) {
        bool dirty = false;
        for (const net::ServerId u : servers_of(rid)) {
          if (sc.changed[u]) {
            dirty = true;
          } else if (dirty) {
            activate(u);
          }
        }
      }
    }
  }
  extra_delay = extra_sum;
  active_count = sc.alist.size();
  return FeasibilityStatus::kNoConvergence;
}

template <typename Model>
void EngineCore<Model>::mark_dirty(net::ServerId s) {
  if (!pending_dirty_[s]) {
    pending_dirty_[s] = 1;
    pending_list_.push_back(s);
  }
  solution_fresh_ = false;
}

template <typename Model>
EngineRouteId EngineCore<Model>::store(std::size_t cls,
                                       std::span<const net::ServerId> route,
                                       Seconds delay) {
  if (dead_hops_ > hops_.size() / 2) {
    std::vector<net::ServerId> packed;
    packed.reserve(hops_.size() - dead_hops_);
    for (RouteEntry& entry : routes_) {
      const auto begin = static_cast<std::uint32_t>(packed.size());
      if (entry.active)
        packed.insert(packed.end(), hops_.begin() + entry.begin,
                      hops_.begin() + entry.begin + entry.length);
      else
        entry.length = 0;
      entry.begin = begin;
    }
    hops_.swap(packed);
    dead_hops_ = 0;
  }
  const RouteEntry entry{static_cast<std::uint32_t>(hops_.size()),
                         static_cast<std::uint32_t>(route.size()), delay,
                         static_cast<std::uint32_t>(cls), true};
  hops_.insert(hops_.end(), route.begin(), route.end());
  if (free_ids_.empty()) {
    routes_.push_back(entry);
    return routes_.size() - 1;
  }
  const EngineRouteId id = free_ids_.back();
  free_ids_.pop_back();
  routes_[id] = entry;
  return id;
}

template <typename Model>
EngineRouteId EngineCore<Model>::add(std::size_t cls,
                                     std::span<const net::ServerId> route) {
  cls = model_.class_of(cls);
  for (const net::ServerId s : route)
    if (s >= graph_->size())
      throw std::out_of_range("add_route: route references bad server");
  const EngineRouteId id = store(cls, route, 0.0);
  for (const net::ServerId s : route) {
    routes_by_server_[s].push_back(id);
    ++used_count_[slot(cls, s)];
    mark_dirty(s);
  }
  ++active_routes_;
  return id;
}

template <typename Model>
void EngineCore<Model>::remove_route(EngineRouteId id) {
  if (id >= routes_.size() || !routes_[id].active)
    throw std::invalid_argument("remove_route: unknown route id");
  routes_[id].active = false;
  const std::size_t cls = route_class(id);
  for (const net::ServerId s : servers_of(id)) {
    std::erase(routes_by_server_[s], id);
    --used_count_[slot(cls, s)];
    mark_dirty(s);
  }
  dead_hops_ += routes_[id].length;
  --active_routes_;
  free_ids_.push_back(id);
  // Delays may only decrease; warm starts are sound upward only, so the
  // dirty closure restarts from zero.
  pending_cold_ = true;
}

template <typename Model>
const typename Model::Solution& EngineCore<Model>::solve() {
  if (solution_fresh_ && pending_list_.empty() && !poisoned_) return solution_;

  const std::size_t servers = graph_->size();
  const std::size_t classes = model_.class_count();
  const bool warm = !poisoned_ && !pending_cold_;
  UBAC_SPAN_ARG("engine.solve", "engine", "warm", warm ? 1.0 : 0.0);
  FeasibilityStatus status = FeasibilityStatus::kNoConvergence;
  int iterations = 0;
  std::size_t dirty = 0;

  if (warm) {
    // Z-increasing change (routes added / alpha raised): the committed
    // delays are a sound lower bound, so only the actually-changing
    // frontier around the mutated servers needs re-iterating.
    std::vector<EngineRouteId> touched;
    std::vector<Seconds> touched_delay;
    Seconds unused = 0.0;
    bool no_cut = false;
    status = run_frontier(pending_list_, 0, {},
                          std::numeric_limits<Seconds>::infinity(), delay_,
                          touched, touched_delay, unused, no_cut, iterations,
                          dirty);
    for (std::size_t r = 0; r < touched.size(); ++r)
      routes_[touched[r]].delay = touched_delay[r];
  } else {
    const auto used_at = [&](net::ServerId s) {
      for (std::size_t j = 0; j < classes; ++j)
        if (used_count_[slot(j, s)] > 0) return true;
      return false;
    };
    Closure cl;
    if (poisoned_) {
      // Previous state is not a sound lower bound (unsafe solve, or never
      // solved): restart the whole system from zero.
      std::fill(delay_.begin(), delay_.end(), 0.0);
      cl.in.assign(servers, 0);
      for (net::ServerId s = 0; s < servers; ++s)
        if (used_at(s)) {
          cl.in[s] = 1;
          cl.list.push_back(s);
        }
      for (EngineRouteId rid = 0; rid < routes_.size(); ++rid)
        if (routes_[rid].active) cl.routes.push_back(rid);
    } else {
      // Removal / alpha decrease: the affected closure restarts from zero
      // (delays may shrink; warm starts are only sound upward).
      build_closure(servers, routes_.size(), pending_list_, routes_by_server_,
                    [this](EngineRouteId rid) { return servers_of(rid); },
                    cl);
      for (const net::ServerId s : cl.list)
        for (std::size_t j = 0; j < classes; ++j) delay_[slot(j, s)] = 0.0;
    }

    // Restricted Jacobi iteration, as in the cold solvers: only closure
    // servers are iterated, walking only the routes that cross them, with
    // every other delay held fixed. Early sound deadline-violation exit,
    // convergence on the max delay change, final route-sum check.
    std::vector<Seconds> route_delay(cl.routes.size(), 0.0);
    std::vector<Seconds> upstream(servers * classes, 0.0);
    for (int iter = 1; iter <= options_.max_iterations; ++iter) {
      iterations = iter;
      for (const net::ServerId s : cl.list)
        for (std::size_t j = 0; j < classes; ++j) upstream[slot(j, s)] = 0.0;
      bool violated = false;
      for (std::size_t r = 0; r < cl.routes.size(); ++r) {
        const std::size_t cls = route_class(cl.routes[r]);
        Seconds prefix = 0.0;
        for (const net::ServerId u : servers_of(cl.routes[r])) {
          const std::size_t k = slot(cls, u);
          if (cl.in[u]) upstream[k] = std::max(upstream[k], prefix);
          prefix += delay_[k];
        }
        route_delay[r] = prefix;
        if (prefix > model_.deadline(cls)) violated = true;
      }
      if (violated) {
        status = FeasibilityStatus::kDeadlineViolated;
        break;
      }

      Seconds max_change = 0.0;
      for (const net::ServerId s : cl.list)
        for (std::size_t j = 0; j < classes; ++j) {
          const std::size_t k = slot(j, s);
          const Seconds next =
              used_count_[k] > 0 ? model_.delay(j, s, &upstream[slot(0, s)])
                                 : 0.0;
          max_change = std::max(max_change, std::abs(next - delay_[k]));
          delay_[k] = next;
        }
      if (max_change < options_.tolerance) {
        bool ok = true;
        for (std::size_t r = 0; r < cl.routes.size(); ++r) {
          const std::size_t cls = route_class(cl.routes[r]);
          Seconds total = 0.0;
          for (const net::ServerId u : servers_of(cl.routes[r]))
            total += delay_[slot(cls, u)];
          route_delay[r] = total;
          ok = ok && total <= model_.deadline(cls);
        }
        status = ok ? FeasibilityStatus::kSafe
                    : FeasibilityStatus::kDeadlineViolated;
        break;
      }
    }

    for (std::size_t r = 0; r < cl.routes.size(); ++r)
      routes_[cl.routes[r]].delay = route_delay[r];
    dirty = cl.list.size();
  }

  if (telemetry_.dirty_servers)
    telemetry_.dirty_servers->record(static_cast<double>(dirty));
  if (warm && telemetry_.solves_warm) telemetry_.solves_warm->add();
  if (!warm && telemetry_.solves_cold) telemetry_.solves_cold->add();

  for (const net::ServerId s : pending_list_) pending_dirty_[s] = 0;
  pending_list_.clear();
  pending_cold_ = false;
  solution_.status = status;
  poisoned_ = status != FeasibilityStatus::kSafe;
  refresh_solution(iterations);
  return solution_;
}

template <typename Model>
void EngineCore<Model>::refresh_solution(int iterations) {
  if constexpr (Model::kOneClass) {
    solution_.server_delay = delay_;
  } else {
    const std::size_t classes = model_.class_count();
    solution_.class_server_delay.assign(
        classes, std::vector<Seconds>(graph_->size(), 0.0));
    for (std::size_t k = 0; k < delay_.size(); ++k)
      solution_.class_server_delay[k % classes][k / classes] = delay_[k];
  }
  solution_.route_delay.assign(routes_.size(), 0.0);
  for (EngineRouteId rid = 0; rid < routes_.size(); ++rid)
    if (routes_[rid].active) solution_.route_delay[rid] = routes_[rid].delay;
  solution_.iterations = iterations;
  solution_fresh_ = true;
}

template <typename Model>
Seconds EngineCore<Model>::committed_sum(
    std::size_t cls, std::span<const net::ServerId> route) const {
  if constexpr (Model::kOneClass) cls = 0;
  Seconds sum = 0.0;
  for (const net::ServerId s : route) sum += delay_[slot(cls, s)];
  return sum;
}

template <typename Model>
RouteProbe EngineCore<Model>::probe(std::size_t cls,
                                    std::span<const net::ServerId> route,
                                    Seconds cutoff) const {
  UBAC_SPAN_ARG("engine.probe_route", "engine", "hops", route.size());
  if (!solution_fresh_ || poisoned_ || !pending_list_.empty())
    throw std::logic_error(
        "probe_route: engine needs a clean, safely solved committed state");
  cls = model_.class_of(cls);
  for (const net::ServerId s : route)
    if (s >= graph_->size())
      throw std::out_of_range("probe_route: route references bad server");

  // Fast reject: the committed delays are a lower bound of the overlay
  // fixed point, so if their sum along the candidate already breaks the
  // deadline the converged sum must too. O(|route|), no iteration.
  const Seconds lower_bound = committed_sum(cls, route);
  if (lower_bound > model_.deadline(cls)) {
    RouteProbe probe;
    probe.status = FeasibilityStatus::kDeadlineViolated;
    probe.route_delay = lower_bound;
    if (telemetry_.probes) telemetry_.probes->add();
    if (telemetry_.dirty_servers) telemetry_.dirty_servers->record(0.0);
    return probe;
  }

  // Forked view: the committed delays are a sound lower bound of the
  // committed+candidate fixed point, so the frontier iteration settles the
  // overlay without touching engine state.
  std::vector<Seconds> d = delay_;
  std::vector<EngineRouteId> touched;
  std::vector<Seconds> touched_delay;
  static const std::vector<net::ServerId> kNoSeeds;
  RouteProbe probe;
  std::size_t dirty = 0;
  probe.status =
      run_frontier(kNoSeeds, cls, route, cutoff, d, touched, touched_delay,
                   probe.route_delay, probe.cut, probe.iterations, dirty);

  if (!probe.cut) {
    for (std::size_t r = 0; r < touched.size(); ++r)
      if (touched_delay[r] != routes_[touched[r]].delay)
        probe.committed_route_delta.push_back({touched[r], touched_delay[r]});
    for (std::size_t k = 0; k < d.size(); ++k)
      if (d[k] != delay_[k]) probe.server_delta.push_back({k, d[k]});
  }

  if (telemetry_.probes) telemetry_.probes->add();
  if (telemetry_.dirty_servers)
    telemetry_.dirty_servers->record(static_cast<double>(dirty));
  return probe;
}

template <typename Model>
EngineRouteId EngineCore<Model>::commit(std::size_t cls,
                                        std::span<const net::ServerId> route,
                                        const RouteProbe& accepted) {
  if (!accepted.safe())
    throw std::invalid_argument("commit_probe: probe is not safe");
  if (!solution_fresh_ || poisoned_ || !pending_list_.empty())
    throw std::logic_error("commit_probe: engine changed since the probe");
  cls = model_.class_of(cls);
  const EngineRouteId id = store(cls, route, accepted.route_delay);
  for (const net::ServerId s : route) {
    routes_by_server_[s].push_back(id);
    ++used_count_[slot(cls, s)];
  }
  ++active_routes_;
  // Apply the sparse delta to both the committed state and the cached
  // solution — a full refresh_solution would rebuild the per-route vector
  // and make a run of n commits quadratic.
  for (const auto& [k, v] : accepted.server_delta) {
    delay_[k] = v;
    if constexpr (Model::kOneClass) {
      solution_.server_delay[k] = v;
    } else {
      const std::size_t classes = model_.class_count();
      solution_.class_server_delay[k % classes][k / classes] = v;
    }
  }
  for (const auto& [rid, v] : accepted.committed_route_delta) {
    routes_[rid].delay = v;
    solution_.route_delay[rid] = v;
  }
  solution_.route_delay.resize(routes_.size(), 0.0);
  solution_.route_delay[id] = accepted.route_delay;
  solution_.iterations = accepted.iterations;
  solution_fresh_ = true;
  return id;
}

template <typename Model>
Seconds EngineCore<Model>::route_delay(EngineRouteId id) const {
  if (id >= routes_.size() || !routes_[id].active)
    throw std::invalid_argument("route_delay: unknown route id");
  return routes_[id].delay;
}

template class EngineCore<TwoClassDelay>;
template class EngineCore<Theorem5Delay>;

}  // namespace detail

// ---------------------------------------------------------------------------
// AnalysisEngine (Theorem 3) and MulticlassEngine (Theorem 5)
// ---------------------------------------------------------------------------

AnalysisEngine::AnalysisEngine(const net::ServerGraph& graph, double alpha,
                               traffic::LeakyBucket bucket, Seconds deadline,
                               const FixedPointOptions& options)
    : EngineCore(graph, detail::TwoClassDelay(graph, alpha, bucket, deadline),
                 options) {}

void AnalysisEngine::set_alpha(double alpha) {
  if (alpha == model_.alpha()) return;
  const bool decrease = alpha < model_.alpha();
  model_.set_alpha(*graph_, alpha);
  for (net::ServerId s = 0; s < graph_->size(); ++s)
    if (used_count_[s] > 0 || delay_[s] != 0.0) mark_dirty(s);
  if (decrease) pending_cold_ = true;
  solution_fresh_ = false;
}

AlphaResearch AnalysisEngine::research_alpha(double lo, double hi,
                                             double resolution) {
  if (!(lo >= 0.0) || !(hi <= 1.0) || lo > hi)
    throw std::invalid_argument("research_alpha: need 0 <= lo <= hi <= 1");
  if (!(resolution > 0.0))
    throw std::invalid_argument("research_alpha: resolution must be > 0");
  UBAC_SPAN_ARG("engine.research_alpha", "engine", "hi", hi);

  AlphaResearch result;
  result.seed_alpha = alpha();

  const auto safe_at = [&](double a) {
    set_alpha(a);
    ++result.probes;
    return solve().safe();
  };

  double low = lo, high = hi;
  bool have_best = false;
  double best = result.seed_alpha;

  // Anchor at the seed when it lies inside the range: the committed
  // delays are already the fixed point there, so a safe seed costs a
  // cached (or trivially warm) solve and pins the lower bisection bound —
  // every later probe above it raises alpha and stays warm until the
  // first unsafe result.
  if (result.seed_alpha >= lo && result.seed_alpha <= hi &&
      safe_at(result.seed_alpha)) {
    best = result.seed_alpha;
    have_best = true;
    low = result.seed_alpha;
  }
  // The whole range may verify — one probe settles it.
  if (safe_at(high)) {
    best = high;
    have_best = true;
    low = high;
  } else if (have_best || safe_at(low)) {
    if (!have_best) best = low;
    have_best = true;
    while (high - low > resolution) {
      const double mid = 0.5 * (low + high);
      if (safe_at(mid)) {
        best = mid;
        low = mid;
      } else {
        high = mid;
      }
    }
  }

  // Leave the engine *committed* at the answer (the last probe may have
  // been unsafe); infeasible searches restore the seed configuration.
  result.feasible = have_best;
  result.alpha = have_best ? best : result.seed_alpha;
  set_alpha(result.alpha);
  solve();
  if (have_best && result.alpha != result.seed_alpha)
    result.deltas.push_back(ShareDelta{0, result.seed_alpha, result.alpha});
  return result;
}

MulticlassEngine::MulticlassEngine(const net::ServerGraph& graph,
                                   const traffic::ClassSet& classes,
                                   const FixedPointOptions& options)
    : EngineCore(graph, detail::Theorem5Delay(graph, classes), options) {}

}  // namespace ubac::analysis
