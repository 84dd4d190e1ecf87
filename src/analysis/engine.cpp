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

/// One restricted fixed-point pass: iterate only the closure servers,
/// walking only `paths` (the routes intersecting the closure), with every
/// other delay held fixed in `d`. Semantics match solve_two_class: early
/// sound deadline-violation exit, convergence on max delay change, final
/// route-sum check. `update` computes a server's next delay from its
/// upstream accumulation.
template <typename Update, typename RouteDeadline>
FeasibilityStatus iterate_restricted(
    const Closure& cl,
    const std::vector<std::span<const net::ServerId>>& paths,
    const RouteDeadline& deadline_of, const Update& update,
    std::vector<Seconds>& d, std::vector<Seconds>& route_delay,
    std::vector<Seconds>& upstream, int max_iterations, Seconds tolerance,
    int& iterations_out) {
  route_delay.assign(paths.size(), 0.0);
  for (int iter = 1; iter <= max_iterations; ++iter) {
    iterations_out = iter;
    for (const net::ServerId s : cl.list) upstream[s] = 0.0;
    bool violated = false;
    for (std::size_t r = 0; r < paths.size(); ++r) {
      Seconds prefix = 0.0;
      for (const net::ServerId u : paths[r]) {
        if (cl.in[u]) upstream[u] = std::max(upstream[u], prefix);
        prefix += d[u];
      }
      route_delay[r] = prefix;
      if (prefix > deadline_of(r)) violated = true;
    }
    if (violated) return FeasibilityStatus::kDeadlineViolated;

    Seconds max_change = 0.0;
    for (const net::ServerId s : cl.list) {
      const Seconds next = update(s, upstream[s]);
      max_change = std::max(max_change, std::abs(next - d[s]));
      d[s] = next;
    }
    if (max_change < tolerance) {
      bool ok = true;
      for (std::size_t r = 0; r < paths.size(); ++r) {
        Seconds total = 0.0;
        for (const net::ServerId u : paths[r]) total += d[u];
        route_delay[r] = total;
        ok = ok && total <= deadline_of(r);
      }
      return ok ? FeasibilityStatus::kSafe
                : FeasibilityStatus::kDeadlineViolated;
    }
  }
  return FeasibilityStatus::kNoConvergence;
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
// AnalysisEngine (two-class)
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

FeasibilityStatus AnalysisEngine::run_frontier(
    const std::vector<net::ServerId>& seeds,
    std::span<const net::ServerId> extra, Seconds cutoff,
    std::vector<Seconds>& d, std::vector<EngineRouteId>& touched,
    std::vector<Seconds>& touched_delay, Seconds& extra_delay, bool& cut,
    int& iterations, std::size_t& active_count) const {
  // The static reachability closure over-approximates badly on dense
  // route sets (it degenerates to the whole system). This loop instead
  // grows the re-iterated region on demand: a server joins only once the
  // accumulated change of some server upstream of it exceeds the
  // tolerance. Because beta < 1 attenuates every hop, changes decay
  // geometrically and the active region stays near the seeds. Soundness
  // is unchanged — any schedule of monotone updates from a lower bound
  // stays below the least fixed point — and unpropagated drift is capped
  // at the tolerance per server, the same slack the full sweep's stopping
  // rule already accepts.
  const std::size_t servers = graph_->size();
  const Seconds base = bucket_.burst / bucket_.rate;

  static thread_local FrontierScratch sc;
  sc.active.assign(servers, 0);
  sc.on_extra.assign(servers, 0);
  sc.changed.assign(servers, 0);
  sc.in_route.assign(routes_.size(), 0);
  sc.upstream.assign(servers, 0.0);
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
  auto relax = [&](net::ServerId u, Seconds prefix, Seconds& max_change) {
    // >= rather than >: equal prefixes must still re-apply Z so that a
    // server whose own beta or usage changed (alpha raise, first route)
    // gets updated even when its max prefix does not move.
    if (prefix >= sc.upstream[u]) {
      sc.upstream[u] = prefix;
      if (used_count_[u] > 0 || sc.on_extra[u]) {
        const Seconds next = beta_[u] * (base + prefix);
        if (next > d[u]) {
          const Seconds delta = next - d[u];
          d[u] = next;
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
      Seconds prefix = 0.0;
      for (const net::ServerId u : servers_of(sc.rlist[idx])) {
        if (sc.active[u]) relax(u, prefix, max_change);
        prefix += d[u];
      }
      sc.sums[idx] = prefix;
      if (prefix > deadline_) violated = true;
    }
    if (!extra.empty()) {
      Seconds prefix = 0.0;
      for (const net::ServerId u : extra) {
        if (sc.active[u]) relax(u, prefix, max_change);
        prefix += d[u];
      }
      extra_sum = prefix;
      if (prefix > deadline_) violated = true;
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
        Seconds total = 0.0;
        for (const net::ServerId u : servers_of(sc.rlist[idx])) total += d[u];
        touched.push_back(sc.rlist[idx]);
        touched_delay.push_back(total);
        ok = ok && total <= deadline_;
      }
      if (!extra.empty()) {
        Seconds total = 0.0;
        for (const net::ServerId u : extra) total += d[u];
        extra_sum = total;
        ok = ok && total <= deadline_;
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

AnalysisEngine::AnalysisEngine(const net::ServerGraph& graph, double alpha,
                               traffic::LeakyBucket bucket, Seconds deadline,
                               const FixedPointOptions& options)
    : graph_(&graph),
      alpha_(alpha),
      bucket_(bucket),
      deadline_(deadline),
      options_(options) {
  if (deadline <= 0.0)
    throw std::invalid_argument("AnalysisEngine: deadline must be > 0");
  const std::size_t servers = graph.size();
  routes_by_server_.resize(servers);
  used_count_.assign(servers, 0);
  delay_.assign(servers, 0.0);
  pending_dirty_.assign(servers, 0);
  rebuild_beta();
  if (options_.metrics) telemetry_ = EngineTelemetry::resolve(*options_.metrics);
}

void AnalysisEngine::rebuild_beta() {
  const std::size_t servers = graph_->size();
  beta_.resize(servers);
  for (net::ServerId s = 0; s < servers; ++s)
    beta_[s] = beta(alpha_, graph_->server(s).fan_in);
}

void AnalysisEngine::mark_dirty(net::ServerId s) {
  if (!pending_dirty_[s]) {
    pending_dirty_[s] = 1;
    pending_list_.push_back(s);
  }
  solution_fresh_ = false;
}

EngineRouteId AnalysisEngine::store(std::span<const net::ServerId> route,
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
                         true};
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

EngineRouteId AnalysisEngine::add_route(const net::ServerPath& route) {
  for (const net::ServerId s : route)
    if (s >= graph_->size())
      throw std::out_of_range("add_route: route references bad server");
  const EngineRouteId id = store(route, 0.0);
  for (const net::ServerId s : route) {
    routes_by_server_[s].push_back(id);
    ++used_count_[s];
    mark_dirty(s);
  }
  ++active_routes_;
  return id;
}

void AnalysisEngine::remove_route(EngineRouteId id) {
  if (id >= routes_.size() || !routes_[id].active)
    throw std::invalid_argument("remove_route: unknown route id");
  routes_[id].active = false;
  for (const net::ServerId s : servers_of(id)) {
    std::erase(routes_by_server_[s], id);
    --used_count_[s];
    mark_dirty(s);
  }
  dead_hops_ += routes_[id].length;
  --active_routes_;
  free_ids_.push_back(id);
  // Delays may only decrease; warm starts are sound upward only, so the
  // dirty closure restarts from zero.
  pending_cold_ = true;
}

void AnalysisEngine::set_alpha(double alpha) {
  if (alpha == alpha_) return;
  const bool decrease = alpha < alpha_;
  alpha_ = alpha;
  rebuild_beta();
  for (net::ServerId s = 0; s < graph_->size(); ++s)
    if (used_count_[s] > 0 || delay_[s] != 0.0) mark_dirty(s);
  if (decrease) pending_cold_ = true;
  solution_fresh_ = false;
}

const DelaySolution& AnalysisEngine::solve() {
  if (solution_fresh_ && pending_list_.empty() && !poisoned_) return solution_;

  const std::size_t servers = graph_->size();
  const bool warm = !poisoned_ && !pending_cold_;
  UBAC_SPAN_ARG("engine.solve", "engine", "warm", warm ? 1.0 : 0.0);
  FeasibilityStatus status;
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
    status = run_frontier(pending_list_, {},
                          std::numeric_limits<Seconds>::infinity(), delay_,
                          touched, touched_delay, unused, no_cut, iterations,
                          dirty);
    for (std::size_t r = 0; r < touched.size(); ++r)
      routes_[touched[r]].delay = touched_delay[r];
  } else {
    Closure cl;
    if (poisoned_) {
      // Previous state is not a sound lower bound (unsafe solve, or never
      // solved): restart the whole system from zero.
      std::fill(delay_.begin(), delay_.end(), 0.0);
      cl.in.assign(servers, 0);
      for (net::ServerId s = 0; s < servers; ++s)
        if (used_count_[s] > 0) {
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
      for (const net::ServerId s : cl.list) delay_[s] = 0.0;
    }

    std::vector<std::span<const net::ServerId>> paths;
    paths.reserve(cl.routes.size());
    for (const EngineRouteId rid : cl.routes) paths.push_back(servers_of(rid));

    const Seconds base = bucket_.burst / bucket_.rate;
    std::vector<Seconds> route_delay, upstream(servers, 0.0);
    status = iterate_restricted(
        cl, paths, [this](std::size_t) { return deadline_; },
        [this, base](net::ServerId s, Seconds up) {
          return used_count_[s] > 0 ? beta_[s] * (base + up) : 0.0;
        },
        delay_, route_delay, upstream, options_.max_iterations,
        options_.tolerance, iterations);

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

void AnalysisEngine::refresh_solution(int iterations) {
  solution_.server_delay = delay_;
  solution_.route_delay.assign(routes_.size(), 0.0);
  for (EngineRouteId rid = 0; rid < routes_.size(); ++rid)
    if (routes_[rid].active) solution_.route_delay[rid] = routes_[rid].delay;
  solution_.iterations = iterations;
  solution_fresh_ = true;
}

RouteProbe AnalysisEngine::probe_route(std::span<const net::ServerId> route,
                                       Seconds cutoff) const {
  UBAC_SPAN_ARG("engine.probe_route", "engine", "hops", route.size());
  if (!solution_fresh_ || poisoned_ || !pending_list_.empty())
    throw std::logic_error(
        "probe_route: engine needs a clean, safely solved committed state");
  const std::size_t servers = graph_->size();
  for (const net::ServerId s : route)
    if (s >= servers)
      throw std::out_of_range("probe_route: route references bad server");

  // Fast reject: the committed delays are a lower bound of the overlay
  // fixed point, so if their sum along the candidate already breaks the
  // deadline the converged sum must too. O(|route|), no iteration.
  Seconds lower_bound = 0.0;
  for (const net::ServerId s : route) lower_bound += delay_[s];
  if (lower_bound > deadline_) {
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
      run_frontier(kNoSeeds, route, cutoff, d, touched, touched_delay,
                   probe.route_delay, probe.cut, probe.iterations, dirty);

  if (!probe.cut) {
    for (std::size_t r = 0; r < touched.size(); ++r)
      if (touched_delay[r] != routes_[touched[r]].delay)
        probe.committed_route_delta.push_back({touched[r], touched_delay[r]});
    for (net::ServerId s = 0; s < servers; ++s)
      if (d[s] != delay_[s]) probe.server_delta.push_back({s, d[s]});
  }

  if (telemetry_.probes) telemetry_.probes->add();
  if (telemetry_.dirty_servers)
    telemetry_.dirty_servers->record(static_cast<double>(dirty));
  return probe;
}

EngineRouteId AnalysisEngine::commit_probe(
    std::span<const net::ServerId> route, const RouteProbe& probe) {
  if (!probe.safe())
    throw std::invalid_argument("commit_probe: probe is not safe");
  if (!solution_fresh_ || poisoned_ || !pending_list_.empty())
    throw std::logic_error("commit_probe: engine changed since the probe");
  const EngineRouteId id = store(route, probe.route_delay);
  for (const net::ServerId s : route) {
    routes_by_server_[s].push_back(id);
    ++used_count_[s];
  }
  ++active_routes_;
  // Apply the sparse delta to both the committed state and the cached
  // solution — a full refresh_solution would rebuild the per-route vector
  // and make a run of n commits quadratic.
  for (const auto& [s, v] : probe.server_delta) {
    delay_[s] = v;
    solution_.server_delay[s] = v;
  }
  for (const auto& [rid, v] : probe.committed_route_delta) {
    routes_[rid].delay = v;
    solution_.route_delay[rid] = v;
  }
  solution_.route_delay.resize(routes_.size(), 0.0);
  solution_.route_delay[id] = probe.route_delay;
  solution_.iterations = probe.iterations;
  solution_fresh_ = true;
  return id;
}

AlphaResearch AnalysisEngine::research_alpha(double lo, double hi,
                                             double resolution) {
  if (!(lo >= 0.0) || !(hi <= 1.0) || lo > hi)
    throw std::invalid_argument("research_alpha: need 0 <= lo <= hi <= 1");
  if (!(resolution > 0.0))
    throw std::invalid_argument("research_alpha: resolution must be > 0");
  UBAC_SPAN_ARG("engine.research_alpha", "engine", "hi", hi);

  AlphaResearch result;
  result.seed_alpha = alpha_;

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

Seconds AnalysisEngine::route_delay(EngineRouteId id) const {
  if (id >= routes_.size() || !routes_[id].active)
    throw std::invalid_argument("route_delay: unknown route id");
  return routes_[id].delay;
}

// ---------------------------------------------------------------------------
// MulticlassEngine
// ---------------------------------------------------------------------------

MulticlassEngine::MulticlassEngine(const net::ServerGraph& graph,
                                   const traffic::ClassSet& classes,
                                   const FixedPointOptions& options)
    : graph_(&graph),
      classes_(&classes),
      options_(options),
      servers_(graph.size()),
      num_classes_(classes.size()) {
  routes_by_server_.resize(servers_);
  used_count_.assign(num_classes_ * servers_, 0);
  delay_.assign(num_classes_ * servers_, 0.0);
  pending_dirty_.assign(servers_, 0);
  if (options_.metrics) telemetry_ = EngineTelemetry::resolve(*options_.metrics);
}

void MulticlassEngine::mark_dirty(net::ServerId s) {
  if (!pending_dirty_[s]) {
    pending_dirty_[s] = 1;
    pending_list_.push_back(s);
  }
  solution_fresh_ = false;
}

EngineRouteId MulticlassEngine::add_route(const traffic::Demand& demand,
                                          const net::ServerPath& route) {
  if (demand.class_index >= num_classes_ ||
      !classes_->at(demand.class_index).realtime)
    throw std::invalid_argument("add_route: demand class must be realtime");
  for (const net::ServerId s : route)
    if (s >= servers_)
      throw std::out_of_range("add_route: route references bad server");
  EngineRouteId id;
  if (!free_ids_.empty()) {
    id = free_ids_.back();
    free_ids_.pop_back();
    routes_[id] = RouteEntry{demand, route, 0.0, true};
  } else {
    id = routes_.size();
    routes_.push_back(RouteEntry{demand, route, 0.0, true});
  }
  for (const net::ServerId s : route) {
    routes_by_server_[s].push_back(id);
    ++used_count_[demand.class_index * servers_ + s];
    mark_dirty(s);
  }
  ++active_routes_;
  return id;
}

void MulticlassEngine::remove_route(EngineRouteId id) {
  if (id >= routes_.size() || !routes_[id].active)
    throw std::invalid_argument("remove_route: unknown route id");
  RouteEntry& entry = routes_[id];
  entry.active = false;
  for (const net::ServerId s : entry.servers) {
    std::erase(routes_by_server_[s], id);
    --used_count_[entry.demand.class_index * servers_ + s];
    mark_dirty(s);
  }
  --active_routes_;
  free_ids_.push_back(id);
  pending_cold_ = true;
}

const MulticlassSolution& MulticlassEngine::solve() {
  if (solution_fresh_ && pending_list_.empty() && !poisoned_) return solution_;

  Closure cl;
  const bool warm = !poisoned_ && !pending_cold_;
  UBAC_SPAN_ARG("engine.solve", "engine", "warm", warm ? 1.0 : 0.0);
  auto route_path = [this](EngineRouteId rid) {
    return std::span<const net::ServerId>(routes_[rid].servers);
  };
  if (poisoned_) {
    std::fill(delay_.begin(), delay_.end(), 0.0);
    cl.in.assign(servers_, 0);
    for (net::ServerId s = 0; s < servers_; ++s) {
      for (std::size_t i = 0; i < num_classes_; ++i)
        if (used_count_[i * servers_ + s] > 0) {
          cl.in[s] = 1;
          cl.list.push_back(s);
          break;
        }
    }
    for (EngineRouteId rid = 0; rid < routes_.size(); ++rid)
      if (routes_[rid].active) cl.routes.push_back(rid);
  } else {
    build_closure(servers_, routes_.size(), pending_list_, routes_by_server_,
                  route_path, cl);
    if (pending_cold_)
      for (const net::ServerId s : cl.list)
        for (std::size_t i = 0; i < num_classes_; ++i)
          delay_[i * servers_ + s] = 0.0;
  }

  // Multi-class restricted iteration (mirrors solve_multiclass, touching
  // only closure servers and the routes crossing them).
  std::vector<Seconds> upstream(num_classes_ * servers_, 0.0);
  std::vector<Seconds> upstream_at_k(num_classes_, 0.0);
  std::vector<Seconds> route_delay(cl.routes.size(), 0.0);
  int iterations = 0;
  FeasibilityStatus status = FeasibilityStatus::kNoConvergence;
  for (int iter = 1; iter <= options_.max_iterations; ++iter) {
    iterations = iter;
    for (const net::ServerId s : cl.list)
      for (std::size_t i = 0; i < num_classes_; ++i)
        upstream[i * servers_ + s] = 0.0;
    bool violated = false;
    for (std::size_t r = 0; r < cl.routes.size(); ++r) {
      const RouteEntry& entry = routes_[cl.routes[r]];
      const std::size_t i = entry.demand.class_index;
      Seconds prefix = 0.0;
      for (const net::ServerId u : entry.servers) {
        if (cl.in[u])
          upstream[i * servers_ + u] =
              std::max(upstream[i * servers_ + u], prefix);
        prefix += delay_[i * servers_ + u];
      }
      route_delay[r] = prefix;
      if (prefix > classes_->at(i).deadline) violated = true;
    }
    if (violated) {
      status = FeasibilityStatus::kDeadlineViolated;
      break;
    }

    Seconds max_change = 0.0;
    for (const net::ServerId s : cl.list) {
      for (std::size_t l = 0; l < num_classes_; ++l)
        upstream_at_k[l] = upstream[l * servers_ + s];
      for (std::size_t i = 0; i < num_classes_; ++i) {
        if (!classes_->at(i).realtime) continue;
        Seconds next = 0.0;
        if (used_count_[i * servers_ + s] > 0)
          next = theorem5_delay(*classes_, i, graph_->server(s).fan_in,
                                upstream_at_k);
        max_change =
            std::max(max_change, std::abs(next - delay_[i * servers_ + s]));
        delay_[i * servers_ + s] = next;
      }
    }
    if (max_change < options_.tolerance) {
      bool ok = true;
      for (std::size_t r = 0; r < cl.routes.size(); ++r) {
        const RouteEntry& entry = routes_[cl.routes[r]];
        const std::size_t i = entry.demand.class_index;
        Seconds total = 0.0;
        for (const net::ServerId u : entry.servers)
          total += delay_[i * servers_ + u];
        route_delay[r] = total;
        ok = ok && total <= classes_->at(i).deadline;
      }
      status = ok ? FeasibilityStatus::kSafe
                  : FeasibilityStatus::kDeadlineViolated;
      break;
    }
  }

  for (std::size_t r = 0; r < cl.routes.size(); ++r)
    routes_[cl.routes[r]].delay = route_delay[r];

  if (telemetry_.dirty_servers)
    telemetry_.dirty_servers->record(static_cast<double>(cl.list.size()));
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

void MulticlassEngine::refresh_solution(int iterations) {
  solution_.class_server_delay.assign(num_classes_,
                                      std::vector<Seconds>(servers_, 0.0));
  for (std::size_t i = 0; i < num_classes_; ++i)
    for (net::ServerId s = 0; s < servers_; ++s)
      solution_.class_server_delay[i][s] = delay_[i * servers_ + s];
  solution_.route_delay.assign(routes_.size(), 0.0);
  for (EngineRouteId rid = 0; rid < routes_.size(); ++rid)
    if (routes_[rid].active) solution_.route_delay[rid] = routes_[rid].delay;
  solution_.iterations = iterations;
  solution_fresh_ = true;
}

RouteProbe MulticlassEngine::probe_route(const traffic::Demand& demand,
                                         const net::ServerPath& route) const {
  UBAC_SPAN_ARG("engine.probe_route", "engine", "hops", route.size());
  if (!solution_fresh_ || poisoned_ || !pending_list_.empty())
    throw std::logic_error(
        "probe_route: engine needs a clean, safely solved committed state");
  if (demand.class_index >= num_classes_ ||
      !classes_->at(demand.class_index).realtime)
    throw std::invalid_argument("probe_route: demand class must be realtime");
  for (const net::ServerId s : route)
    if (s >= servers_)
      throw std::out_of_range("probe_route: route references bad server");

  // Fast reject on the committed lower bound, as in the two-class probe.
  {
    Seconds lower_bound = 0.0;
    for (const net::ServerId s : route)
      lower_bound += delay_[demand.class_index * servers_ + s];
    if (lower_bound > classes_->at(demand.class_index).deadline) {
      RouteProbe probe;
      probe.status = FeasibilityStatus::kDeadlineViolated;
      probe.route_delay = lower_bound;
      if (telemetry_.probes) telemetry_.probes->add();
      if (telemetry_.dirty_servers) telemetry_.dirty_servers->record(0.0);
      return probe;
    }
  }

  Closure cl;
  auto route_path = [this](EngineRouteId rid) {
    return std::span<const net::ServerId>(routes_[rid].servers);
  };
  std::vector<net::ServerId> seeds(route.begin(), route.end());
  build_closure(servers_, routes_.size(), seeds, routes_by_server_, route_path,
                cl);

  const std::size_t cand_class = demand.class_index;
  std::vector<char> on_candidate(servers_, 0);
  for (const net::ServerId s : route) on_candidate[s] = 1;

  std::vector<Seconds> d = delay_;  // forked view
  std::vector<Seconds> upstream(num_classes_ * servers_, 0.0);
  std::vector<Seconds> upstream_at_k(num_classes_, 0.0);
  std::vector<Seconds> route_delay(cl.routes.size() + 1, 0.0);
  RouteProbe probe;
  probe.status = FeasibilityStatus::kNoConvergence;
  for (int iter = 1; iter <= options_.max_iterations; ++iter) {
    probe.iterations = iter;
    for (const net::ServerId s : cl.list)
      for (std::size_t i = 0; i < num_classes_; ++i)
        upstream[i * servers_ + s] = 0.0;
    bool violated = false;
    auto walk = [&](std::size_t i, const net::ServerPath& path,
                    std::size_t out_index) {
      Seconds prefix = 0.0;
      for (const net::ServerId u : path) {
        if (cl.in[u])
          upstream[i * servers_ + u] =
              std::max(upstream[i * servers_ + u], prefix);
        prefix += d[i * servers_ + u];
      }
      route_delay[out_index] = prefix;
      if (prefix > classes_->at(i).deadline) violated = true;
    };
    for (std::size_t r = 0; r < cl.routes.size(); ++r) {
      const RouteEntry& entry = routes_[cl.routes[r]];
      walk(entry.demand.class_index, entry.servers, r);
    }
    walk(cand_class, route, cl.routes.size());
    if (violated) {
      probe.status = FeasibilityStatus::kDeadlineViolated;
      break;
    }

    Seconds max_change = 0.0;
    for (const net::ServerId s : cl.list) {
      for (std::size_t l = 0; l < num_classes_; ++l)
        upstream_at_k[l] = upstream[l * servers_ + s];
      for (std::size_t i = 0; i < num_classes_; ++i) {
        if (!classes_->at(i).realtime) continue;
        const bool used = used_count_[i * servers_ + s] > 0 ||
                          (i == cand_class && on_candidate[s]);
        Seconds next = 0.0;
        if (used)
          next = theorem5_delay(*classes_, i, graph_->server(s).fan_in,
                                upstream_at_k);
        max_change =
            std::max(max_change, std::abs(next - d[i * servers_ + s]));
        d[i * servers_ + s] = next;
      }
    }
    if (max_change < options_.tolerance) {
      bool ok = true;
      auto total_of = [&](std::size_t i, const net::ServerPath& path,
                          std::size_t out_index) {
        Seconds total = 0.0;
        for (const net::ServerId u : path) total += d[i * servers_ + u];
        route_delay[out_index] = total;
        ok = ok && total <= classes_->at(i).deadline;
      };
      for (std::size_t r = 0; r < cl.routes.size(); ++r) {
        const RouteEntry& entry = routes_[cl.routes[r]];
        total_of(entry.demand.class_index, entry.servers, r);
      }
      total_of(cand_class, route, cl.routes.size());
      probe.status = ok ? FeasibilityStatus::kSafe
                        : FeasibilityStatus::kDeadlineViolated;
      break;
    }
  }
  probe.route_delay = route_delay.back();

  for (const net::ServerId s : cl.list)
    for (std::size_t i = 0; i < num_classes_; ++i) {
      const std::size_t flat = i * servers_ + s;
      if (d[flat] != delay_[flat]) probe.server_delta.push_back({flat, d[flat]});
    }
  for (std::size_t r = 0; r < cl.routes.size(); ++r)
    if (route_delay[r] != routes_[cl.routes[r]].delay)
      probe.committed_route_delta.push_back({cl.routes[r], route_delay[r]});

  if (telemetry_.probes) telemetry_.probes->add();
  if (telemetry_.dirty_servers)
    telemetry_.dirty_servers->record(static_cast<double>(cl.list.size()));
  return probe;
}

EngineRouteId MulticlassEngine::commit_probe(const traffic::Demand& demand,
                                             const net::ServerPath& route,
                                             const RouteProbe& probe) {
  if (!probe.safe())
    throw std::invalid_argument("commit_probe: probe is not safe");
  if (!solution_fresh_ || poisoned_ || !pending_list_.empty())
    throw std::logic_error("commit_probe: engine changed since the probe");
  EngineRouteId id;
  if (!free_ids_.empty()) {
    id = free_ids_.back();
    free_ids_.pop_back();
    routes_[id] = RouteEntry{demand, route, probe.route_delay, true};
  } else {
    id = routes_.size();
    routes_.push_back(RouteEntry{demand, route, probe.route_delay, true});
  }
  for (const net::ServerId s : route) {
    routes_by_server_[s].push_back(id);
    ++used_count_[demand.class_index * servers_ + s];
  }
  ++active_routes_;
  // Sparse-delta update of state and cached solution, as in
  // AnalysisEngine::commit_probe (a full refresh would be quadratic over a
  // run of commits).
  for (const auto& [flat, v] : probe.server_delta) {
    delay_[flat] = v;
    solution_.class_server_delay[flat / servers_][flat % servers_] = v;
  }
  for (const auto& [rid, v] : probe.committed_route_delta) {
    routes_[rid].delay = v;
    solution_.route_delay[rid] = v;
  }
  solution_.route_delay.resize(routes_.size(), 0.0);
  solution_.route_delay[id] = probe.route_delay;
  solution_.iterations = probe.iterations;
  solution_fresh_ = true;
  return id;
}

Seconds MulticlassEngine::route_delay(EngineRouteId id) const {
  if (id >= routes_.size() || !routes_[id].active)
    throw std::invalid_argument("route_delay: unknown route id");
  return routes_[id].delay;
}

}  // namespace ubac::analysis
