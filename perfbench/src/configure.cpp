// Configuration-time workload: configure.
//
// One thread configures a seed-derived list of random 30-router topologies
// with all 870 ordered VoIP demands each: Configurator::maximize with
// default options (no thread pool), then the commit to run time, i.e. the
// routing table and the admission controller. The traced run times the
// same configuration broken into its layer calls.

#include <algorithm>
#include <memory>

#include "admission/controller.hpp"
#include "analysis/engine.hpp"
#include "config/configurator.hpp"
#include "net/ksp.hpp"
#include "net/topology_factory.hpp"
#include "routing/max_util_search.hpp"
#include "routing/route_selection.hpp"
#include "traffic/service_class.hpp"
#include "traffic/workload.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace adm = ubac::admission;
using ubac::traffic::Demand;

constexpr std::size_t kNodes = 30;
constexpr double kAverageDegree = 3.5;
constexpr std::size_t kTopologies = 100;
/// Enough configurations for ten to lie beyond p90.
constexpr std::size_t kMinConfigurations = 100;
const ubac::traffic::LeakyBucket kBucket{640.0, ubac::units::kbps(32)};
constexpr ubac::Seconds kDeadline = ubac::units::milliseconds(100);

/// One topology of the list with its demands.
struct Case {
  explicit Case(std::uint64_t seed)
      : topo(ubac::net::random_connected(kNodes, kAverageDegree, seed)),
        graph(topo),
        demands(ubac::traffic::all_ordered_pairs(topo)) {}
  Case(const Case&) = delete;
  Case& operator=(const Case&) = delete;

  ubac::net::Topology topo;
  ubac::net::ServerGraph graph;  // points into topo
  std::vector<Demand> demands;
};

std::vector<std::unique_ptr<Case>> make_cases(std::uint64_t seed) {
  std::vector<std::unique_ptr<Case>> cases;
  for (std::size_t i = 0; i < kTopologies; ++i)
    cases.push_back(std::make_unique<Case>(derive_seed(seed, 1000 + i)));
  return cases;
}

/// Run-time commit of a configuration: routing table and controller.
/// Returns the controller construction time alone.
double commit_to_run_time(const Case& c,
                          const ubac::config::NetworkConfig& cfg) {
  adm::RoutingTable table = cfg.routing_table(c.graph);
  const auto classes =
      ubac::traffic::ClassSet::two_class(kBucket, kDeadline, cfg.alpha);
  Span span;
  span.start();
  const adm::AdmissionController ctl(c.graph, classes, std::move(table));
  span.stop();
  return span.seconds();
}

struct Configured {
  bool success = false;
  double alpha = 0.0;
  std::vector<ubac::net::NodePath> routes;
};

/// One end-to-end configuration, as an operator runs it.
Configured configure(const Case& c) {
  const ubac::config::Configurator configurator(c.graph, kBucket, kDeadline);
  auto result = configurator.maximize(c.demands);
  Configured out;
  if (!result.success) return out;
  commit_to_run_time(c, result.config);
  out.success = true;
  out.alpha = result.config.alpha;
  out.routes = std::move(result.config.routes);
  return out;
}

/// Per-layer times and counts of the traced run, one entry per call.
struct LayerTimes {
  std::vector<double> ksp, maximize, commit, construct, select, verify;
  std::vector<double> probes, reverify_hits;
};

/// The same configuration with a timer around each layer call.
bool configure_traced(const Case& c, LayerTimes& layers) {
  Span span;
  span.start();
  std::vector<std::vector<ubac::net::NodePath>> candidates;
  candidates.reserve(c.demands.size());
  ubac::routing::HeuristicOptions heuristic;
  for (const Demand& d : c.demands)
    candidates.push_back(ubac::net::k_shortest_paths(
        c.topo, d.src, d.dst, heuristic.candidates_per_pair));
  span.stop();
  layers.ksp.push_back(span.seconds());

  heuristic.candidates = &candidates;
  span.start();
  const auto search = ubac::routing::maximize_utilization_heuristic(
      c.graph, kBucket, kDeadline, c.demands, heuristic);
  span.stop();
  layers.maximize.push_back(span.seconds());
  layers.probes.push_back(search.probes);
  layers.reverify_hits.push_back(search.reverify_hits);
  if (!search.any_feasible) return false;

  const ubac::config::Configurator configurator(c.graph, kBucket, kDeadline);
  span.start();
  const auto committed =
      configurator.verify(search.max_alpha, c.demands, search.best.routes);
  span.stop();
  layers.commit.push_back(span.seconds());
  if (!committed.success) return false;

  layers.construct.push_back(commit_to_run_time(c, committed.config));
  return true;
}

/// Layer calls outside the configuration path: one route selection at the
/// found alpha with candidates precomputed, and a cold engine solve of the
/// committed route set.
bool probe_layers(const Case& c, LayerTimes& layers) {
  ubac::routing::HeuristicOptions heuristic;
  std::vector<std::vector<ubac::net::NodePath>> candidates;
  for (const Demand& d : c.demands)
    candidates.push_back(ubac::net::k_shortest_paths(
        c.topo, d.src, d.dst, heuristic.candidates_per_pair));
  heuristic.candidates = &candidates;
  const auto search = ubac::routing::maximize_utilization_heuristic(
      c.graph, kBucket, kDeadline, c.demands, heuristic);
  if (!search.any_feasible) return false;

  Span span;
  span.start();
  const auto selected = ubac::routing::select_routes_heuristic(
      c.graph, search.max_alpha, kBucket, kDeadline, c.demands, heuristic);
  span.stop();
  layers.select.push_back(span.seconds());

  span.start();
  ubac::analysis::AnalysisEngine engine(c.graph, search.max_alpha, kBucket,
                                        kDeadline);
  for (const auto& route : search.best.server_routes) engine.add_route(route);
  const bool safe = engine.solve().status ==
                    ubac::analysis::FeasibilityStatus::kSafe;
  span.stop();
  layers.verify.push_back(span.seconds());
  return selected.success && safe;
}

/// Configure cases round-robin from `next` until `seconds` passed and at
/// least `min_count` ran. Returns the per-configuration times.
template <class Fn>
std::vector<double> configure_for(
    const std::vector<std::unique_ptr<Case>>& cases, double seconds,
    std::size_t min_count, std::size_t& next, Fn&& fn) {
  std::vector<double> times;
  const std::int64_t end =
      steady_ns() + static_cast<std::int64_t>(seconds * 1e9);
  while (times.size() < min_count || steady_ns() < end) {
    Span span;
    span.start();
    fn(next % cases.size());
    span.stop();
    times.push_back(span.seconds());
    ++next;
  }
  return times;
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

}  // namespace

Outcome run_configure(const Options& options) {
  Outcome out;
  out.notes.push_back(host_line("off (one thread)"));
  SetupTimer timer;
  std::vector<std::unique_ptr<Case>> cases;
  while (timer.another()) {
    cases.clear();
    Span span;
    span.start();
    cases = make_cases(options.seed);
    span.stop();
    timer.record(span.seconds());
  }
  out.values["setup_s"] = median(timer.timed());
  out.notes.push_back(format("setup: %zu topologies of %zu routers, %zu "
                             "demands each; median %.4f s of %zu timed",
                             cases.size(), kNodes, cases[0]->demands.size(),
                             out.values["setup_s"], timer.timed().size()));

  std::vector<Configured> results(cases.size());
  std::size_t next = 0;
  const auto run = [&](std::size_t i) {
    Configured c = configure(*cases[i]);
    if (results[i].routes.empty()) results[i] = std::move(c);
  };

  if (!options.trace) {
    std::vector<double> times =
        configure_for(cases, options.seconds, kMinConfigurations, next, run);
    const std::uint32_t tail_q = tail_percentile(times.size(), 9000);
    const double p50 = percentile(times, 5000);
    const double tail = percentile(times, tail_q);
    out.values["ops_per_s"] = static_cast<double>(times.size()) / sum(times);
    out.values["op_p50_ns"] = p50 * 1e9;
    out.values["op_tail_ns"] = tail * 1e9;
    out.notes.push_back(format(
        "configure: %zu configurations in %.3f s; p50 %.4f s, %s %.4f s over "
        "%zu samples",
        times.size(), sum(times), p50, percentile_label(tail_q).c_str(), tail,
        times.size()));
  } else {
    const auto untraced =
        configure_for(cases, 0.5 * options.seconds, 1, next, run);
    LayerTimes layers;
    std::size_t traced_next = 0;
    bool ok = true;
    const auto traced = configure_for(
        cases, 0.3 * options.seconds, 1, traced_next,
        [&](std::size_t i) { ok = configure_traced(*cases[i], layers) && ok; });
    const std::int64_t probe_end =
        steady_ns() + static_cast<std::int64_t>(0.2 * options.seconds * 1e9);
    for (std::size_t i = 0; i < traced.size(); ++i) {
      ok = probe_layers(*cases[i], layers) && ok;
      if (steady_ns() >= probe_end) break;
    }
    out.checks.expect(ok, "traced configuration failed");
    const double untraced_rate =
        static_cast<double>(untraced.size()) / sum(untraced);
    const double traced_rate = static_cast<double>(traced.size()) / sum(traced);
    out.values["net.ksp_s"] = median(layers.ksp);
    out.values["routing.maximize_s"] = median(layers.maximize);
    out.values["routing.maximize_probes"] = median(layers.probes);
    out.values["routing.reverify_hits"] = median(layers.reverify_hits);
    out.values["routing.select_s"] = median(layers.select);
    out.values["analysis.verify_s"] = median(layers.verify);
    out.values["config.commit_s"] = median(layers.commit);
    out.values["admission.construct_s"] = median(layers.construct);
    out.values["harness.untraced_ops_per_s"] = untraced_rate;
    out.values["harness.traced_ops_per_s"] = traced_rate;
    out.values["harness.trace_overhead"] = 1.0 - traced_rate / untraced_rate;
    out.notes.push_back(format(
        "trace: untraced %.3f configurations/s, traced %.3f/s (overhead "
        "%.1f%%) over %zu and %zu configurations",
        untraced_rate, traced_rate,
        100.0 * out.values["harness.trace_overhead"], untraced.size(),
        traced.size()));
  }

  // Every configuration verified safe, re-checked through the public
  // verify entry point; the quality metric is the mean verified alpha.
  double alpha_sum = 0.0;
  std::size_t configured = 0;
  out.checks.attempt(next);
  for (std::size_t i = 0; i < std::min(next, cases.size()); ++i) {
    const Configured& r = results[i];
    if (!r.success) {
      out.checks.fail(1, "configuration " + std::to_string(i) +
                             " found no feasible alpha");
      continue;
    }
    const ubac::config::Configurator configurator(cases[i]->graph, kBucket,
                                                  kDeadline);
    out.checks.expect(
        configurator.verify(r.alpha, cases[i]->demands, r.routes).success,
        "configuration " + std::to_string(i) + " does not re-verify");
    alpha_sum += r.alpha;
    ++configured;
  }
  if (!options.trace) {
    out.values["quality"] =
        configured ? alpha_sum / static_cast<double>(configured) : 0.0;
    out.notes.push_back(format("verified alpha: mean %.5f over %zu topologies",
                               out.values["quality"], configured));
  }
  return out;
}

}  // namespace perfbench
