// ubac_configtool — command-line front end for the configuration module.
//
// Subcommands (first positional argument):
//   bounds       print the Theorem 4 utilization envelope for a topology
//   maximize     run Section 5.3 (binary search + heuristic route selection)
//                and write the configuration artifact
//   verify       re-verify a configuration artifact (Fig. 2)
//   reroute      reroute a configuration around a failed duplex link
//   metricsdump  run an instrumented admission churn (+ fixed-point solve)
//                and export the telemetry snapshot as Prometheus text,
//                JSON, or CSV (docs/observability.md)
//   audit        configure -> simulate -> audit in one shot: verify a
//                utilization, drive greedy packet traffic over the chosen
//                routes, and check every measured delay against the
//                configured bounds (guarantee auditor + deadline watchdog)
//   serve        long-running live-telemetry mode: configure, run Poisson
//                admission churn in the background, and expose /metrics,
//                /healthz, /series, /alerts, /alerts/config and /reconfig
//                over an embedded HTTP endpoint until SIGINT. With
//                --actuate the alert->analysis->admission control loop is
//                closed live: firing alerts trigger a warm alpha re-search
//                and an atomic budget swap (docs/observability.md)
//
// Topologies are read from --topology=<file> (net/topology_io.hpp format)
// or default to the built-in MCI backbone. Configurations use the
// config/configurator.hpp text format.
//
// --trace-out=<file> works with every subcommand: it enables span tracing
// for the whole invocation and writes a Chrome trace-event / Perfetto
// compatible JSON timeline on exit (config-time spans on wall time;
// `audit` adds per-server packet lanes on sim time, `metricsdump` adds
// the admission event trace).
//
// Examples:
//   ubac_configtool bounds --deadline-ms=50
//   ubac_configtool maximize --out=/tmp/net.conf --trace-out=/tmp/trace.json
//   ubac_configtool verify --config=/tmp/net.conf
//   ubac_configtool reroute --config=/tmp/net.conf --fail=Chicago:NewYork
//       --out=/tmp/healed.conf
//   ubac_configtool metricsdump --threads=4 --ops=100000 --format=prom
//   ubac_configtool metricsdump --format=all --out=/tmp/ubac_metrics
//       --trace-out=/tmp/ubac_trace.json
//   ubac_configtool audit --alpha=0.30 --policy=sp
//   ubac_configtool audit --policy=fifo --be-flows=8 --deadline-ms=20
//   ubac_configtool serve --port=9177 --load-rate=80 --watch
//   ubac_configtool serve --duration-s=10 --tick-ms=100
//   ubac_configtool serve --actuate --cooldown-s=2 --max-step=0.1
//       --load-rate=400 --load-seed=42 --alert-headroom=0.8

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string_view>
#include <thread>
#include <vector>

#include "ubac.hpp"
#include "util/parse_number.hpp"

using namespace ubac;

namespace {

// Non-null while --trace-out is active: commands append extra lanes (packet
// trace, admission events) to the same Chrome timeline main() writes out.
telemetry::SpanRecorder* g_spans = nullptr;
telemetry::ChromeTraceWriter* g_chrome = nullptr;

net::Topology load_topology(const util::ArgParser& args) {
  const std::string path = args.get("topology", "");
  if (path.empty()) return net::mci_backbone();
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open topology file " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return net::from_text(text.str());
}

traffic::LeakyBucket bucket_from(const util::ArgParser& args) {
  return traffic::LeakyBucket(args.get_double("burst", 640.0),
                              units::kbps(args.get_double("rate-kbps", 32.0)));
}

Seconds deadline_from(const util::ArgParser& args) {
  return units::milliseconds(args.get_double("deadline-ms", 100.0));
}

config::NetworkConfig load_config(const util::ArgParser& args,
                                  const net::Topology& topo) {
  const std::string path = args.get("config", "");
  if (path.empty()) throw std::runtime_error("--config=<file> is required");
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open config file " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return config::from_text(text.str(), topo);
}

void save_config(const config::NetworkConfig& cfg, const net::Topology& topo,
                 const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << config::to_text(cfg, topo);
  std::printf("configuration written to %s\n", path.c_str());
}

int cmd_bounds(const util::ArgParser& args) {
  const auto topo = load_topology(args);
  const int l = net::diameter(topo);
  const auto n = static_cast<double>(topo.max_in_degree());
  const auto bucket = bucket_from(args);
  const Seconds deadline = deadline_from(args);
  std::printf("%s: L=%d, N=%.0f\n", topo.name().c_str(), l, n);
  std::printf("Theorem 4 envelope: [%.4f, %.4f]\n",
              analysis::alpha_lower_bound(n, l, bucket, deadline),
              analysis::alpha_upper_bound(n, l, bucket, deadline));
  return 0;
}

int cmd_maximize(const util::ArgParser& args) {
  const auto topo = load_topology(args);
  const net::ServerGraph graph(topo);
  const config::Configurator configurator(graph, bucket_from(args),
                                          deadline_from(args));
  const auto demands = traffic::all_ordered_pairs(topo);
  routing::HeuristicOptions heuristic;
  heuristic.candidates_per_pair =
      static_cast<std::size_t>(args.get_long("candidates", 8));
  const auto result = configurator.maximize(demands, heuristic);
  if (!result.success) {
    std::fprintf(stderr, "maximize failed: %s\n",
                 result.failure_reason.c_str());
    return 1;
  }
  std::fputs(config::describe(result.config, graph, result.report).c_str(),
             stdout);
  const std::string out = args.get("out", "");
  if (!out.empty()) save_config(result.config, topo, out);
  return 0;
}

int cmd_verify(const util::ArgParser& args) {
  const auto topo = load_topology(args);
  const net::ServerGraph graph(topo);
  const auto cfg = load_config(args, topo);
  const config::Configurator configurator(
      graph, cfg.bucket, cfg.deadline > 0.0 ? cfg.deadline : 0.1);
  const auto result = configurator.verify(cfg.alpha, cfg.demands, cfg.routes);
  std::fputs(config::describe(cfg, graph, result.report).c_str(), stdout);
  return result.success ? 0 : 1;
}

/// Run an instrumented admission churn over the built-in (or given)
/// topology and export the resulting telemetry snapshot. This exercises
/// the whole observability path end to end: controller decision counters,
/// utilization gauges, decision-latency histogram, solver instruments,
/// the admit/reject event trace, and all three exporters.
int cmd_metricsdump(const util::ArgParser& args) {
  const auto topo = load_topology(args);
  const net::ServerGraph graph(topo, 6u);
  const auto bucket = bucket_from(args);
  const Seconds deadline = deadline_from(args);
  const double alpha = args.get_double("alpha", 0.32);
  const auto threads =
      static_cast<std::size_t>(args.get_long("threads", 4));
  const auto ops = static_cast<std::size_t>(args.get_long("ops", 100'000));
  const double sampling = args.get_double("sampling", 1.0);

  const auto demands = traffic::all_ordered_pairs(topo);
  std::vector<net::ServerPath> routes;
  for (const auto& d : demands)
    routes.push_back(
        graph.map_path(net::shortest_path(topo, d.src, d.dst).value()));
  const admission::RoutingTable table(demands, routes);
  const auto classes = traffic::ClassSet::two_class(bucket, deadline, alpha);

  telemetry::MetricsRegistry registry;
  telemetry::EventTracer tracer(4096, sampling);

  // Configuration-side instruments: one verifying fixed-point solve.
  analysis::FixedPointOptions fp_options;
  fp_options.metrics = &registry;
  analysis::solve_two_class(graph, alpha, bucket, deadline, routes,
                            fp_options);

  // Run-time instruments: randomized admit/release churn across threads.
  admission::AdmissionController ctl(graph, classes, table);
  admission::ControllerTelemetry ctl_telemetry(registry, "concurrent",
                                               &tracer);
  ctl.attach_telemetry(&ctl_telemetry);
  {
    util::ThreadPool pool(threads);
    pool.parallel_for(threads, [&](std::size_t t) {
      util::Xoshiro256 rng(0xD1CE + t);
      std::vector<traffic::FlowId> held;
      for (std::size_t k = 0; k < ops; ++k) {
        if (!held.empty() && rng.bernoulli(0.4)) {
          const auto pos = rng.uniform_index(held.size());
          ctl.release(held[pos]);
          held[pos] = held.back();
          held.pop_back();
        } else {
          const auto& d = demands[rng.uniform_index(demands.size())];
          const auto decision = ctl.request(d.src, d.dst, d.class_index);
          if (decision.admitted()) held.push_back(decision.flow_id);
        }
      }
    });
  }
  admission::update_utilization_gauges(registry, "concurrent", ctl);

  const auto snapshot = registry.snapshot();
  const std::string format = args.get("format", "prom");
  const std::string out = args.get("out", "");
  const auto emit = [&](const std::string& fmt) {
    std::string text;
    if (fmt == "prom") {
      text = telemetry::to_prometheus(snapshot);
    } else if (fmt == "json") {
      text = telemetry::to_json(snapshot);
    } else if (fmt == "csv") {
      if (out.empty())
        throw std::runtime_error("--format=csv requires --out=<prefix>");
      util::CsvWriter csv(out + ".csv");
      telemetry::write_csv(snapshot, csv);
      std::printf("metrics written to %s.csv\n", out.c_str());
      return;
    } else {
      throw std::runtime_error("--format must be prom, json, csv, or all");
    }
    if (out.empty()) {
      std::fputs(text.c_str(), stdout);
    } else {
      const std::string path = out + (fmt == "prom" ? ".prom" : ".json");
      telemetry::write_file(path, text);
      std::printf("metrics written to %s\n", path.c_str());
    }
  };
  if (format == "all") {
    if (out.empty())
      throw std::runtime_error("--format=all requires --out=<prefix>");
    emit("prom");
    emit("json");
    emit("csv");
  } else {
    emit(format);
  }

  if (g_chrome != nullptr) {
    // Bridge the admission event ring into the shared Chrome timeline
    // (wall-clock instants, rebased to the span recorder's epoch).
    g_chrome->add_tracer_events(tracer, telemetry::span_epoch_ns(*g_spans),
                                /*pid=*/1, /*tid=*/9999);
    std::printf("trace: %llu admission events bridged (%zu retained)\n",
                static_cast<unsigned long long>(tracer.recorded()),
                tracer.snapshot().size());
  }
  return 0;
}

/// Configure -> simulate -> audit in one shot (docs/observability.md).
/// Selects verified shortest-path routes for the longest demand pairs,
/// floods them with adversarial greedy sources, and audits every measured
/// per-hop sojourn and end-to-end delay against the configured bounds.
/// Exit code 0 iff the audit finds no violation and the deadline-miss
/// watchdog never trips.
int cmd_audit(const util::ArgParser& args) {
  const auto topo = load_topology(args);
  const net::ServerGraph graph(topo, 6u);
  const auto bucket = bucket_from(args);
  const Seconds deadline = deadline_from(args);
  const double alpha = args.get_double("alpha", 0.30);
  const auto pairs = static_cast<std::size_t>(args.get_long("pairs", 12));
  const int flows = static_cast<int>(args.get_long("flows", 20));
  const int be_flows = static_cast<int>(args.get_long("be-flows", 0));
  const Seconds horizon = args.get_double("horizon-s", 0.5);
  const Bits packet = args.get_double("packet", 640.0);
  const Bits be_packet = 12'000.0;

  const std::string policy_name = args.get("policy", "sp");
  sim::SchedulingPolicy policy;
  if (policy_name == "sp") {
    policy = sim::SchedulingPolicy::kStaticPriority;
  } else if (policy_name == "fifo") {
    policy = sim::SchedulingPolicy::kFifo;
  } else if (policy_name == "drr") {
    policy = sim::SchedulingPolicy::kDeficitRoundRobin;
  } else {
    throw std::runtime_error("--policy must be sp, fifo, or drr");
  }

  // 1. Configure: verified bounds for the longest shortest-path pairs
  //    (diameter-length routes are where the fixed point is tightest).
  auto demands = traffic::all_ordered_pairs(topo);
  const auto hops = net::all_pairs_hops(topo);
  std::stable_sort(demands.begin(), demands.end(),
                   [&](const auto& a, const auto& b) {
                     return hops[a.src][a.dst] > hops[b.src][b.dst];
                   });
  if (demands.size() > pairs) demands.resize(pairs);
  const auto selection = routing::select_routes_shortest_path(
      graph, alpha, bucket, deadline, demands);
  if (!selection.success) {
    std::fprintf(stderr,
                 "audit: configuration does not verify at alpha=%.3f "
                 "(nothing to audit)\n",
                 alpha);
    return 2;
  }
  std::printf("configured %zu routes at alpha=%.3f (deadline %.1f ms, "
              "policy %s)\n",
              demands.size(), alpha, units::to_ms(deadline),
              policy_name.c_str());

  // 2. Simulate: adversarial greedy sources on every route; optional
  //    large-packet best-effort cross traffic on the longest route (under
  //    static priority it cannot break the bounds; under FIFO it does).
  traffic::ClassSet classes;
  classes.add(traffic::ServiceClass("realtime", bucket, deadline, alpha));
  classes.add(traffic::ServiceClass(
      "best-effort", traffic::LeakyBucket(4.0 * be_packet, units::kbps(10'000)),
      0.0, 0.0, /*rt=*/false));

  sim::NetworkSim netsim(graph, classes, policy);
  sim::TraceRecorder trace;
  netsim.attach_trace(&trace);
  telemetry::MetricsRegistry registry;
  telemetry::EventTracer tracer(4096);
  sim::NetworkSim::TelemetryConfig sim_telemetry;
  sim_telemetry.metrics = &registry;
  sim_telemetry.tracer = &tracer;
  netsim.attach_telemetry(sim_telemetry);

  // Non-preemptive blocking: one in-flight packet of *any* class can hold
  // the link, so the packetization slack must cover the largest packet.
  const Bits slack_packet = be_flows > 0 ? std::max(packet, be_packet)
                                         : packet;
  const sim::AuditBounds bounds = sim::AuditBounds::single_class(
      graph, selection.solution.server_delay, deadline, slack_packet);
  sim::GuaranteeAuditor auditor(graph, bounds);
  sim::DeadlineWatchdog::Options wd_options;
  wd_options.tracer = &tracer;
  wd_options.metrics = &registry;
  sim::DeadlineWatchdog watchdog(graph, bounds, wd_options);

  for (const auto& route : selection.server_routes) {
    for (int f = 0; f < flows; ++f) {
      sim::SourceConfig src;
      src.model = sim::SourceModel::kGreedy;
      src.packet_size = packet;
      src.stop = sim::to_sim_time(horizon);
      netsim.add_flow(route, 0, src);
      auditor.register_flow(0, route);
      watchdog.register_flow(0, route);
    }
  }
  for (int f = 0; f < be_flows; ++f) {
    sim::SourceConfig src;
    src.model = sim::SourceModel::kGreedy;
    src.packet_size = be_packet;
    src.stop = sim::to_sim_time(horizon);
    netsim.add_flow(selection.server_routes.front(), 1, src);
    auditor.register_flow(1, selection.server_routes.front());
    watchdog.register_flow(1, selection.server_routes.front());
  }
  watchdog.attach(netsim);
  const auto results = netsim.run(2.0 * horizon);
  std::printf("simulated %.2f s: %llu packets delivered\n\n", 2.0 * horizon,
              static_cast<unsigned long long>(results.packets_delivered));

  // 3. Audit.
  const sim::AuditReport report = auditor.audit(results, &trace);
  std::fputs(report.to_text().c_str(), stdout);
  std::fputs(watchdog.report().c_str(), stdout);

  if (g_chrome != nullptr)
    sim::add_chrome_packet_lanes(trace, *g_chrome, graph.size());

  return report.ok() && !watchdog.tripped() ? 0 : 1;
}

// SIGINT/SIGTERM land here; the serve loop polls it.
std::atomic<bool> g_interrupted{false};

void on_interrupt(int) { g_interrupted.store(true, std::memory_order_relaxed); }

/// ArrivalRecorder slots for serve's offered load: the next power of two
/// at or above four times the mean number of live flows (Little's law:
/// arrival rate x mean holding time), never below 8192, so the recorder
/// watches every held flow with room for the probe window.
std::size_t recorder_capacity(
    const admission::PacedLoadDriver::Options& load) {
  const double live = load.arrival_rate * load.mean_holding;
  std::size_t capacity = 8192;
  while (capacity < 4.0 * live && capacity < (std::size_t{1} << 40))
    capacity <<= 1;
  return capacity;
}

/// Long-running live-telemetry mode (docs/observability.md): configure a
/// verified routing table, keep a paced Poisson churn running against the
/// concurrent controller, and serve the scrape endpoints until SIGINT (or
/// --duration-s). The sampler refreshes the pull-model utilization gauges
/// on every tick, so scrapes never need a manual gauge refresh. With
/// --actuate, a ReconfigurationActuator runs as a post-alert hook and the
/// control loop is closed live (alerts -> alpha re-search -> budget swap).
int cmd_serve(const util::ArgParser& args) {
  const auto topo = load_topology(args);
  const net::ServerGraph graph(topo, 6u);
  const auto bucket = bucket_from(args);
  const Seconds deadline = deadline_from(args);
  const double alpha = args.get_double("alpha", 0.32);

  const auto demands = traffic::all_ordered_pairs(topo);
  std::vector<net::ServerPath> routes;
  for (const auto& d : demands)
    routes.push_back(
        graph.map_path(net::shortest_path(topo, d.src, d.dst).value()));
  const admission::RoutingTable table(demands, routes);
  const auto classes = traffic::ClassSet::two_class(bucket, deadline, alpha);

  telemetry::MetricsRegistry registry;
  telemetry::EventTracer tracer(8192);
  admission::AdmissionController ctl(graph, classes, table);
  admission::ControllerTelemetry ctl_telemetry(registry, "serve", &tracer);
  ctl.attach_telemetry(&ctl_telemetry);

  telemetry::TelemetrySampler::Options sampler_options;
  sampler_options.tick = std::chrono::milliseconds(
      std::max<long>(10, args.get_long("tick-ms", 250)));
  sampler_options.ticks_per_window =
      static_cast<std::size_t>(std::max<long>(1, args.get_long("window-ticks", 4)));
  telemetry::TelemetrySampler sampler(registry, sampler_options);
  sampler.add_tick_hook(
      admission::utilization_gauge_hook(registry, "serve", ctl));

  telemetry::AlertEngine::Options alert_options;
  alert_options.tracer = &tracer;
  alert_options.metrics = &registry;
  telemetry::AlertEngine alerts(alert_options);
  const auto alert_k =
      static_cast<std::size_t>(std::max<long>(1, args.get_long("alert-k", 3)));
  alerts.add_rule(telemetry::AlertEngine::headroom_rule(
      "serve", args.get_double("alert-headroom", 0.9), alert_k));
  alerts.add_rule(telemetry::AlertEngine::rejection_spike_rule(
      "serve", args.get_double("alert-rejection-rate", 100.0), alert_k));
  alerts.add_rule(telemetry::AlertEngine::deadline_miss_rule());
  sampler.set_alert_engine(&alerts);

  // Closed control loop: the analysis engine mirrors the served routing
  // table, and the actuator (a post-alert hook, so it sees each tick's
  // fresh alert states) re-searches alpha and swaps live budgets when an
  // actionable alert fires. Without --actuate the policy master switch
  // stays off and the hook is a cheap no-op — but /reconfig can still
  // enable it at runtime.
  analysis::AnalysisEngine engine(graph, alpha, bucket, deadline);
  for (const auto& route : routes) engine.add_route(route);
  engine.solve();
  reconfig::ActuationPolicy policy;
  policy.enabled = args.has("actuate");
  policy.dry_run = args.has("dry-run");
  policy.set_cooldown_s(args.get_double("cooldown-s", 5.0));
  policy.max_step = args.get_double("max-step", 0.05);
  policy.search_lo = args.get_double("reconfig-lo", 0.01);
  policy.search_hi = args.get_double("reconfig-hi", 0.95);
  reconfig::ReconfigurationActuator::Options actuator_options;
  actuator_options.tracer = &tracer;
  actuator_options.metrics = &registry;
  reconfig::ReconfigurationActuator actuator(engine, ctl, alerts, policy,
                                             actuator_options);
  sampler.add_post_alert_hook([&actuator] { actuator.on_tick(); });

  admission::PacedLoadDriver::Options load_options;
  load_options.arrival_rate = args.get_double("load-rate", 50.0);
  load_options.mean_holding = args.get_double("load-holding-s", 10.0);
  load_options.seed = static_cast<std::uint64_t>(
      std::max<long>(1, args.get_long("load-seed", 1)));
  load_options.batch =
      static_cast<std::size_t>(std::max<long>(1, args.get_long("batch", 1)));

  // Demand conformance plane (docs/observability.md): an ArrivalRecorder
  // installed behind the admission gate watches every held flow's offered
  // load, and a ConformanceMonitor checks the empirical envelopes against
  // the declared (T, rho) on each sampler tick. --misdeclare implies
  // --conformance (a misdeclaration run without the monitor observes
  // nothing).
  const std::string misdeclare = args.get("misdeclare", "");
  const bool conformance_on = args.has("conformance") || !misdeclare.empty();
  std::unique_ptr<telemetry::ArrivalRecorder> recorder;
  std::unique_ptr<telemetry::ConformanceMonitor> monitor;
  if (conformance_on) {
    telemetry::ArrivalRecorder::Options recorder_options;
    recorder_options.capacity = recorder_capacity(load_options);
    recorder =
        std::make_unique<telemetry::ArrivalRecorder>(recorder_options);
    telemetry::ConformanceMonitor::Options monitor_options;
    monitor_options.metrics = &registry;
    monitor_options.tracer = &tracer;
    monitor = std::make_unique<telemetry::ConformanceMonitor>(
        *recorder, monitor_options);
    for (std::size_t c = 0; c < classes.size(); ++c)
      if (classes.at(c).realtime)
        monitor->set_class_envelope(static_cast<std::uint32_t>(c),
                                    classes.at(c).bucket);
    monitor->set_placement([&ctl](traffic::FlowId id,
                                  std::vector<std::uint32_t>& servers) {
      const auto view = ctl.find_flow(id);
      if (!view || view->route == nullptr) return false;
      servers.assign(view->route->begin(), view->route->end());
      return true;
    });
    for (std::uint32_t s = 0; s < graph.size(); ++s)
      for (std::size_t c = 0; c < classes.size(); ++c)
        if (classes.at(c).realtime)
          monitor->set_share(s, static_cast<std::uint32_t>(c),
                             classes.at(c).share * graph.server(s).capacity);
    telemetry::ConformanceMonitor* m = monitor.get();
    sampler.add_tick_hook(
        [m] { m->check(telemetry::EventTracer::now_ns()); });
    alerts.add_rule(telemetry::AlertEngine::misdeclaration_rule(
        m, /*margin_threshold=*/0.0, alert_k));
  }

  load_options.conformance = recorder.get();
  if (!misdeclare.empty()) {
    // --misdeclare=<fraction>,<factor>
    const std::string_view text = misdeclare;
    const std::size_t comma = text.find(',');
    const auto fraction = util::parse_number<double>(text.substr(0, comma));
    const auto factor = comma == std::string_view::npos
                            ? std::nullopt
                            : util::parse_number<double>(text.substr(comma + 1));
    if (!fraction || !factor) {
      std::fprintf(stderr, "bad --misdeclare (want fraction,factor)\n");
      return 2;
    }
    load_options.misdeclare_fraction = *fraction;
    load_options.misdeclare_factor = *factor;
  }
  admission::PacedLoadDriver driver(ctl, demands, load_options);

  telemetry::HttpEndpoint::Options http_options;
  http_options.port =
      static_cast<std::uint16_t>(args.get_long("port", 9177));
  telemetry::HttpEndpoint http(http_options);
  telemetry::install_standard_routes(http, registry, &sampler, &alerts);
  http.handle("/reconfig", [&actuator](const telemetry::HttpRequest& request) {
    return reconfig::reconfig_route(actuator, request);
  });
  if (conformance_on) {
    telemetry::install_conformance_routes(http, *monitor);
    // Ground truth for the polarity checks: which flow ids the
    // misdeclaration hash actually selected (empty in conformant runs).
    admission::PacedLoadDriver* d = &driver;
    http.handle("/loadgen", [d, load_options](const telemetry::HttpRequest&) {
      const auto misdeclared = d->misdeclared_flows();
      char buf[128];
      std::snprintf(buf, sizeof(buf),
                    "{\"misdeclare_fraction\":%.9g,"
                    "\"misdeclare_factor\":%.9g,\"misdeclared\":[",
                    load_options.misdeclare_fraction,
                    load_options.misdeclare_factor);
      std::string out = buf;
      for (std::size_t i = 0; i < misdeclared.size(); ++i) {
        if (i) out += ",";
        std::snprintf(buf, sizeof(buf),
                      "\n {\"flow\":%llu,\"live\":%s,\"age_s\":%.3f}",
                      static_cast<unsigned long long>(misdeclared[i].flow_id),
                      misdeclared[i].live ? "true" : "false",
                      misdeclared[i].age_s);
        out += buf;
      }
      out += "\n]}\n";
      return telemetry::HttpResponse::json(std::move(out));
    });
    // Gate open before any churn: flows admitted pre-install would be
    // invisible to the recorder.
    telemetry::ArrivalRecorder::install(recorder.get());
  }

  sampler.start();
  driver.start();
  http.start();
  std::printf("serve: listening on http://127.0.0.1:%u "
              "(/metrics /healthz /series /alerts /alerts/config "
              "/reconfig%s)\n",
              http.port(),
              conformance_on ? " /conformance /conformance/flows /loadgen"
                             : "");
  std::printf("serve: churn %.0f flows/s over %zu demands at alpha=%.2f; "
              "admission batch %zu; tick %ld ms; Ctrl-C to stop\n",
              load_options.arrival_rate, demands.size(), alpha,
              load_options.batch,
              static_cast<long>(sampler_options.tick.count()));
  if (policy.enabled)
    std::printf("serve: actuation %s — cooldown %.1f s, max step %.3f, "
                "re-search [%.2f, %.2f]\n",
                policy.dry_run ? "in DRY-RUN (ledger untouched)" : "armed",
                static_cast<double>(policy.cooldown_ns) / 1e9,
                policy.max_step, policy.search_lo, policy.search_hi);
  std::fflush(stdout);

  g_interrupted.store(false);
  std::signal(SIGINT, on_interrupt);
  std::signal(SIGTERM, on_interrupt);

  const double duration = args.get_double("duration-s", 0.0);
  const bool watch = args.has("watch");
  const auto start = std::chrono::steady_clock::now();
  while (!g_interrupted.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(watch ? 500 : 100));
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    if (duration > 0.0 && elapsed >= duration) break;
    if (!watch) continue;

    // Tiny ASCII dashboard: one refresh per half second.
    const auto stats = driver.stats();
    double worst_util = 0.0;
    const auto snapshot = registry.snapshot();
    for (const auto& family : snapshot.families)
      if (family.name == "ubac_admission_class_utilization")
        for (const auto& sample : family.samples)
          worst_util = std::max(worst_util, sample.value);
    std::string alert_line;
    for (const auto& st : alerts.status()) {
      alert_line += "  " + st.rule + "=" + telemetry::to_string(st.state);
      if (st.state != telemetry::AlertState::kInactive) {
        char v[32];
        std::snprintf(v, sizeof(v), "(%.3g)", st.value);
        alert_line += v;
      }
    }
    std::string conf_line;
    if (conformance_on) {
      char v[64];
      std::snprintf(v, sizeof(v), " viol=%zu worst-margin=%.3f",
                    monitor->violating_count(), monitor->worst_margin());
      conf_line = v;
    }
    std::printf("\r\033[2K[%7.1fs] offered=%zu admit=%.1f%% active=%zu "
                "worst-util=%.3f alpha=%.3f acts=%llu ticks=%llu "
                "scrapes=%llu%s |%s",
                elapsed, stats.offered, 100.0 * stats.admit_ratio(),
                driver.active_flows(), worst_util, actuator.current_alpha(),
                static_cast<unsigned long long>(actuator.actuations()),
                static_cast<unsigned long long>(sampler.ticks()),
                static_cast<unsigned long long>(http.requests_served()),
                conf_line.c_str(), alert_line.c_str());
    std::fflush(stdout);
  }
  if (watch) std::printf("\n");

  http.stop();
  driver.stop();
  sampler.stop();
  // Close the conformance gate only after every producer thread has
  // stopped — the recorder must outlive its last record()/on_release().
  if (conformance_on) telemetry::ArrivalRecorder::install(nullptr);
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);

  const auto stats = driver.stats();
  std::printf("serve: clean shutdown — %zu offered (%.1f%% admitted), "
              "%llu sampler ticks, %llu HTTP requests, %llu alert "
              "evaluations\n",
              stats.offered, 100.0 * stats.admit_ratio(),
              static_cast<unsigned long long>(sampler.ticks()),
              static_cast<unsigned long long>(http.requests_served()),
              static_cast<unsigned long long>(alerts.evaluations()));
  const double total_elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  std::printf("serve: batch=%zu batches=%llu admits_per_s=%.1f\n",
              load_options.batch,
              static_cast<unsigned long long>(ctl_telemetry.batches->value()),
              total_elapsed > 0.0
                  ? static_cast<double>(stats.admitted) / total_elapsed
                  : 0.0);
  std::printf("serve: reconfig — %llu applied (%llu flows shed), %llu "
              "dry-run, %llu infeasible, %llu cooldown-blocked; final "
              "alpha %.4f\n",
              static_cast<unsigned long long>(actuator.actuations()),
              static_cast<unsigned long long>(actuator.shed_flows_total()),
              static_cast<unsigned long long>(actuator.dry_runs()),
              static_cast<unsigned long long>(actuator.infeasible()),
              static_cast<unsigned long long>(actuator.cooldown_blocked()),
              actuator.current_alpha());
  if (conformance_on) {
    const std::size_t misdeclared_seeded = driver.misdeclared_flows().size();
    std::printf("serve: conformance — %llu checks, %zu flows scored "
                "(%zu violating, worst margin %.4f), %zu misdeclaring "
                "seeded, %llu registrations dropped\n",
                static_cast<unsigned long long>(monitor->checks()),
                monitor->flows_seen(), monitor->violating_count(),
                monitor->worst_margin(), misdeclared_seeded,
                static_cast<unsigned long long>(
                    recorder->dropped_registrations()));
  }

  if (g_chrome != nullptr) {
    // Bridge the admission + reconfig event ring into the shared Chrome
    // timeline so the actuation chain lines up with the admit/reject
    // stream that provoked it.
    g_chrome->add_tracer_events(tracer, telemetry::span_epoch_ns(*g_spans),
                                /*pid=*/1, /*tid=*/9999);
    std::printf("trace: %llu events bridged (%zu retained)\n",
                static_cast<unsigned long long>(tracer.recorded()),
                tracer.snapshot().size());
  }
  return 0;
}

int cmd_reroute(const util::ArgParser& args) {
  const auto topo = load_topology(args);
  const net::ServerGraph graph(topo);
  const auto cfg = load_config(args, topo);
  const std::string spec = args.get("fail", "");
  const auto colon = spec.find(':');
  if (colon == std::string::npos)
    throw std::runtime_error("--fail=NodeA:NodeB is required");
  const auto a = topo.find_node(spec.substr(0, colon));
  const auto b = topo.find_node(spec.substr(colon + 1));
  if (!a || !b) throw std::runtime_error("unknown node in --fail");
  std::vector<net::ServerId> dead;
  if (const auto ab = topo.find_link(*a, *b))
    dead.push_back(graph.server_for_link(*ab));
  if (const auto ba = topo.find_link(*b, *a))
    dead.push_back(graph.server_for_link(*ba));
  if (dead.empty()) throw std::runtime_error("no such link");

  const config::Configurator configurator(graph, cfg.bucket, cfg.deadline);
  const auto healed = configurator.reroute_avoiding(cfg, dead);
  if (!healed.success) {
    std::fprintf(stderr, "reroute failed: %s\n",
                 healed.failure_reason.c_str());
    return 1;
  }
  std::fputs(config::describe(healed.config, graph, healed.report).c_str(),
             stdout);
  const std::string out = args.get("out", "");
  if (!out.empty()) save_config(healed.config, topo, out);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args(argc, argv);
  args.describe("topology", "topology file (default: built-in MCI)")
      .describe("deadline-ms", "deadline in ms (default 100)")
      .describe("burst", "leaky-bucket burst in bits (default 640)")
      .describe("rate-kbps", "leaky-bucket rate in kb/s (default 32)")
      .describe("candidates", "heuristic candidates per pair (default 8)")
      .describe("config", "configuration artifact to load")
      .describe("out", "file to write the resulting configuration to")
      .describe("fail", "duplex link to fail, as NodeA:NodeB")
      .describe("alpha", "class share (metricsdump default 0.32, audit 0.30)")
      .describe("threads", "metricsdump: churn threads (default 4)")
      .describe("ops", "metricsdump: ops per thread (default 100000)")
      .describe("sampling", "metricsdump: trace sampling in [0,1] (default 1)")
      .describe("format", "metricsdump: prom|json|csv|all (default prom)")
      .describe("trace-out",
                "write a Chrome trace-event / Perfetto JSON timeline of "
                "this invocation (spans + events) here")
      .describe("policy", "audit: sp|fifo|drr scheduling (default sp)")
      .describe("pairs", "audit: longest demand pairs to route (default 12)")
      .describe("flows", "audit: greedy flows per route (default 20)")
      .describe("be-flows",
                "audit: large-packet best-effort cross flows on the longest "
                "route (default 0)")
      .describe("horizon-s", "audit: source horizon in sim seconds "
                             "(default 0.5; run lasts twice that)")
      .describe("packet", "audit: real-time packet size in bits (default 640)")
      .describe("port", "serve: HTTP port (default 9177; 0 = ephemeral)")
      .describe("tick-ms", "serve: sampler tick in ms (default 250)")
      .describe("window-ticks",
                "serve: sampler ticks aggregated per rollup window "
                "(default 4)")
      .describe("duration-s",
                "serve: stop after this many wall seconds (default 0 = "
                "until SIGINT)")
      .describe("load-rate",
                "serve: Poisson flow arrivals per second (default 50)")
      .describe("load-holding-s",
                "serve: mean flow holding time in seconds (default 10)")
      .describe("batch",
                "serve: coalesce up to k arrivals into one admit_batch() "
                "call (default 1 = per-request admission)")
      .describe("alert-k",
                "serve: consecutive breached/quiet ticks to fire/resolve "
                "(default 3)")
      .describe("alert-headroom",
                "serve: headroom-exhaustion utilization threshold "
                "(default 0.9)")
      .describe("alert-rejection-rate",
                "serve: rejection-spike threshold in rejections/s "
                "(default 100)")
      .describe("load-seed",
                "serve: RNG seed of the Poisson churn (default 1; fix it "
                "for reproducible runs)")
      .describe("actuate",
                "serve: close the control loop — firing alerts trigger an "
                "alpha re-search and a live budget swap (default off; "
                "tunable at runtime via POST /reconfig)")
      .describe("dry-run",
                "serve: actuator runs the re-search and reports proposals "
                "on /reconfig without touching the ledger")
      .describe("cooldown-s",
                "serve: minimum seconds between actuations (default 5)")
      .describe("max-step",
                "serve: maximum |alpha change| per actuation (default "
                "0.05)")
      .describe("reconfig-lo",
                "serve: lower bound of the alpha re-search (default 0.01)")
      .describe("reconfig-hi",
                "serve: upper bound of the alpha re-search (default 0.95)")
      .describe("watch", "serve: live one-line ASCII dashboard on stdout")
      .describe("conformance",
                "serve: demand conformance plane — per-flow arrival "
                "envelopes, /conformance routes, misdeclaration alert")
      .describe("misdeclare",
                "serve: <fraction>,<factor> — hash-selected fraction of "
                "flows offer factor x their declared rate (implies "
                "--conformance)");
  const std::string program =
      "ubac_configtool "
      "<bounds|maximize|verify|reroute|metricsdump|audit|serve>";
  return util::run_main(args, program, [&] {
    const auto& pos = args.positional();
    const std::string command = pos.empty() ? "help" : pos[0];

    // --trace-out: record spans for the whole invocation; every command
    // is instrumented and may append extra lanes through g_chrome.
    const std::string trace_out = args.get("trace-out", "");
    std::unique_ptr<telemetry::SpanRecorder> spans;
    telemetry::ChromeTraceWriter chrome;
    if (!trace_out.empty()) {
      spans = std::make_unique<telemetry::SpanRecorder>(1u << 15);
      telemetry::SpanRecorder::install(spans.get());
      g_spans = spans.get();
      g_chrome = &chrome;
    }

    int rc = 2;
    bool dispatched = true;
    if (command == "bounds") {
      rc = cmd_bounds(args);
    } else if (command == "maximize") {
      rc = cmd_maximize(args);
    } else if (command == "verify") {
      rc = cmd_verify(args);
    } else if (command == "reroute") {
      rc = cmd_reroute(args);
    } else if (command == "metricsdump") {
      rc = cmd_metricsdump(args);
    } else if (command == "audit") {
      rc = cmd_audit(args);
    } else if (command == "serve") {
      rc = cmd_serve(args);
    } else {
      dispatched = false;
      std::fputs(args.usage(program).c_str(), stdout);
      rc = command == "help" ? 0 : 2;
    }

    if (spans != nullptr && dispatched) {
      chrome.add_spans(*spans, /*pid=*/1, "configuration pipeline");
      chrome.write(trace_out);
      std::printf("span trace written to %s (load in ui.perfetto.dev or "
                  "chrome://tracing)\n",
                  trace_out.c_str());
    }
    return rc;
  });
}
