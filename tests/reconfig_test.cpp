// The live-reconfiguration stack, layer by layer:
//  * apply_shares() — the fence-then-shed atomic budget swap: post-swap
//    limits bit-identical to a fresh controller built at the new shares,
//    growth never sheds, shrinks shed newest-first and only as much as the
//    new budget requires; the sequential oracle agrees on the semantics.
//  * research_alpha() — the warm incremental max-alpha re-search lands on
//    a maximal feasible alpha (oracle-checked) and restores the seed when
//    the range is infeasible.
//  * ReconfigurationActuator — alert-driven end to end: a firing rule
//    triggers research + swap, deadline-miss forces the search downward,
//    cooldown and dry-run bound what one actuation may do, and every
//    outcome lands in metrics + kReconfig trace events.
//  * Churn test (run under TSan in CI): 8 admit/release threads racing a
//    thread that flaps the budgets; conservation and no-double-release
//    must hold at drain.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <span>
#include <thread>
#include <vector>

#include "admission/controller.hpp"
#include "admission/sequential_controller.hpp"
#include "analysis/engine.hpp"
#include "analysis/fixed_point.hpp"
#include "net/shortest_path.hpp"
#include "net/topology_factory.hpp"
#include "reconfig/actuator.hpp"
#include "telemetry/alerts.hpp"
#include "telemetry/event_trace.hpp"
#include "telemetry/http_endpoint.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/timeseries.hpp"
#include "traffic/workload.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

namespace ubac {
namespace {

using admission::AdmissionController;
using admission::AdmissionOutcome;
using admission::BudgetSwapReport;
using admission::SequentialAdmissionController;
using admission::ShareUpdate;
using traffic::ClassSet;
using traffic::LeakyBucket;
using units::kbps;
using units::milliseconds;

const LeakyBucket kVoice(640.0, kbps(32));
const Seconds kDeadline = milliseconds(100.0);

/// MCI backbone, shortest-path routes for every ordered pair.
struct MciFixture {
  net::Topology topo = net::mci_backbone();
  net::ServerGraph graph{topo, 6u};
  std::vector<traffic::Demand> demands = traffic::all_ordered_pairs(topo);
  std::vector<net::ServerPath> routes;
  admission::RoutingTable table;

  MciFixture() {
    for (const auto& d : demands)
      routes.push_back(
          graph.map_path(net::shortest_path(topo, d.src, d.dst).value()));
    table = admission::RoutingTable(demands, routes);
  }

  /// The controller keeps a pointer to the class set — callers must hold
  /// the returned value for the controller's lifetime.
  ClassSet classes(double share) const {
    return ClassSet::two_class(kVoice, kDeadline, share);
  }
};

BudgetSwapReport swap_to(AdmissionController& ctl, double share) {
  const ShareUpdate update{0, share};
  return ctl.apply_shares({&update, 1});
}

/// Admit `demand` until the first utilization rejection; returns the
/// admitted ids in admission order.
std::vector<traffic::FlowId> fill_demand(AdmissionController& ctl,
                                         const traffic::Demand& demand) {
  std::vector<traffic::FlowId> held;
  for (;;) {
    const auto decision = ctl.request(demand.src, demand.dst, 0);
    if (!decision.admitted()) {
      EXPECT_EQ(decision.outcome, AdmissionOutcome::kUtilizationExceeded);
      return held;
    }
    held.push_back(decision.flow_id);
  }
}

// ---------------------------------------------------------------------------
// apply_shares: the atomic budget swap
// ---------------------------------------------------------------------------

// The whole point of quantize_budget_down in the swap: limits after
// apply_shares() must equal — to the bit, on every (server, class) slot —
// the limits of a fresh controller constructed at the new share, both
// when growing and when shrinking.
TEST(Reconfig, SwappedLimitsBitIdenticalToFreshController) {
  MciFixture f;
  const ClassSet classes = f.classes(0.05);
  AdmissionController ctl(f.graph, classes, f.table);
  // Live traffic so the swap runs over a non-empty ledger.
  util::Xoshiro256 rng(0xAB);
  for (int k = 0; k < 400; ++k) {
    const auto& d = f.demands[rng.uniform_index(f.demands.size())];
    ctl.request(d.src, d.dst, 0);
  }

  for (const double share : {0.12, 0.03, 0.30}) {
    swap_to(ctl, share);
    const ClassSet fresh_classes = f.classes(share);
    AdmissionController fresh(f.graph, fresh_classes, f.table);
    for (net::ServerId s = 0; s < f.graph.size(); ++s) {
      ASSERT_EQ(ctl.limit_units(s, 0), fresh.limit_units(s, 0))
          << "share=" << share << " server=" << s;
      // Quiescent: the shed pass left every slot within its new budget.
      ASSERT_LE(ctl.reserved_units(s, 0), ctl.limit_units(s, 0))
          << "share=" << share << " server=" << s;
      ASSERT_LE(ctl.class_utilization(s, 0), 1.0);
    }
  }
}

// Growing a class must never shed, and must immediately unlock admission
// on a hop that was saturated under the old budget.
TEST(Reconfig, GrowNeverShedsAndUnlocksAdmission) {
  MciFixture f;
  const ClassSet classes = f.classes(0.02);
  AdmissionController ctl(f.graph, classes, f.table);
  const auto& demand = f.demands.front();
  const auto held = fill_demand(ctl, demand);
  ASSERT_FALSE(held.empty());

  const BudgetSwapReport report = swap_to(ctl, 0.10);
  EXPECT_EQ(report.shed_flows, 0u);
  EXPECT_TRUE(report.shed_ids.empty());
  EXPECT_GT(report.slots_raised, 0u);
  EXPECT_EQ(report.slots_lowered, 0u);
  EXPECT_EQ(ctl.active_flows(), held.size());  // nobody dropped
  for (const auto id : held) EXPECT_TRUE(ctl.find_flow(id).has_value());

  EXPECT_TRUE(ctl.request(demand.src, demand.dst, 0).admitted())
      << "grown budget still rejecting";
}

// Shrinking sheds newest flows first (descending ids), only flows of the
// shrunken class, and only as many as the new budget requires: putting
// one shed flow's rate back must overflow some hop of its route.
TEST(Reconfig, ShrinkShedsNewestFirstAndMinimally) {
  MciFixture f;
  const ClassSet classes = f.classes(0.08);
  AdmissionController ctl(f.graph, classes, f.table);
  const auto& demand = f.demands.front();
  const auto held = fill_demand(ctl, demand);
  ASSERT_GT(held.size(), 4u);

  const auto route = *ctl.find_flow(held.front())->route;
  const BudgetSwapReport report = swap_to(ctl, 0.03);
  ASSERT_GT(report.shed_flows, 0u);
  ASSERT_EQ(report.shed_flows, report.shed_ids.size());

  // Newest-first shed order.
  for (std::size_t i = 1; i < report.shed_ids.size(); ++i)
    EXPECT_GT(report.shed_ids[i - 1], report.shed_ids[i]);
  // The survivors are exactly the oldest flows.
  const std::set<traffic::FlowId> shed(report.shed_ids.begin(),
                                       report.shed_ids.end());
  const std::size_t survivors = held.size() - shed.size();
  for (std::size_t i = 0; i < held.size(); ++i) {
    EXPECT_EQ(ctl.find_flow(held[i]).has_value(), i < survivors)
        << "flow " << i << " of " << held.size();
    EXPECT_EQ(shed.count(held[i]) != 0, i >= survivors);
  }

  // Conservation on the integer grid: every hop of the route holds
  // exactly survivors * rho, within its new budget, and could not hold
  // one more flow (minimal shedding).
  const traffic::RateUnits rho = traffic::quantize_demand_up(kVoice.rate);
  bool some_hop_tight = false;
  for (const net::ServerId s : route) {
    EXPECT_EQ(ctl.reserved_units(s, 0), survivors * rho);
    EXPECT_LE(ctl.reserved_units(s, 0), ctl.limit_units(s, 0));
    if (ctl.reserved_units(s, 0) + rho > ctl.limit_units(s, 0))
      some_hop_tight = true;
  }
  EXPECT_TRUE(some_hop_tight) << "shed more flows than the budget required";
}

// The sequential oracle exposes the same API with the same semantics.
TEST(Reconfig, SequentialOracleSwapSemantics) {
  MciFixture f;
  const ClassSet classes = f.classes(0.05);
  SequentialAdmissionController ctl(f.graph, classes, f.table);
  const auto& demand = f.demands.front();
  std::size_t admitted = 0;
  while (ctl.request(demand.src, demand.dst, 0).admitted()) ++admitted;
  ASSERT_GT(admitted, 0u);

  const ShareUpdate shrink{0, 0.02};
  const BudgetSwapReport report = ctl.apply_shares({&shrink, 1});
  EXPECT_GT(report.shed_flows, 0u);
  for (net::ServerId s = 0; s < f.graph.size(); ++s)
    EXPECT_LE(ctl.class_utilization(s, 0), 1.0);

  const ShareUpdate grow{0, 0.50};
  const BudgetSwapReport regrow = ctl.apply_shares({&grow, 1});
  EXPECT_EQ(regrow.shed_flows, 0u);
  EXPECT_TRUE(ctl.request(demand.src, demand.dst, 0).admitted());
}

// ---------------------------------------------------------------------------
// research_alpha: warm incremental max-alpha re-search
// ---------------------------------------------------------------------------

analysis::AnalysisEngine make_engine(const MciFixture& f, double alpha) {
  analysis::AnalysisEngine engine(f.graph, alpha, kVoice, kDeadline);
  for (const auto& route : f.routes) engine.add_route(route);
  engine.solve();
  return engine;
}

// The re-search must land on a feasible alpha that is maximal within the
// resolution (oracle-checked with the stateless cold solver), leave the
// engine committed there, and report the share delta a ledger needs.
TEST(Reconfig, ResearchAlphaFindsMaximalFeasibleAlpha) {
  MciFixture f;
  auto engine = make_engine(f, 0.05);
  const auto result = engine.research_alpha(0.01, 0.95, 1e-3);

  ASSERT_TRUE(result.feasible);
  EXPECT_DOUBLE_EQ(result.seed_alpha, 0.05);
  EXPECT_GT(result.alpha, 0.05);
  EXPECT_DOUBLE_EQ(engine.alpha(), result.alpha);
  EXPECT_TRUE(engine.solve().safe());
  EXPECT_GE(result.probes, 2);

  // Oracle: committed alpha is safe, one resolution-step above is not
  // (unless the search saturated at hi).
  EXPECT_TRUE(analysis::solve_two_class(f.graph, result.alpha, kVoice,
                                        kDeadline, f.routes)
                  .safe());
  if (result.alpha < 0.95 - 1e-3) {
    EXPECT_FALSE(analysis::solve_two_class(f.graph, result.alpha + 2e-3,
                                           kVoice, kDeadline, f.routes)
                     .safe());
  }

  ASSERT_EQ(result.deltas.size(), 1u);
  EXPECT_EQ(result.deltas[0].class_index, 0u);
  EXPECT_DOUBLE_EQ(result.deltas[0].previous, 0.05);
  EXPECT_DOUBLE_EQ(result.deltas[0].proposed, result.alpha);

  // Idempotence: re-searching from the committed answer moves at most one
  // resolution step and proposes no delta when it lands back on the seed.
  const auto again = engine.research_alpha(0.01, 0.95, 1e-3);
  ASSERT_TRUE(again.feasible);
  EXPECT_NEAR(again.alpha, result.alpha, 2e-3);
}

// An infeasible range restores the engine to the seed operating point.
TEST(Reconfig, ResearchAlphaInfeasibleRestoresSeed) {
  MciFixture f;
  auto engine = make_engine(f, 0.05);
  const auto result = engine.research_alpha(0.90, 0.95, 1e-3);
  EXPECT_FALSE(result.feasible);
  EXPECT_TRUE(result.deltas.empty());
  EXPECT_DOUBLE_EQ(engine.alpha(), 0.05);
  EXPECT_TRUE(engine.solve().safe());
}

TEST(Reconfig, ResearchAlphaRejectsBadBounds) {
  MciFixture f;
  auto engine = make_engine(f, 0.05);
  EXPECT_THROW(engine.research_alpha(0.5, 0.2), std::invalid_argument);
  EXPECT_THROW(engine.research_alpha(-0.1, 0.5), std::invalid_argument);
  EXPECT_THROW(engine.research_alpha(0.5, 1.5), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// ReconfigurationActuator: the closed loop
// ---------------------------------------------------------------------------

/// Test rig: a rule whose breach state the test flips by hand, stepped
/// through hysteresis with empty snapshots (the rules under test don't
/// read them).
struct ActuatorRig {
  MciFixture f;
  ClassSet ctl_classes;  ///< must outlive ctl (it keeps a pointer)
  analysis::AnalysisEngine engine;
  AdmissionController ctl;
  telemetry::MetricsRegistry registry;
  telemetry::EventTracer tracer{512};
  telemetry::AlertEngine alerts;
  telemetry::MetricsSnapshot snapshot;
  telemetry::TimeSeriesStore store{4, 1};
  bool breach = false;
  std::int64_t t_ns = 0;

  explicit ActuatorRig(double alpha)
      : ctl_classes(f.classes(alpha)),
        engine(make_engine(f, alpha)),
        ctl(f.graph, ctl_classes, f.table) {}

  void add_rule(const std::string& name) {
    telemetry::AlertRule rule;
    rule.name = name;
    rule.description = "test-controlled";
    rule.for_ticks = 1;
    rule.resolve_ticks = 1;
    rule.check = [this](const telemetry::MetricsSnapshot&,
                        const telemetry::TimeSeriesStore&, double)
        -> std::optional<telemetry::AlertObservation> {
      if (!breach) return std::nullopt;
      telemetry::AlertObservation obs;
      obs.value = 0.97;
      obs.actions.push_back(
          {telemetry::AlertAction::Kind::kStarved, 0, 0, 0, 0.97});
      return obs;
    };
    alerts.add_rule(rule);
  }

  /// Step hysteresis until every breached rule is firing.
  void tick_alerts(int n = 3) {
    for (int i = 0; i < n; ++i) alerts.evaluate(snapshot, store, ++t_ns);
  }

  reconfig::ReconfigurationActuator make_actuator(
      reconfig::ActuationPolicy policy) {
    reconfig::ReconfigurationActuator::Options options;
    options.tracer = &tracer;
    options.metrics = &registry;
    return reconfig::ReconfigurationActuator(engine, ctl, alerts, policy,
                                             options);
  }
};

double metric_value(const telemetry::MetricsRegistry& registry,
                    const std::string& name, const telemetry::Labels& labels) {
  const auto snapshot = registry.snapshot();
  const auto* sample = snapshot.find(name, labels);
  return sample == nullptr ? -1.0 : sample->value;
}

// A firing congestion alert must drive the full chain: re-search, ledger
// swap bit-identical to the engine's committed alpha, metrics, history,
// and kReconfig trace events.
TEST(Reconfig, ActuatorClosesTheLoopOnFiringAlert) {
  ActuatorRig rig(0.05);
  rig.add_rule("headroom-exhaustion");
  reconfig::ActuationPolicy policy;
  policy.cooldown_ns = 0;
  policy.max_step = 1.0;  // no clamp: land on the re-search answer
  auto actuator = rig.make_actuator(policy);

  // Quiet alerts: a tick must do nothing.
  actuator.on_tick();
  EXPECT_EQ(actuator.actuations(), 0u);

  rig.breach = true;
  rig.tick_alerts();
  ASSERT_TRUE(rig.alerts.any_firing());
  actuator.on_tick();

  EXPECT_EQ(actuator.actuations(), 1u);
  const double applied = actuator.current_alpha();
  EXPECT_GT(applied, 0.05);
  EXPECT_DOUBLE_EQ(rig.engine.alpha(), applied);

  // Ledger and analysis agree bit-for-bit.
  const ClassSet fresh_classes = rig.f.classes(applied);
  AdmissionController fresh(rig.f.graph, fresh_classes, rig.f.table);
  for (net::ServerId s = 0; s < rig.f.graph.size(); ++s)
    ASSERT_EQ(rig.ctl.limit_units(s, 0), fresh.limit_units(s, 0));

  EXPECT_EQ(metric_value(rig.registry, "ubac_reconfig_actuations_total",
                         {{"outcome", "applied"}}),
            1.0);
  EXPECT_NEAR(metric_value(rig.registry, "ubac_reconfig_alpha", {}), applied,
              1e-12);

  // History carries the whole story for /reconfig.
  const std::string json = actuator.to_json();
  EXPECT_NE(json.find("\"outcome\":\"applied\""), std::string::npos);
  EXPECT_NE(json.find("\"trigger\":\"headroom-exhaustion\""),
            std::string::npos);
  EXPECT_NE(json.find("\"starved\":1"), std::string::npos);

  // kReconfig instants for research + apply phases.
  bool saw_research = false, saw_apply = false;
  for (const auto& ev : rig.tracer.snapshot()) {
    if (ev.kind != telemetry::TraceEventKind::kReconfig) continue;
    if (std::string(ev.reason) == "reconfig:research") saw_research = true;
    if (std::string(ev.reason) == "reconfig:apply") saw_apply = true;
  }
  EXPECT_TRUE(saw_research);
  EXPECT_TRUE(saw_apply);
}

// Cooldown bounds the sampler-thread analysis work; dry-run proposes
// without touching the ledger and restores the engine.
TEST(Reconfig, ActuatorCooldownAndDryRun) {
  ActuatorRig rig(0.05);
  rig.add_rule("headroom-exhaustion");
  reconfig::ActuationPolicy policy;
  policy.cooldown_ns = std::int64_t{1} << 62;
  policy.max_step = 1.0;
  auto actuator = rig.make_actuator(policy);

  rig.breach = true;
  rig.tick_alerts();
  actuator.on_tick();  // first actuation is never cooldown-blocked
  EXPECT_EQ(actuator.actuations(), 1u);
  actuator.on_tick();
  actuator.on_tick();
  EXPECT_EQ(actuator.actuations(), 1u);
  EXPECT_EQ(actuator.cooldown_blocked(), 2u);
  EXPECT_EQ(metric_value(rig.registry, "ubac_reconfig_cooldown_blocked_total",
                         {}),
            2.0);

  // Fresh rig in dry-run: proposal recorded, ledger and engine untouched.
  ActuatorRig dry_rig(0.05);
  dry_rig.add_rule("headroom-exhaustion");
  reconfig::ActuationPolicy dry_policy;
  dry_policy.cooldown_ns = 0;
  dry_policy.max_step = 1.0;
  dry_policy.dry_run = true;
  auto dry = dry_rig.make_actuator(dry_policy);
  const traffic::RateUnits limit_before = dry_rig.ctl.limit_units(0, 0);

  dry_rig.breach = true;
  dry_rig.tick_alerts();
  dry.on_tick();
  EXPECT_EQ(dry.actuations(), 0u);
  EXPECT_EQ(dry.dry_runs(), 1u);
  EXPECT_DOUBLE_EQ(dry_rig.engine.alpha(), 0.05);
  EXPECT_EQ(dry_rig.ctl.limit_units(0, 0), limit_before);
  EXPECT_NE(dry.to_json().find("\"outcome\":\"dry-run\""), std::string::npos);
}

// max_step clamps the move; the engine is re-committed at the clamped
// value so ledger and analysis still agree.
TEST(Reconfig, ActuatorClampsToMaxStep) {
  ActuatorRig rig(0.05);
  rig.add_rule("headroom-exhaustion");
  reconfig::ActuationPolicy policy;
  policy.cooldown_ns = 0;
  policy.max_step = 0.02;
  auto actuator = rig.make_actuator(policy);

  rig.breach = true;
  rig.tick_alerts();
  actuator.on_tick();
  EXPECT_EQ(actuator.actuations(), 1u);
  EXPECT_NEAR(actuator.current_alpha(), 0.07, 1e-12);
  EXPECT_DOUBLE_EQ(rig.engine.alpha(), actuator.current_alpha());
  const ClassSet fresh_classes = rig.f.classes(0.07);
  AdmissionController fresh(rig.f.graph, fresh_classes, rig.f.table);
  for (net::ServerId s = 0; s < rig.f.graph.size(); ++s)
    ASSERT_EQ(rig.ctl.limit_units(s, 0), fresh.limit_units(s, 0));
}

// A deadline miss means the committed alpha failed in the field: the
// search must go strictly down — even when congestion rules fire too —
// and the shrink sheds flows the smaller budget cannot hold.
TEST(Reconfig, ActuatorDeadlineMissForcesAlphaDown) {
  ActuatorRig rig(0.30);
  rig.add_rule("deadline-miss");
  rig.add_rule("headroom-exhaustion");  // outranked by the miss
  reconfig::ActuationPolicy policy;
  policy.cooldown_ns = 0;
  policy.max_step = 0.25;
  auto actuator = rig.make_actuator(policy);

  // Saturate one route so the downward swap has something to shed.
  const auto held = fill_demand(rig.ctl, rig.f.demands.front());
  ASSERT_GT(held.size(), 0u);

  rig.breach = true;
  rig.tick_alerts();
  actuator.on_tick();

  EXPECT_EQ(actuator.actuations(), 1u);
  EXPECT_LT(actuator.current_alpha(), 0.30);
  EXPECT_GT(actuator.shed_flows_total(), 0u);
  EXPECT_LT(rig.ctl.active_flows(), held.size());
  const std::string json = actuator.to_json();
  EXPECT_NE(json.find("\"trigger\":\"deadline-miss\""), std::string::npos);
}

TEST(Reconfig, ActuatorDisabledPolicyIsInert) {
  ActuatorRig rig(0.05);
  rig.add_rule("headroom-exhaustion");
  reconfig::ActuationPolicy policy;
  policy.enabled = false;
  auto actuator = rig.make_actuator(policy);
  rig.breach = true;
  rig.tick_alerts();
  actuator.on_tick();
  EXPECT_EQ(actuator.actuations(), 0u);
  EXPECT_EQ(actuator.cooldown_blocked(), 0u);
  EXPECT_DOUBLE_EQ(rig.engine.alpha(), 0.05);

  // Re-arming through set_policy (the POST /reconfig path) works live.
  policy.enabled = true;
  policy.cooldown_ns = 0;
  actuator.set_policy(policy);
  actuator.on_tick();
  EXPECT_EQ(actuator.actuations(), 1u);
}

// One validation for every way a policy arrives: non-finite values, a
// re-search range outside 0 <= lo <= hi <= 1, a non-positive step or
// resolution, a negative min_delta and a cooldown that does not fit int64
// ns are rejected; set_policy keeps the old policy.
TEST(Reconfig, PolicyValidationRejectsUnusableBounds) {
  EXPECT_NO_THROW(reconfig::ActuationPolicy{}.validate());
  const auto nan = std::numeric_limits<double>::quiet_NaN();
  const auto inf = std::numeric_limits<double>::infinity();
  const std::vector<std::function<void(reconfig::ActuationPolicy&)>> bad = {
      [&](auto& p) { p.search_lo = nan; },
      [&](auto& p) { p.max_step = inf; },
      [&](auto& p) { p.min_delta = nan; },
      [](auto& p) { p.search_lo = -0.1; },
      [](auto& p) { p.search_hi = 1.5; },
      [](auto& p) {
        p.search_lo = 0.6;
        p.search_hi = 0.4;
      },
      [](auto& p) { p.resolution = 0.0; },
      [](auto& p) { p.min_delta = -1e-4; },
      [](auto& p) { p.max_step = 0.0; },
      [](auto& p) { p.cooldown_ns = -1; },
  };
  ActuatorRig rig(0.05);
  auto actuator = rig.make_actuator({});
  for (std::size_t i = 0; i < bad.size(); ++i) {
    SCOPED_TRACE(i);
    reconfig::ActuationPolicy p;
    bad[i](p);
    EXPECT_THROW(p.validate(), std::invalid_argument);
    EXPECT_THROW(actuator.set_policy(p), std::invalid_argument);
    EXPECT_THROW(rig.make_actuator(p), std::invalid_argument);
  }
  EXPECT_EQ(actuator.to_json(), rig.make_actuator({}).to_json());

  reconfig::ActuationPolicy p;
  for (const double seconds : {-1.0, nan, inf, 1e12}) {
    SCOPED_TRACE(seconds);
    EXPECT_THROW(p.set_cooldown_s(seconds), std::invalid_argument);
  }
  p.set_cooldown_s(9e9);  // just below 2^63 ns
  EXPECT_EQ(p.cooldown_ns, std::int64_t{9'000'000'000'000'000'000});
}

// The /reconfig route answers a bad POST with 400 and keeps the policy; the
// JSON it serves stays finite.
TEST(Reconfig, ReconfigRouteRejectsBadPostsAndKeepsThePolicy) {
  ActuatorRig rig(0.05);
  auto actuator = rig.make_actuator({});
  const auto post = [&](std::map<std::string, std::string> query) {
    telemetry::HttpRequest request;
    request.method = "POST";
    request.path = "/reconfig";
    request.query = std::move(query);
    return reconfig::reconfig_route(actuator, request);
  };
  const std::string before = actuator.to_json();
  for (const auto& query : std::vector<std::map<std::string, std::string>>{
           {{"enabled", "true"}, {"search_lo", "nan"}, {"max_step", "inf"}},
           {{"search_lo", "0.9"}, {"search_hi", "0.2"}},
           {{"search_hi", "1.5"}},
           {{"max_step", "0"}},
           {{"resolution", "-1"}},
           {{"min_delta", "-0.5"}},
           {{"cooldown_s", "1e300"}},
           {{"cooldown_s", "-2"}},
           {{"max_step", "0.1x"}},
           {{"dry_run", "maybe"}}}) {
    SCOPED_TRACE(query.begin()->first + "=" + query.begin()->second);
    EXPECT_EQ(post(query).status, 400);
    EXPECT_EQ(actuator.to_json(), before);
  }
  EXPECT_EQ(before.find(":nan"), std::string::npos);
  EXPECT_EQ(before.find(":inf"), std::string::npos);

  const auto ok = post({{"enabled", "false"},
                        {"search_lo", "0.2"},
                        {"search_hi", "0.4"},
                        {"cooldown_s", "2"}});
  EXPECT_EQ(ok.status, 200);
  const reconfig::ActuationPolicy now = actuator.policy();
  EXPECT_FALSE(now.enabled);
  EXPECT_DOUBLE_EQ(now.search_lo, 0.2);
  EXPECT_DOUBLE_EQ(now.search_hi, 0.4);
  EXPECT_EQ(now.cooldown_ns, 2'000'000'000);
  EXPECT_EQ(ok.body, actuator.to_json());
}

// ---------------------------------------------------------------------------
// Concurrency: budget swaps racing admit/release churn (TSan target)
// ---------------------------------------------------------------------------

// 8 churn threads race a reconfiguration thread flapping the class-0
// share between generous and tight. At drain, every admitted flow was
// torn down exactly once (by its owner or by a shed pass, never both),
// and every reservation counter returns to zero — the conservation and
// no-double-release invariants of docs/concurrency.md survive live
// budget swaps.
TEST(Reconfig, ChurnDuringBudgetSwapsConservesLedger) {
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kItersPerThread = 4'000;
  constexpr int kSwaps = 24;

  MciFixture f;
  const ClassSet classes = f.classes(0.06);
  AdmissionController ctl(f.graph, classes, f.table);

  std::vector<std::vector<traffic::FlowId>> held(kThreads);
  std::vector<std::size_t> admitted(kThreads, 0), released(kThreads, 0);
  std::vector<BudgetSwapReport> reports;

  {
    std::thread reconfig_thread([&] {
      for (int i = 0; i < kSwaps; ++i) {
        reports.push_back(swap_to(ctl, i % 2 == 0 ? 0.03 : 0.06));
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      reports.push_back(swap_to(ctl, 0.06));  // end on the generous budget
    });

    util::ThreadPool pool(kThreads);
    pool.parallel_for(kThreads, [&](std::size_t t) {
      util::Xoshiro256 rng(0xF00D + t);
      for (std::size_t k = 0; k < kItersPerThread; ++k) {
        if (!held[t].empty() && rng.bernoulli(0.45)) {
          const auto pos = rng.uniform_index(held[t].size());
          // May fail: a shed pass can have torn this flow down already.
          if (ctl.release(held[t][pos])) ++released[t];
          held[t][pos] = held[t].back();
          held[t].pop_back();
        } else {
          const auto& d = f.demands[rng.uniform_index(f.demands.size())];
          const auto decision = ctl.request(d.src, d.dst, d.class_index);
          if (decision.admitted()) {
            held[t].push_back(decision.flow_id);
            ++admitted[t];
          }
        }
      }
    });
    reconfig_thread.join();
  }

  // Drain: release everything still held; failures must be shed flows.
  std::set<traffic::FlowId> shed;
  std::size_t shed_reported = 0;
  for (const auto& report : reports) {
    shed_reported += report.shed_flows;
    shed.insert(report.shed_ids.begin(), report.shed_ids.end());
  }
  EXPECT_EQ(shed.size(), shed_reported) << "a flow was shed twice";

  std::size_t total_admitted = 0, total_released = 0;
  for (std::size_t t = 0; t < kThreads; ++t) {
    total_admitted += admitted[t];
    total_released += released[t];
    for (const auto id : held[t]) {
      if (ctl.release(id))
        ++total_released;
      else
        EXPECT_TRUE(shed.count(id))
            << "flow " << id << " lost without a shed record";
    }
  }

  // Every admitted flow was torn down exactly once. (Shed ids the owner
  // also tried to release count once: the loser of that race is a benign
  // unknown-release.)
  std::size_t shed_not_released = 0;
  for (const auto id : shed)
    if (!ctl.find_flow(id).has_value()) ++shed_not_released;
  EXPECT_EQ(ctl.active_flows(), 0u);
  EXPECT_EQ(total_released + shed.size(), total_admitted);

  // Conservation: every counter back to zero, and the watermark never
  // passed the generous budget.
  for (net::ServerId s = 0; s < f.graph.size(); ++s) {
    EXPECT_EQ(ctl.reserved_units(s, 0), 0u) << "server " << s;
    EXPECT_LE(ctl.peak_reserved_rate(s, 0),
              0.06 * f.graph.server(s).capacity + 1.0)
        << "server " << s;
  }
}

}  // namespace
}  // namespace ubac
