#include "reconfig/actuator.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "telemetry/exporters.hpp"
#include "telemetry/span.hpp"
#include "util/parse_number.hpp"

namespace ubac::reconfig {

namespace {

// Static reason strings: TraceEvent::reason is never owned by the tracer.
constexpr const char* kReasonResearch = "reconfig:research";
constexpr const char* kReasonApply = "reconfig:apply";
constexpr const char* kReasonShed = "reconfig:shed";
constexpr const char* kReasonDryRun = "reconfig:dry-run";
constexpr const char* kReasonInfeasible = "reconfig:infeasible";

constexpr const char* kOutcomeApplied = "applied";
constexpr const char* kOutcomeDryRun = "dry-run";
constexpr const char* kOutcomeInfeasible = "infeasible";
constexpr const char* kOutcomeNoChange = "no-change";

/// Parse one double field of a /reconfig POST into `dst`. Returns false
/// (and fills `error`) on a malformed value; absent fields are skipped.
bool parse_policy_double(const telemetry::HttpRequest& request,
                         const char* key, double& dst, std::string& error) {
  const std::string raw = request.query_get(key);
  if (raw.empty()) return true;
  const auto v = util::parse_number<double>(raw);
  if (!v) {
    error = std::string("bad ") + key + "\n";
    return false;
  }
  dst = *v;
  return true;
}

bool parse_policy_bool(const telemetry::HttpRequest& request, const char* key,
                       bool& dst, std::string& error) {
  const std::string raw = request.query_get(key);
  if (raw.empty()) return true;
  if (raw == "1" || raw == "true") {
    dst = true;
  } else if (raw == "0" || raw == "false") {
    dst = false;
  } else {
    error = std::string("bad ") + key + " (want 0/1/true/false)\n";
    return false;
  }
  return true;
}

}  // namespace

void ActuationPolicy::validate() const {
  const auto require = [](bool ok, const char* what) {
    if (!ok) throw std::invalid_argument(std::string("policy: ") + what);
  };
  require(std::isfinite(max_step) && std::isfinite(search_lo) &&
              std::isfinite(search_hi) && std::isfinite(resolution) &&
              std::isfinite(min_delta),
          "values must be finite");
  require(search_lo >= 0.0 && search_lo <= search_hi && search_hi <= 1.0,
          "need 0 <= search_lo <= search_hi <= 1");
  require(resolution > 0.0, "resolution must be > 0");
  require(min_delta >= 0.0, "min_delta must be >= 0");
  require(max_step > 0.0, "max_step must be > 0");
  require(cooldown_ns >= 0, "cooldown must be >= 0");
}

void ActuationPolicy::set_cooldown_s(double seconds) {
  // 2^63 ns is exactly representable; anything below it converts.
  if (!(seconds >= 0.0 && seconds * 1e9 < 0x1p63))
    throw std::invalid_argument(
        "policy: cooldown must be finite, >= 0 and below 2^63 ns");
  cooldown_ns = static_cast<std::int64_t>(seconds * 1e9);
}

ReconfigurationActuator::ReconfigurationActuator(
    analysis::AnalysisEngine& engine,
    admission::ConcurrentAdmissionController& controller,
    telemetry::AlertEngine& alerts, ActuationPolicy policy, Options options)
    : engine_(&engine), controller_(&controller), alerts_(&alerts),
      options_(options), policy_(policy) {
  policy_.validate();
  if (options_.metrics != nullptr) {
    telemetry::MetricsRegistry& m = *options_.metrics;
    actuations_applied_ = &m.counter(
        "ubac_reconfig_actuations_total",
        "Actuation attempts by outcome", {{"outcome", kOutcomeApplied}});
    actuations_dry_run_ = &m.counter("ubac_reconfig_actuations_total",
                                     "Actuation attempts by outcome",
                                     {{"outcome", kOutcomeDryRun}});
    actuations_infeasible_ = &m.counter("ubac_reconfig_actuations_total",
                                        "Actuation attempts by outcome",
                                        {{"outcome", kOutcomeInfeasible}});
    actuations_no_change_ = &m.counter("ubac_reconfig_actuations_total",
                                       "Actuation attempts by outcome",
                                       {{"outcome", kOutcomeNoChange}});
    cooldown_blocked_total_ = &m.counter(
        "ubac_reconfig_cooldown_blocked_total",
        "Actionable alerts ignored because the cooldown had not lapsed");
    shed_flows_metric_ = &m.counter(
        "ubac_reconfig_shed_flows_total",
        "Flows shed by live budget shrinks, total");
    alpha_gauge_ = &m.gauge("ubac_reconfig_alpha",
                            "Utilization bound the ledger currently runs at");
    alpha_gauge_->set(engine_->alpha());
  }
}

ReconfigurationActuator::Trigger ReconfigurationActuator::read_trigger()
    const {
  Trigger trigger;
  for (const telemetry::AlertStatus& st : alerts_->status()) {
    if (st.state != telemetry::AlertState::kFiring) continue;
    const bool lower =
        st.rule == "deadline-miss" || st.rule == "misdeclaration";
    const bool raise =
        st.rule == "headroom-exhaustion" || st.rule == "rejection-spike";
    if (!lower && !raise) continue;  // not an actionable rule
    // A broken guarantee outranks congestion: once deadline-miss (or
    // misdeclaration — the model's inputs were wrong) fires, the search
    // direction is down regardless of what else is firing.
    if (!trigger.fire || (lower && !trigger.lower)) {
      trigger.fire = true;
      trigger.lower = lower;
      trigger.rule = st.rule;
    }
    for (const telemetry::AlertAction& action : st.actions) {
      if (action.kind == telemetry::AlertAction::Kind::kMisdeclaring)
        trigger.offending_flows.push_back(action.flow_id);
      else if (action.kind == telemetry::AlertAction::Kind::kStarved)
        ++trigger.starved;
      else
        ++trigger.idle;
    }
  }
  return trigger;
}

void ReconfigurationActuator::mirror(const char* reason, double value,
                                     std::int64_t t_ns) {
  if (options_.tracer == nullptr) return;
  telemetry::TraceEvent ev;
  ev.kind = telemetry::TraceEventKind::kReconfig;
  ev.timestamp_ns = t_ns;
  ev.utilization = value;
  ev.reason = reason;
  options_.tracer->record(ev);
}

void ReconfigurationActuator::push_record(const ActuationRecord& record) {
  history_.push_back(record);
  while (history_.size() > options_.history) history_.pop_front();
}

void ReconfigurationActuator::on_tick() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!policy_.enabled) return;
  const Trigger trigger = read_trigger();
  if (!trigger.fire) return;

  const std::int64_t now = telemetry::EventTracer::now_ns();
  if (last_actuation_ns_ != 0 &&
      now - last_actuation_ns_ < policy_.cooldown_ns) {
    ++cooldown_blocked_;
    if (cooldown_blocked_total_ != nullptr) cooldown_blocked_total_->add();
    return;
  }
  // Charged up front: every outcome below — including an infeasible
  // search — costs analysis work the cooldown exists to bound.
  last_actuation_ns_ = now;

  UBAC_SPAN_ARG("reconfig.actuate", "reconfig", "lower",
                trigger.lower ? 1.0 : 0.0);
  ActuationRecord record;
  record.t_ns = now;
  record.trigger = trigger.rule == "deadline-miss"     ? "deadline-miss"
                   : trigger.rule == "misdeclaration"  ? "misdeclaration"
                   : trigger.rule == "rejection-spike" ? "rejection-spike"
                                                       : "headroom-exhaustion";
  record.alpha_before = engine_->alpha();
  record.starved_budgets = trigger.starved;
  record.idle_budgets = trigger.idle;
  record.offending_flows = trigger.offending_flows;

  // Re-search. A deadline miss means the committed alpha failed in the
  // field, so the range is forced strictly below it; congestion searches
  // the whole policy range (the seed anchor inside research_alpha keeps
  // upward moves warm).
  double lo = policy_.search_lo;
  double hi = policy_.search_hi;
  if (trigger.lower)
    hi = std::max(lo, record.alpha_before -
                          std::max(policy_.resolution, policy_.min_delta));
  mirror(kReasonResearch, record.alpha_before, now);
  analysis::AlphaResearch research;
  {
    UBAC_SPAN_ARG("reconfig.research", "reconfig", "hi", hi);
    research = engine_->research_alpha(lo, hi, policy_.resolution);
  }
  record.probes = research.probes;
  record.alpha_target = research.alpha;

  if (!research.feasible) {
    record.outcome = kOutcomeInfeasible;
    ++infeasible_;
    if (actuations_infeasible_ != nullptr) actuations_infeasible_->add();
    mirror(kReasonInfeasible, record.alpha_before, now);
    push_record(record);
    return;
  }

  // Clamp to the per-step bound and re-commit the engine at what will
  // actually be pushed, so analysis state and ledger never diverge. The
  // clamped value is feasible by monotonicity: upward moves stay below
  // the verified target, downward moves stay below the seed.
  double applied = std::clamp(research.alpha,
                              record.alpha_before - policy_.max_step,
                              record.alpha_before + policy_.max_step);
  if (trigger.lower) applied = std::min(applied, hi);
  record.alpha_applied = applied;
  if (applied != research.alpha) {
    engine_->set_alpha(applied);
    engine_->solve();
  }

  if (std::abs(applied - record.alpha_before) < policy_.min_delta) {
    record.outcome = kOutcomeNoChange;
    ++no_change_;
    if (actuations_no_change_ != nullptr) actuations_no_change_->add();
    push_record(record);
    return;
  }

  if (policy_.dry_run) {
    // Report the proposal, then put the engine back on the committed
    // operating point — the ledger never saw anything.
    engine_->set_alpha(record.alpha_before);
    engine_->solve();
    record.outcome = kOutcomeDryRun;
    ++dry_runs_;
    if (actuations_dry_run_ != nullptr) actuations_dry_run_->add();
    mirror(kReasonDryRun, applied, now);
    push_record(record);
    return;
  }

  admission::BudgetSwapReport report;
  {
    UBAC_SPAN_ARG("reconfig.apply", "reconfig", "alpha", applied);
    const admission::ShareUpdate update{0, applied};
    report = controller_->apply_shares({&update, 1});
  }
  record.shed_flows = report.shed_flows;
  record.outcome = kOutcomeApplied;
  ++applied_;
  shed_total_ += report.shed_flows;
  if (actuations_applied_ != nullptr) actuations_applied_->add();
  if (shed_flows_metric_ != nullptr && report.shed_flows != 0)
    shed_flows_metric_->add(report.shed_flows);
  if (alpha_gauge_ != nullptr) alpha_gauge_->set(applied);
  mirror(kReasonApply, applied, now);
  if (report.shed_flows != 0)
    mirror(kReasonShed, static_cast<double>(report.shed_flows), now);
  push_record(record);
}

ActuationPolicy ReconfigurationActuator::policy() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return policy_;
}

void ReconfigurationActuator::set_policy(const ActuationPolicy& policy) {
  policy.validate();
  std::lock_guard<std::mutex> lock(mutex_);
  policy_ = policy;
}

std::uint64_t ReconfigurationActuator::actuations() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return applied_;
}

std::uint64_t ReconfigurationActuator::dry_runs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dry_runs_;
}

std::uint64_t ReconfigurationActuator::infeasible() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return infeasible_;
}

std::uint64_t ReconfigurationActuator::cooldown_blocked() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cooldown_blocked_;
}

std::uint64_t ReconfigurationActuator::shed_flows_total() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return shed_total_;
}

double ReconfigurationActuator::current_alpha() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return engine_->alpha();
}

std::string ReconfigurationActuator::to_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  char buf[256];
  std::snprintf(
      buf, sizeof(buf),
      "{\"policy\":{\"enabled\":%s,\"dry_run\":%s,\"cooldown_ns\":%lld,"
      "\"max_step\":%.9g,\"search_lo\":%.9g,\"search_hi\":%.9g,"
      "\"resolution\":%.9g,\"min_delta\":%.9g},",
      policy_.enabled ? "true" : "false", policy_.dry_run ? "true" : "false",
      static_cast<long long>(policy_.cooldown_ns), policy_.max_step,
      policy_.search_lo, policy_.search_hi, policy_.resolution,
      policy_.min_delta);
  std::string out = buf;
  std::snprintf(
      buf, sizeof(buf),
      "\"alpha\":%.9g,\"applied\":%llu,\"dry_runs\":%llu,"
      "\"infeasible\":%llu,\"no_change\":%llu,\"cooldown_blocked\":%llu,"
      "\"shed_flows\":%llu,\"history\":[",
      engine_->alpha(), static_cast<unsigned long long>(applied_),
      static_cast<unsigned long long>(dry_runs_),
      static_cast<unsigned long long>(infeasible_),
      static_cast<unsigned long long>(no_change_),
      static_cast<unsigned long long>(cooldown_blocked_),
      static_cast<unsigned long long>(shed_total_));
  out += buf;
  for (std::size_t i = 0; i < history_.size(); ++i) {
    const ActuationRecord& r = history_[i];
    if (i) out += ",";
    std::snprintf(
        buf, sizeof(buf),
        "\n {\"t_ns\":%lld,\"outcome\":\"%s\",\"trigger\":\"%s\","
        "\"alpha_before\":%.9g,\"alpha_target\":%.9g,\"alpha_applied\":%.9g,"
        "\"shed_flows\":%zu,\"starved\":%zu,\"idle\":%zu,\"probes\":%d,"
        "\"flows\":[",
        static_cast<long long>(r.t_ns), r.outcome, r.trigger, r.alpha_before,
        r.alpha_target, r.alpha_applied, r.shed_flows, r.starved_budgets,
        r.idle_budgets, r.probes);
    out += buf;
    for (std::size_t j = 0; j < r.offending_flows.size(); ++j) {
      if (j) out += ",";
      std::snprintf(buf, sizeof(buf), "%llu",
                    static_cast<unsigned long long>(r.offending_flows[j]));
      out += buf;
    }
    out += "]}";
  }
  out += "\n]}";
  return out;
}

telemetry::HttpResponse reconfig_route(ReconfigurationActuator& actuator,
                                       const telemetry::HttpRequest& request) {
  if (request.method == "POST") {
    ActuationPolicy p = actuator.policy();
    std::string error;
    double cooldown_s = 0.0;  // applied only when given
    if (!parse_policy_bool(request, "enabled", p.enabled, error) ||
        !parse_policy_bool(request, "dry_run", p.dry_run, error) ||
        !parse_policy_double(request, "cooldown_s", cooldown_s, error) ||
        !parse_policy_double(request, "max_step", p.max_step, error) ||
        !parse_policy_double(request, "search_lo", p.search_lo, error) ||
        !parse_policy_double(request, "search_hi", p.search_hi, error) ||
        !parse_policy_double(request, "resolution", p.resolution, error) ||
        !parse_policy_double(request, "min_delta", p.min_delta, error))
      return telemetry::HttpResponse::text(error, 400);
    try {
      if (!request.query_get("cooldown_s").empty())
        p.set_cooldown_s(cooldown_s);
      actuator.set_policy(p);
    } catch (const std::invalid_argument& e) {
      return telemetry::HttpResponse::text(std::string(e.what()) + "\n", 400);
    }
  }
  return telemetry::HttpResponse::json(actuator.to_json());
}

}  // namespace ubac::reconfig
