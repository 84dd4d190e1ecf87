#include "telemetry/alerts.hpp"

#include <algorithm>
#include <cstdio>

#include "telemetry/exporters.hpp"
#include "util/parse_number.hpp"

namespace ubac::telemetry {

const char* to_string(AlertState state) {
  switch (state) {
    case AlertState::kInactive: return "inactive";
    case AlertState::kPending: return "pending";
    case AlertState::kFiring: return "firing";
  }
  return "?";
}

const char* to_string(AlertAction::Kind kind) {
  switch (kind) {
    case AlertAction::Kind::kStarved: return "starved";
    case AlertAction::Kind::kIdle: return "idle";
    case AlertAction::Kind::kMisdeclaring: return "misdeclaring";
  }
  return "?";
}

AlertEngine::AlertEngine(Options options) : options_(options) {}

void AlertEngine::add_rule(AlertRule rule) {
  if (!rule.check) throw std::invalid_argument("AlertRule: missing check");
  if (rule.for_ticks == 0) rule.for_ticks = 1;
  if (rule.resolve_ticks == 0) rule.resolve_ticks = 1;
  std::lock_guard<std::mutex> lock(mutex_);
  RuleState rs;
  rs.fire_reason = std::make_unique<std::string>(rule.name + ":fire");
  rs.resolve_reason = std::make_unique<std::string>(rule.name + ":resolved");
  if (options_.metrics != nullptr) {
    rs.fired_total = &options_.metrics->counter(
        "ubac_alerts_fired_total", "Alert fire transitions by rule",
        {{"rule", rule.name}});
    rs.active = &options_.metrics->gauge(
        "ubac_alerts_active", "1 while the rule is firing, else 0",
        {{"rule", rule.name}});
    rs.active->set(0.0);
  }
  rs.rule = std::move(rule);
  rules_.push_back(std::move(rs));
}

std::size_t AlertEngine::rule_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return rules_.size();
}

bool AlertEngine::configure_rule(const std::string& name,
                                 const AlertRuleConfig& config) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (RuleState& rs : rules_) {
    if (rs.rule.name != name) continue;
    if (config.threshold) rs.rule.threshold = *config.threshold;
    if (config.for_ticks)
      rs.rule.for_ticks = std::max<std::size_t>(1, *config.for_ticks);
    if (config.resolve_ticks)
      rs.rule.resolve_ticks = std::max<std::size_t>(1, *config.resolve_ticks);
    return true;
  }
  return false;
}

std::string AlertEngine::config_to_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\"rules\":[";
  char buf[96];
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    const AlertRule& rule = rules_[i].rule;
    if (i) out += ",";
    out += "\n {\"rule\":\"" + json_escape(rule.name) + "\"";
    std::snprintf(buf, sizeof(buf),
                  ",\"threshold\":%.9g,\"for_ticks\":%zu,"
                  "\"resolve_ticks\":%zu}",
                  rule.threshold, rule.for_ticks, rule.resolve_ticks);
    out += buf;
  }
  out += "\n]}";
  return out;
}

void AlertEngine::mirror(const RuleState& rs, bool fire, double value,
                         std::int64_t t_ns) {
  if (options_.tracer == nullptr) return;
  TraceEvent ev;
  ev.kind = TraceEventKind::kAlert;
  ev.timestamp_ns = t_ns;
  ev.utilization = value;
  ev.reason = fire ? rs.fire_reason->c_str() : rs.resolve_reason->c_str();
  options_.tracer->record(ev);
}

void AlertEngine::evaluate(const MetricsSnapshot& snapshot,
                           const TimeSeriesStore& store, std::int64_t t_ns) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++evaluations_;
  for (RuleState& rs : rules_) {
    std::optional<AlertObservation> breach =
        rs.rule.check(snapshot, store, rs.rule.threshold);
    if (breach)
      rs.actions = std::move(breach->actions);
    else
      rs.actions.clear();
    switch (rs.state) {
      case AlertState::kInactive:
        if (breach) {
          rs.state = AlertState::kPending;
          rs.since_ns = t_ns;
          rs.streak = 1;
          rs.value = breach->value;
        }
        break;
      case AlertState::kPending:
        if (!breach) {
          rs.state = AlertState::kInactive;
          rs.since_ns = t_ns;
          rs.streak = 0;
          rs.value = 0.0;
          break;
        }
        rs.value = breach->value;
        ++rs.streak;
        break;
      case AlertState::kFiring:
        if (breach) {
          rs.value = breach->value;
          rs.streak = 0;  // quiet run restarts
        } else if (++rs.streak >= rs.rule.resolve_ticks) {
          rs.state = AlertState::kInactive;
          rs.since_ns = t_ns;
          rs.streak = 0;
          rs.value = 0.0;
          if (rs.active != nullptr) rs.active->set(0.0);
          mirror(rs, /*fire=*/false, 0.0, t_ns);
        }
        break;
    }
    if (rs.state == AlertState::kPending && rs.streak >= rs.rule.for_ticks) {
      rs.state = AlertState::kFiring;
      rs.since_ns = t_ns;
      rs.streak = 0;
      ++rs.fired;
      if (rs.fired_total != nullptr) rs.fired_total->add();
      if (rs.active != nullptr) rs.active->set(1.0);
      mirror(rs, /*fire=*/true, rs.value, t_ns);
      // Freeze the flight recorder on the way *into* firing, while the
      // conditions that breached the rule are still live.
      fire_snapshot_ = FlightSnapshot::capture(
          options_.tracer, options_.metrics, options_.snapshot_max_events);
      has_fire_snapshot_ = true;
    }
  }
}

std::vector<AlertStatus> AlertEngine::status() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<AlertStatus> out;
  out.reserve(rules_.size());
  for (const RuleState& rs : rules_) {
    AlertStatus st;
    st.rule = rs.rule.name;
    st.description = rs.rule.description;
    st.state = rs.state;
    st.value = rs.value;
    st.threshold = rs.rule.threshold;
    st.streak = rs.streak;
    st.fired = rs.fired;
    st.since_ns = rs.since_ns;
    st.actions = rs.actions;
    out.push_back(std::move(st));
  }
  return out;
}

bool AlertEngine::any_firing() const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const RuleState& rs : rules_)
    if (rs.state == AlertState::kFiring) return true;
  return false;
}

std::uint64_t AlertEngine::evaluations() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return evaluations_;
}

FlightSnapshot AlertEngine::last_fire_snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return fire_snapshot_;
}

bool AlertEngine::has_fire_snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return has_fire_snapshot_;
}

std::string AlertEngine::to_json() const {
  const auto statuses = status();
  std::string out = "{\"evaluations\":" + std::to_string(evaluations()) +
                    ",\"firing\":" + (any_firing() ? "true" : "false") +
                    ",\"alerts\":[";
  char buf[192];
  for (std::size_t i = 0; i < statuses.size(); ++i) {
    const AlertStatus& st = statuses[i];
    if (i) out += ",";
    out += "\n {\"rule\":\"" + json_escape(st.rule) + "\",\"description\":\"" +
           json_escape(st.description) + "\",\"state\":\"" +
           to_string(st.state) + "\"";
    std::snprintf(buf, sizeof(buf),
                  ",\"value\":%.9g,\"threshold\":%.9g,\"streak\":%zu,"
                  "\"fired\":%llu,\"since_ns\":%lld,\"actions\":[",
                  st.value, st.threshold, st.streak,
                  static_cast<unsigned long long>(st.fired),
                  static_cast<long long>(st.since_ns));
    out += buf;
    for (std::size_t a = 0; a < st.actions.size(); ++a) {
      const AlertAction& action = st.actions[a];
      if (a) out += ",";
      std::snprintf(buf, sizeof(buf),
                    "{\"kind\":\"%s\",\"server\":%u,\"class\":%u,"
                    "\"flow\":%llu,\"value\":%.9g}",
                    to_string(action.kind), action.server, action.class_index,
                    static_cast<unsigned long long>(action.flow_id),
                    action.value);
      out += buf;
    }
    out += "]}";
  }
  out += "\n]}";
  return out;
}

// -- built-in rules ---------------------------------------------------------

namespace {

/// Parse the "server"/"class" labels ControllerTelemetry puts on
/// ubac_admission_class_utilization into an action; false when the sample
/// belongs to another controller or the labels are malformed.
bool parse_budget_labels(const MetricSample& sample,
                         const std::string& controller, std::uint32_t& server,
                         std::uint32_t& class_index) {
  bool ours = false, has_server = false, has_class = false;
  for (const auto& [key, value] : sample.labels) {
    if (key == "controller" && value == controller) {
      ours = true;
    } else if (key == "server" || key == "class") {
      const auto parsed = util::parse_number<std::uint32_t>(value);
      if (!parsed) return false;
      if (key == "server") {
        server = *parsed;
        has_server = true;
      } else {
        class_index = *parsed;
        has_class = true;
      }
    }
  }
  return ours && has_server && has_class;
}

}  // namespace

AlertRule AlertEngine::headroom_rule(const std::string& controller,
                                     double threshold, std::size_t k,
                                     double idle_fraction) {
  AlertRule rule;
  rule.name = "headroom-exhaustion";
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "ubac_admission_class_utilization{controller=%s} holds above "
                "the live threshold of the verified class share",
                controller.c_str());
  rule.description = buf;
  rule.threshold = threshold;
  rule.for_ticks = k;
  rule.resolve_ticks = k;
  rule.check = [controller, idle_fraction](
                   const MetricsSnapshot& snapshot, const TimeSeriesStore&,
                   double live_threshold) -> std::optional<AlertObservation> {
    AlertObservation obs;
    std::vector<AlertAction> idle;
    for (const MetricFamily& family : snapshot.families) {
      if (family.name != "ubac_admission_class_utilization") continue;
      for (const MetricSample& sample : family.samples) {
        AlertAction action;
        if (!parse_budget_labels(sample, controller, action.server,
                                 action.class_index))
          continue;
        action.value = sample.value;
        if (sample.value > live_threshold) {
          action.kind = AlertAction::Kind::kStarved;
          obs.value = std::max(obs.value, sample.value);
          obs.actions.push_back(action);
        } else if (sample.value < idle_fraction) {
          action.kind = AlertAction::Kind::kIdle;
          idle.push_back(action);
        }
      }
    }
    if (obs.actions.empty()) return std::nullopt;
    // Idle budgets only matter as re-share donors when something starves.
    obs.actions.insert(obs.actions.end(), idle.begin(), idle.end());
    return obs;
  };
  return rule;
}

AlertRule AlertEngine::rejection_spike_rule(const std::string& controller,
                                            double per_second, std::size_t k) {
  AlertRule rule;
  rule.name = "rejection-spike";
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "utilization-exceeded rejections{controller=%s} above the "
                "live per-second threshold",
                controller.c_str());
  rule.description = buf;
  rule.threshold = per_second;
  rule.for_ticks = k;
  rule.resolve_ticks = k;
  rule.check = [controller](const MetricsSnapshot&,
                            const TimeSeriesStore& store, double live_threshold)
      -> std::optional<AlertObservation> {
    RollupWindow window;
    if (!store.latest("ubac_admission_decisions_total",
                      {{"controller", controller},
                       {"outcome", "utilization-exceeded"}},
                      window))
      return std::nullopt;
    // `max` of a rate-derived series is the peak per-second rate seen in
    // the newest window; `count == 1` windows equal the latest tick rate.
    if (window.max > live_threshold) return AlertObservation{window.max, {}};
    return std::nullopt;
  };
  return rule;
}

AlertRule AlertEngine::deadline_miss_rule(std::size_t k) {
  AlertRule rule;
  rule.name = "deadline-miss";
  rule.description =
      "ubac_watchdog_deadline_misses_total is moving: a configured "
      "guarantee was broken";
  rule.threshold = 0.0;
  rule.for_ticks = k;
  rule.resolve_ticks = k;
  rule.check = [](const MetricsSnapshot&, const TimeSeriesStore& store,
                  double live_threshold) -> std::optional<AlertObservation> {
    RollupWindow window;
    if (!store.latest("ubac_watchdog_deadline_misses_total", {}, window))
      return std::nullopt;
    if (window.max > live_threshold) return AlertObservation{window.max, {}};
    return std::nullopt;
  };
  return rule;
}

}  // namespace ubac::telemetry
