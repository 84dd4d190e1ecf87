#include "telemetry/conformance.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "telemetry/alerts.hpp"
#include "telemetry/event_trace.hpp"
#include "telemetry/http_endpoint.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"
#include "util/parse_number.hpp"

namespace ubac::telemetry {
namespace {

// Static reason strings for the kConformance tracer mirrors; the schema
// checker (tools/check_trace_schema.py) keeps this set closed.
constexpr const char* kReasonViolation = "conformance:violation";
constexpr const char* kReasonClear = "conformance:clear";

/// Margin histogram bounds: margins live in (-inf, 1], negative =
/// misdeclaring, so the buckets resolve both polarities around 0.
std::vector<double> margin_bounds() {
  return {-4.0, -2.0, -1.0, -0.5, -0.25, -0.1, -0.05, -0.01,
          0.0,  0.01, 0.05, 0.1,  0.25,  0.5,  1.0};
}

bool worse(const FlowConformance& a, const FlowConformance& b) {
  if (a.margin != b.margin) return a.margin < b.margin;
  if (a.worst_margin != b.worst_margin) return a.worst_margin < b.worst_margin;
  return a.flow_id < b.flow_id;
}

void append_flow_json(std::string& out, const FlowConformance& f) {
  char buf[320];
  const double age_s =
      static_cast<double>(f.last_check_ns - f.first_seen_ns) * 1e-9;
  std::snprintf(buf, sizeof buf,
                "{\"flow\":%llu,\"class\":%u,\"live\":%s,\"violating\":%s,"
                "\"margin\":%.9g,\"worst_margin\":%.9g,\"ratio\":%.9g,"
                "\"observed_bps\":%.9g,\"declared_bps\":%.9g,\"age_s\":%.3f}",
                static_cast<unsigned long long>(f.flow_id), f.class_index,
                f.live ? "true" : "false", f.violating ? "true" : "false",
                f.margin, f.worst_margin, f.worst_ratio, f.observed_bps,
                f.declared_bps, age_s < 0.0 ? 0.0 : age_s);
  out += buf;
}

}  // namespace

ConformanceMonitor::ConformanceMonitor(const ArrivalRecorder& recorder,
                                       Options options)
    : recorder_(recorder), options_(options) {
  if (options_.metrics) {
    MetricsRegistry& m = *options_.metrics;
    flows_gauge_ = &m.gauge("ubac_conformance_flows",
                            "Flow conformance scores retained (live flows "
                            "plus released violators)");
    live_gauge_ = &m.gauge("ubac_conformance_live_flows",
                           "Flows currently registered with the recorder");
    violating_gauge_ =
        &m.gauge("ubac_conformance_violating_flows",
                 "Flows whose conformance margin is below the threshold");
    worst_margin_gauge_ =
        &m.gauge("ubac_conformance_worst_margin",
                 "Worst token-bucket conformance margin across all flows "
                 "(1 idle, 0 at the declared envelope, negative violating)");
    dropped_gauge_ =
        &m.gauge("ubac_conformance_dropped_registrations",
                 "Flow registrations refused by the recorder's slot table");
    checks_total_ = &m.counter("ubac_conformance_checks_total",
                               "Conformance passes over the recorder");
    worst_margin_hist_ = &m.histogram(
        "ubac_conformance_worst_margin_hist",
        "Per-check distribution of the worst conformance margin",
        margin_bounds());
  }
}

void ConformanceMonitor::set_class_envelope(std::uint32_t class_index,
                                            traffic::LeakyBucket bucket,
                                            double line_rate_bps) {
  std::lock_guard<std::mutex> lock(mutex_);
  envelopes_[class_index] = ClassEnvelope{bucket, line_rate_bps};
}

void ConformanceMonitor::set_placement(PlacementFn placement) {
  std::lock_guard<std::mutex> lock(mutex_);
  placement_ = std::move(placement);
}

void ConformanceMonitor::set_share(std::uint32_t server,
                                   std::uint32_t class_index,
                                   double share_bps) {
  std::lock_guard<std::mutex> lock(mutex_);
  shares_[{server, class_index}] = share_bps;
}

void ConformanceMonitor::check(std::int64_t now_ns) {
  UBAC_SPAN("conformance.check", "conformance");
  std::lock_guard<std::mutex> lock(mutex_);
  ++checks_;
  scratch_.clear();
  recorder_.collect(now_ns, scratch_);

  for (auto& entry : scores_) entry.second.live = false;
  budgets_.clear();

  std::vector<std::uint32_t> servers;
  for (const ArrivalRecorder::FlowWindows& fw : scratch_) {
    FlowConformance& score = scores_[fw.flow_id];
    if (score.first_seen_ns == 0) {
      score.flow_id = fw.flow_id;
      score.class_index = fw.class_index;
      score.first_seen_ns = now_ns;
    }
    score.live = true;
    score.last_check_ns = now_ns;

    double worst_ratio = 0.0;
    const auto env_it = envelopes_.find(fw.class_index);
    if (env_it != envelopes_.end()) {
      const ClassEnvelope& env = env_it->second;
      score.declared_bps = env.bucket.rate;
      for (std::size_t s = 0; s < ArrivalRecorder::kScales; ++s) {
        const double interval =
            static_cast<double>(ArrivalRecorder::kWindowNs[s]) * 1e-9;
        double declared = env.bucket.burst + env.bucket.rate * interval;
        if (env.line_rate_bps > 0.0)
          declared = std::min(declared, env.line_rate_bps * interval);
        if (declared <= 0.0) continue;
        worst_ratio = std::max(worst_ratio, fw.window_bits[s] / declared);
      }
    }
    score.worst_ratio = worst_ratio;
    score.margin = 1.0 - worst_ratio;
    score.worst_margin = std::min(score.worst_margin, score.margin);

    const bool was_violating = score.violating;
    // kEps absorbs the double-rounding of the declared envelope so a flow
    // offering *exactly* (T, rho) cannot land at margin = -1ulp.
    constexpr double kEps = 1e-9;
    score.violating = score.margin < options_.margin_threshold - kEps;
    if (options_.tracer && was_violating != score.violating) {
      TraceEvent ev;
      ev.kind = TraceEventKind::kConformance;
      ev.flow_id = score.flow_id;
      ev.class_index = score.class_index;
      ev.utilization = score.margin;
      ev.reason = score.violating ? kReasonViolation : kReasonClear;
      options_.tracer->record(ev);
    }

    // Sustained observed rate: the largest window holds at most its own
    // span of traffic, less when the flow is younger than the window.
    const double largest_s =
        static_cast<double>(
            ArrivalRecorder::kWindowNs[ArrivalRecorder::kScales - 1]) *
        1e-9;
    const double smallest_s =
        static_cast<double>(ArrivalRecorder::kWindowNs[0]) * 1e-9;
    double span_s = largest_s;
    if (fw.registered_ns > 0 && fw.registered_ns < now_ns)
      span_s = std::min(
          largest_s,
          std::max(smallest_s,
                   static_cast<double>(now_ns - fw.registered_ns) * 1e-9));
    score.observed_bps =
        fw.window_bits[ArrivalRecorder::kScales - 1] / span_s;

    if (placement_) {
      servers.clear();
      if (placement_(fw.flow_id, servers)) {
        for (const std::uint32_t server : servers) {
          BudgetConformance& budget = budgets_[{server, fw.class_index}];
          budget.server = server;
          budget.class_index = fw.class_index;
          budget.observed_bps += score.observed_bps;
        }
      }
    }
  }

  // Released conformant flows are dropped; released violators retained
  // (misdeclaration is a property of the flow, and the alert/HTTP
  // consumers want offenders to stay visible across churn).
  for (auto it = scores_.begin(); it != scores_.end();)
    it = (!it->second.live && !it->second.violating) ? scores_.erase(it)
                                                     : std::next(it);
  prune_locked();

  std::size_t live = 0, violating = 0;
  double worst = 1.0;
  for (const auto& entry : scores_) {
    const FlowConformance& score = entry.second;
    live += score.live ? 1 : 0;
    violating += score.violating ? 1 : 0;
    worst = std::min(worst, score.live ? score.margin : score.worst_margin);
  }

  for (auto& entry : budgets_) {
    BudgetConformance& budget = entry.second;
    const auto share_it = shares_.find(entry.first);
    if (share_it != shares_.end() && share_it->second > 0.0) {
      budget.share_bps = share_it->second;
      budget.ratio = budget.observed_bps / budget.share_bps;
    }
    if (options_.metrics)
      options_.metrics
          ->gauge("ubac_conformance_observed_declared_ratio",
                  "Observed utilization of a (server, class) budget as a "
                  "fraction of its verified alpha*C share",
                  {{"server", std::to_string(budget.server)},
                   {"class", std::to_string(budget.class_index)}})
          .set(budget.ratio);
  }

  if (checks_total_) checks_total_->add();
  if (flows_gauge_) flows_gauge_->set(static_cast<double>(scores_.size()));
  if (live_gauge_) live_gauge_->set(static_cast<double>(live));
  if (violating_gauge_)
    violating_gauge_->set(static_cast<double>(violating));
  if (worst_margin_gauge_) worst_margin_gauge_->set(worst);
  if (dropped_gauge_)
    dropped_gauge_->set(
        static_cast<double>(recorder_.dropped_registrations()));
  if (worst_margin_hist_) worst_margin_hist_->record(worst);
}

void ConformanceMonitor::prune_locked() {
  if (scores_.size() <= options_.max_retained) return;
  // Over budget: evict the oldest released violators (live flows stay).
  std::vector<std::pair<std::int64_t, traffic::FlowId>> released;
  for (const auto& entry : scores_)
    if (!entry.second.live)
      released.emplace_back(entry.second.last_check_ns, entry.first);
  std::sort(released.begin(), released.end());
  for (const auto& victim : released) {
    if (scores_.size() <= options_.max_retained) break;
    scores_.erase(victim.second);
  }
}

std::uint64_t ConformanceMonitor::checks() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return checks_;
}

std::size_t ConformanceMonitor::flows_seen() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return scores_.size();
}

std::size_t ConformanceMonitor::live_flows() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t live = 0;
  for (const auto& entry : scores_) live += entry.second.live ? 1 : 0;
  return live;
}

std::size_t ConformanceMonitor::violating_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t violating = 0;
  for (const auto& entry : scores_)
    violating += entry.second.violating ? 1 : 0;
  return violating;
}

double ConformanceMonitor::worst_margin() const {
  std::lock_guard<std::mutex> lock(mutex_);
  double worst = 1.0;
  for (const auto& entry : scores_)
    worst = std::min(worst, entry.second.worst_margin);
  return worst;
}

std::vector<FlowConformance> ConformanceMonitor::violating_flows(
    std::optional<double> threshold) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<FlowConformance> out;
  for (const auto& entry : scores_) {
    const FlowConformance& score = entry.second;
    constexpr double kEps = 1e-9;  // same slack as check()
    const bool hit = (score.live && threshold.has_value())
                         ? score.margin < *threshold - kEps
                         : score.violating;
    if (hit) out.push_back(score);
  }
  std::sort(out.begin(), out.end(), worse);
  return out;
}

std::vector<FlowConformance> ConformanceMonitor::flows(
    std::size_t top) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<FlowConformance> out;
  out.reserve(scores_.size());
  for (const auto& entry : scores_) out.push_back(entry.second);
  std::sort(out.begin(), out.end(), worse);
  if (top != 0 && out.size() > top) out.resize(top);
  return out;
}

std::vector<BudgetConformance> ConformanceMonitor::budgets() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<BudgetConformance> out;
  out.reserve(budgets_.size());
  for (const auto& entry : budgets_) out.push_back(entry.second);
  return out;
}

std::string ConformanceMonitor::to_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t live = 0, violating = 0;
  double worst = 1.0;
  for (const auto& entry : scores_) {
    live += entry.second.live ? 1 : 0;
    violating += entry.second.violating ? 1 : 0;
    worst = std::min(worst, entry.second.worst_margin);
  }
  char buf[320];
  std::string out = "{";
  std::snprintf(buf, sizeof buf,
                "\"checks\":%llu,\"flows\":%zu,\"live\":%zu,"
                "\"violating\":%zu,\"worst_margin\":%.9g,"
                "\"threshold\":%.9g,\"dropped_registrations\":%llu,"
                "\"window_ns\":[",
                static_cast<unsigned long long>(checks_), scores_.size(),
                live, violating, worst, options_.margin_threshold,
                static_cast<unsigned long long>(
                    recorder_.dropped_registrations()));
  out += buf;
  for (std::size_t s = 0; s < ArrivalRecorder::kScales; ++s) {
    std::snprintf(buf, sizeof buf, "%s%lld", s ? "," : "",
                  static_cast<long long>(ArrivalRecorder::kWindowNs[s]));
    out += buf;
  }
  out += "],\"budgets\":[";
  bool first = true;
  for (const auto& entry : budgets_) {
    const BudgetConformance& budget = entry.second;
    std::snprintf(buf, sizeof buf,
                  "%s{\"server\":%u,\"class\":%u,\"observed_bps\":%.9g,"
                  "\"share_bps\":%.9g,\"ratio\":%.9g}",
                  first ? "" : ",", budget.server, budget.class_index,
                  budget.observed_bps, budget.share_bps, budget.ratio);
    out += buf;
    first = false;
  }
  out += "]}\n";
  return out;
}

std::string ConformanceMonitor::flows_to_json(std::size_t top) const {
  std::vector<FlowConformance> sorted = flows(top);
  std::size_t violating = 0;
  for (const FlowConformance& f : sorted) violating += f.violating ? 1 : 0;
  char buf[96];
  std::snprintf(buf, sizeof buf, "{\"count\":%zu,\"violating\":%zu,",
                sorted.size(), violating);
  std::string out = buf;
  out += "\"flows\":[";
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (i) out += ",";
    append_flow_json(out, sorted[i]);
  }
  out += "]}\n";
  return out;
}

AlertRule AlertEngine::misdeclaration_rule(const ConformanceMonitor* monitor,
                                           double margin_threshold,
                                           std::size_t k,
                                           std::size_t top_k) {
  AlertRule rule;
  rule.name = "misdeclaration";
  rule.description =
      "some admitted flow's observed arrival envelope exceeds its declared "
      "min{C*I, T+rho*I} (conformance margin below threshold)";
  rule.threshold = margin_threshold;
  rule.for_ticks = k;
  rule.resolve_ticks = k;
  rule.check = [monitor, top_k](const MetricsSnapshot&,
                                const TimeSeriesStore&,
                                double live_threshold)
      -> std::optional<AlertObservation> {
    const std::vector<FlowConformance> offenders =
        monitor->violating_flows(live_threshold);
    if (offenders.empty()) return std::nullopt;
    AlertObservation obs;
    obs.value = static_cast<double>(offenders.size());
    const std::size_t n = std::min(top_k, offenders.size());
    for (std::size_t i = 0; i < n; ++i) {
      AlertAction action;
      action.kind = AlertAction::Kind::kMisdeclaring;
      action.flow_id = offenders[i].flow_id;
      action.class_index = offenders[i].class_index;
      action.value = offenders[i].margin;
      obs.actions.push_back(action);
    }
    return obs;
  };
  return rule;
}

void install_conformance_routes(HttpEndpoint& endpoint,
                                const ConformanceMonitor& monitor) {
  endpoint.handle("/conformance", [&monitor](const HttpRequest&) {
    return HttpResponse::json(monitor.to_json());
  });
  endpoint.handle("/conformance/flows", [&monitor](const HttpRequest& req) {
    const std::string raw = req.query_get("top");
    const auto top = raw.empty() ? std::optional<std::size_t>(0)
                                 : util::parse_number<std::size_t>(raw);
    if (!top)
      return HttpResponse::text("top must be a non-negative integer\n", 400);
    return HttpResponse::json(monitor.flows_to_json(*top));
  });
}

}  // namespace ubac::telemetry
