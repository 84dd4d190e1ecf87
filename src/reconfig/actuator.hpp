#pragma once

/// \file actuator.hpp
/// \brief Alert-driven live reconfiguration: the loop-closing subsystem.
///
/// The paper's pipeline is one-directional — configuration verifies a
/// utilization bound alpha, admission enforces it, telemetry observes the
/// result. The actuator closes the loop: when the AlertEngine reports that
/// the running system has drifted from the verified operating point
/// (headroom collapse, rejection spikes, or — worse — deadline misses),
/// it re-runs the analysis *online* and pushes the re-verified shares into
/// the live admission ledger:
///
///   alerts firing ──> research_alpha (warm incremental re-search)
///                 ──> clamp to the actuation policy (max step)
///                 ──> ConcurrentAdmissionController::apply_shares
///                     (fence-then-shed atomic budget swap)
///
/// Direction is chosen by the rule that fired: headroom-exhaustion and
/// rejection-spike mean demand outgrew the verified shares, so the search
/// looks *upward* for a larger feasible alpha; deadline-miss and
/// misdeclaration mean the model's inputs were optimistic (the committed
/// alpha failed in the field, or flows offer more than they declared), so
/// the search is forced *downward* below the current alpha. A
/// misdeclaration-triggered record additionally carries the offending
/// flow ids from the alert payload. Every actuation is bounded by an ActuationPolicy —
/// cooldown between actuations, a maximum per-step alpha change, and a
/// dry-run mode that runs the search and reports the proposal without
/// touching the ledger.
///
/// Observability: each phase is mirrored as a kReconfig instant event
/// ("reconfig:research" / "reconfig:apply" / "reconfig:shed" /
/// "reconfig:dry-run" / "reconfig:infeasible") plus reconfig.* spans, and
/// counted in `ubac_reconfig_*` metrics, so a Chrome trace shows the
/// whole causal chain next to the admit/reject stream that provoked it.
///
/// Threading: on_tick() is meant to run as a TelemetrySampler post-alert
/// hook (one thread); policy reads/writes and to_json() may race it from
/// HTTP workers and are mutex-guarded. The analysis engine must be owned
/// exclusively by the actuator — nothing else may mutate it.

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "admission/controller.hpp"
#include "analysis/engine.hpp"
#include "telemetry/alerts.hpp"
#include "telemetry/event_trace.hpp"
#include "telemetry/http_endpoint.hpp"
#include "telemetry/metrics.hpp"

namespace ubac::reconfig {

/// Bounds on what one actuation may do; every field is live-tunable
/// through set_policy() (the /reconfig POST route).
struct ActuationPolicy {
  bool enabled = true;   ///< master switch; disabled ticks are free
  bool dry_run = false;  ///< search + report, never touch the ledger
  /// Minimum spacing between actuations (also charged after infeasible
  /// and no-change outcomes, so a persistent alert cannot make the
  /// sampler thread re-solve every tick).
  std::int64_t cooldown_ns = 5'000'000'000;
  double max_step = 0.05;    ///< |alpha change| cap per actuation
  double search_lo = 0.01;   ///< re-search range, inclusive
  double search_hi = 0.95;
  double resolution = 1e-3;  ///< bisection resolution of the re-search
  double min_delta = 1e-4;   ///< proposals smaller than this are no-ops

  /// Throws std::invalid_argument unless every value is finite,
  /// 0 <= search_lo <= search_hi <= 1, resolution > 0, min_delta >= 0,
  /// max_step > 0 and cooldown_ns >= 0.
  void validate() const;
  /// Sets cooldown_ns; throws std::invalid_argument unless `seconds` is
  /// finite, >= 0 and fits in int64 nanoseconds.
  void set_cooldown_s(double seconds);
};

/// One actuation attempt, newest kept in a bounded history for /reconfig.
struct ActuationRecord {
  std::int64_t t_ns = 0;
  const char* outcome = "";  ///< applied / dry-run / infeasible / no-change
  const char* trigger = "";  ///< rule name that provoked the attempt
  double alpha_before = 0.0;
  double alpha_target = 0.0;   ///< what the re-search proposed
  double alpha_applied = 0.0;  ///< after the max-step clamp
  std::size_t shed_flows = 0;
  std::size_t starved_budgets = 0;  ///< kStarved actions on the trigger
  std::size_t idle_budgets = 0;     ///< kIdle actions on the trigger
  int probes = 0;                   ///< solve() evaluations spent
  /// Offending flow ids carried by the trigger's kMisdeclaring actions
  /// (misdeclaration rule only; empty otherwise). Recorded so the ledger
  /// history answers "which flows provoked this actuation".
  std::vector<std::uint64_t> offending_flows;
};

class ReconfigurationActuator {
 public:
  struct Options {
    telemetry::EventTracer* tracer = nullptr;    ///< optional, not owned
    telemetry::MetricsRegistry* metrics = nullptr;  ///< optional, not owned
    std::size_t history = 32;  ///< actuation records kept for /reconfig
  };

  /// All referenced objects must outlive the actuator; `engine` becomes
  /// actuator-owned for mutation (see file comment). Throws
  /// std::invalid_argument on an invalid policy.
  ReconfigurationActuator(analysis::AnalysisEngine& engine,
                          admission::ConcurrentAdmissionController& controller,
                          telemetry::AlertEngine& alerts,
                          ActuationPolicy policy, Options options);
  ReconfigurationActuator(analysis::AnalysisEngine& engine,
                          admission::ConcurrentAdmissionController& controller,
                          telemetry::AlertEngine& alerts,
                          ActuationPolicy policy)
      : ReconfigurationActuator(engine, controller, alerts, policy,
                                Options{}) {}

  /// One control-loop step: read the alert states, and when an actionable
  /// rule is firing (and the cooldown has lapsed) re-search alpha and
  /// swap the live budgets. Install as a TelemetrySampler post-alert hook.
  void on_tick();

  ActuationPolicy policy() const;
  /// Throws std::invalid_argument on an invalid policy, keeping the old.
  void set_policy(const ActuationPolicy& policy);

  std::uint64_t actuations() const;        ///< ledger swaps applied
  std::uint64_t dry_runs() const;
  std::uint64_t infeasible() const;
  std::uint64_t cooldown_blocked() const;
  std::uint64_t shed_flows_total() const;
  double current_alpha() const;            ///< engine's committed alpha

  /// JSON for the /reconfig endpoint: policy, lifetime counters, and the
  /// newest actuation records.
  std::string to_json() const;

 private:
  struct Trigger {
    bool fire = false;
    bool lower = false;  ///< deadline-miss / misdeclaration: search downward
    std::string rule;
    std::size_t starved = 0;
    std::size_t idle = 0;
    std::vector<std::uint64_t> offending_flows;  ///< kMisdeclaring actions
  };

  Trigger read_trigger() const;
  void mirror(const char* reason, double value, std::int64_t t_ns);
  void push_record(const ActuationRecord& record);

  analysis::AnalysisEngine* engine_;
  admission::ConcurrentAdmissionController* controller_;
  telemetry::AlertEngine* alerts_;
  Options options_;

  mutable std::mutex mutex_;
  ActuationPolicy policy_;
  std::int64_t last_actuation_ns_ = 0;
  std::uint64_t applied_ = 0;
  std::uint64_t dry_runs_ = 0;
  std::uint64_t infeasible_ = 0;
  std::uint64_t no_change_ = 0;
  std::uint64_t cooldown_blocked_ = 0;
  std::uint64_t shed_total_ = 0;
  std::deque<ActuationRecord> history_;

  // Resolved once when a registry is wired (counters are cheap to bump
  // from the sampler thread).
  telemetry::Counter* actuations_applied_ = nullptr;
  telemetry::Counter* actuations_dry_run_ = nullptr;
  telemetry::Counter* actuations_infeasible_ = nullptr;
  telemetry::Counter* actuations_no_change_ = nullptr;
  telemetry::Counter* cooldown_blocked_total_ = nullptr;
  telemetry::Counter* shed_flows_metric_ = nullptr;
  telemetry::Gauge* alpha_gauge_ = nullptr;
};

/// The /reconfig route (docs/observability.md): answers to_json(), after a
/// POST has set any of enabled, dry_run, cooldown_s, max_step, search_lo,
/// search_hi, resolution and min_delta. A malformed value or a resulting
/// policy that validate() rejects answers 400 and keeps the old policy.
telemetry::HttpResponse reconfig_route(ReconfigurationActuator& actuator,
                                       const telemetry::HttpRequest& request);

}  // namespace ubac::reconfig
