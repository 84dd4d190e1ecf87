#pragma once

/// \file configurator.hpp
/// \brief The configuration module of Section 4/5 behind one API.
///
/// The paper distinguishes three configuration types, all invoked at
/// system startup or when service level agreements change:
///
///   1. verify  — routes and utilization given: check safety (Fig. 2);
///   2. select  — utilization given, routes not: safe route selection;
///   3. maximize — neither given: route selection maximizing utilization.
///
/// This module packages them over a single immutable `NetworkConfig`
/// artifact (topology + class + alpha + routes) that can be serialized,
/// shipped to the admission controller, and *incrementally renegotiated*:
/// new demands are added without disturbing the routes already promised to
/// existing customers (no-regret SLA modification).

#include <optional>
#include <string>
#include <vector>

#include "admission/routing_table.hpp"
#include "analysis/verification.hpp"
#include "net/server_graph.hpp"
#include "routing/max_util_search.hpp"
#include "routing/route_selection.hpp"
#include "traffic/flow.hpp"
#include "traffic/leaky_bucket.hpp"

namespace ubac::config {

/// A committed two-class network configuration: what the configuration
/// module hands to run time. Demands and routes are aligned.
struct NetworkConfig {
  double alpha = 0.0;
  traffic::LeakyBucket bucket{1.0, 1.0};
  Seconds deadline = 0.0;
  std::vector<traffic::Demand> demands;
  std::vector<net::NodePath> routes;

  /// Routes at link-server granularity for `graph`.
  std::vector<net::ServerPath> server_routes(
      const net::ServerGraph& graph) const;

  /// Routing table for the admission controller.
  admission::RoutingTable routing_table(const net::ServerGraph& graph) const;
};

/// Outcome of a configuration request.
struct ConfigResult {
  bool success = false;
  NetworkConfig config;                   ///< valid when success
  analysis::VerificationReport report;    ///< delay bounds at commit
  std::string failure_reason;             ///< human-readable, when !success
};

/// Front end over verification / route selection / maximization for the
/// two-class system of the paper's evaluation.
class Configurator {
 public:
  Configurator(const net::ServerGraph& graph, traffic::LeakyBucket bucket,
               Seconds deadline);

  /// Type 1: verify a full (routes + alpha) assignment.
  ConfigResult verify(double alpha,
                      const std::vector<traffic::Demand>& demands,
                      const std::vector<net::NodePath>& routes) const;

  /// Type 2: safe route selection at a given alpha (Section 5.2).
  ConfigResult select_routes(double alpha,
                             const std::vector<traffic::Demand>& demands,
                             const routing::HeuristicOptions& options = {}) const;

  /// Type 3: maximize alpha via safe route selection (Section 5.3).
  ConfigResult maximize(const std::vector<traffic::Demand>& demands,
                        const routing::HeuristicOptions& heuristic = {},
                        const routing::MaxUtilOptions& search = {}) const;

  /// SLA renegotiation: extend an existing configuration with new demands
  /// at the *same* alpha without re-routing existing demands. Existing
  /// routes are pinned; candidates for new demands are evaluated against
  /// the combined set. Fails (leaving `base` untouched) if any new demand
  /// cannot be routed safely.
  ConfigResult add_demands(const NetworkConfig& base,
                           const std::vector<traffic::Demand>& additions,
                           const routing::HeuristicOptions& options = {}) const;

  /// Failure handling: reroute every demand whose route traverses any of
  /// `failed_servers` (e.g. both directions of a failed duplex link) onto
  /// candidates avoiding them, pinning all unaffected routes at the same
  /// alpha. Fails when some affected demand has no safe detour.
  ConfigResult reroute_avoiding(
      const NetworkConfig& base,
      const std::vector<net::ServerId>& failed_servers,
      const routing::HeuristicOptions& options = {}) const;

  /// Remove demands by index from a configuration (customers leaving).
  /// Always succeeds; the remaining set is re-verified (it can only have
  /// become safer — asserted in debug).
  ConfigResult remove_demands(const NetworkConfig& base,
                              const std::vector<std::size_t>& indices) const;

  const net::ServerGraph& graph() const { return *graph_; }

 private:
  ConfigResult commit(double alpha, std::vector<traffic::Demand> demands,
                      std::vector<net::NodePath> routes,
                      std::string failure_context) const;

  const net::ServerGraph* graph_;
  traffic::LeakyBucket bucket_;
  Seconds deadline_;
};

/// Serialize a configuration to a line-oriented text format (alpha,
/// traffic profile, one `route <class> <n1> <n2> ...` line per demand).
std::string to_text(const NetworkConfig& config, const net::Topology& topo);

/// Parse the text format; node names are resolved against `topo`.
/// Throws std::runtime_error with a line number on malformed input.
NetworkConfig from_text(const std::string& text, const net::Topology& topo);

}  // namespace ubac::config
