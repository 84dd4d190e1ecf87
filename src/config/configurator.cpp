#include "config/configurator.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <set>
#include <sstream>
#include <stdexcept>

#include "telemetry/span.hpp"
#include "util/log.hpp"

namespace ubac::config {

std::vector<net::ServerPath> NetworkConfig::server_routes(
    const net::ServerGraph& graph) const {
  std::vector<net::ServerPath> out;
  out.reserve(routes.size());
  for (const auto& route : routes) out.push_back(graph.map_path(route));
  return out;
}

admission::RoutingTable NetworkConfig::routing_table(
    const net::ServerGraph& graph) const {
  return admission::RoutingTable(demands, server_routes(graph));
}

Configurator::Configurator(const net::ServerGraph& graph,
                           traffic::LeakyBucket bucket, Seconds deadline)
    : graph_(&graph), bucket_(bucket), deadline_(deadline) {
  if (deadline <= 0.0)
    throw std::invalid_argument("Configurator: deadline must be > 0");
}

ConfigResult Configurator::commit(double alpha,
                                  std::vector<traffic::Demand> demands,
                                  std::vector<net::NodePath> routes,
                                  std::string failure_context) const {
  UBAC_SPAN_ARG("config.commit", "config", "alpha", alpha);
  ConfigResult result;
  result.report = analysis::verify_safe_utilization(*graph_, alpha, bucket_,
                                                    deadline_, routes);
  if (!result.report.safe) {
    result.failure_reason = failure_context + ": verification reported " +
                            analysis::to_string(result.report.status);
    return result;
  }
  result.success = true;
  result.config.alpha = alpha;
  result.config.bucket = bucket_;
  result.config.deadline = deadline_;
  result.config.demands = std::move(demands);
  result.config.routes = std::move(routes);
  return result;
}

ConfigResult Configurator::verify(
    double alpha, const std::vector<traffic::Demand>& demands,
    const std::vector<net::NodePath>& routes) const {
  UBAC_SPAN_ARG("config.verify", "config", "routes", demands.size());
  if (demands.size() != routes.size())
    throw std::invalid_argument("verify: demands/routes size mismatch");
  for (std::size_t i = 0; i < demands.size(); ++i) {
    if (routes[i].size() < 2 || routes[i].front() != demands[i].src ||
        routes[i].back() != demands[i].dst)
      throw std::invalid_argument("verify: route does not match its demand");
    if (!net::is_valid_path(graph_->topology(), routes[i]))
      throw std::invalid_argument("verify: invalid route");
  }
  return commit(alpha, demands, routes, "verify");
}

ConfigResult Configurator::select_routes(
    double alpha, const std::vector<traffic::Demand>& demands,
    const routing::HeuristicOptions& options) const {
  UBAC_SPAN_ARG("config.select_routes", "config", "alpha", alpha);
  const auto selection = routing::select_routes_heuristic(
      *graph_, alpha, bucket_, deadline_, demands, options);
  if (!selection.success) {
    ConfigResult result;
    result.failure_reason =
        selection.failed_demand == routing::kNoFailedDemand
            ? "select_routes: verification failed"
            : "select_routes: no safe route for demand #" +
                  std::to_string(selection.failed_demand);
    return result;
  }
  return commit(alpha, demands, selection.routes, "select_routes");
}

ConfigResult Configurator::maximize(
    const std::vector<traffic::Demand>& demands,
    const routing::HeuristicOptions& heuristic,
    const routing::MaxUtilOptions& search) const {
  UBAC_SPAN_ARG("config.maximize", "config", "demands", demands.size());
  const auto result = routing::maximize_utilization_heuristic(
      *graph_, bucket_, deadline_, demands, heuristic, search);
  if (!result.any_feasible) {
    ConfigResult out;
    out.failure_reason = "maximize: no feasible utilization found";
    return out;
  }
  return commit(result.max_alpha, demands, result.best.routes, "maximize");
}

ConfigResult Configurator::add_demands(
    const NetworkConfig& base, const std::vector<traffic::Demand>& additions,
    const routing::HeuristicOptions& options) const {
  UBAC_SPAN_ARG("config.add_demands", "config", "additions", additions.size());
  const auto pinned = base.server_routes(*graph_);
  const auto selection = routing::select_routes_heuristic_incremental(
      *graph_, base.alpha, bucket_, deadline_, pinned, additions, options);
  if (!selection.success) {
    ConfigResult result;
    result.failure_reason =
        selection.failed_demand == routing::kNoFailedDemand
            ? "add_demands: existing configuration no longer verifies"
            : "add_demands: no safe route for new demand #" +
                  std::to_string(selection.failed_demand);
    return result;
  }
  auto demands = base.demands;
  demands.insert(demands.end(), additions.begin(), additions.end());
  auto routes = base.routes;
  routes.insert(routes.end(), selection.routes.begin(),
                selection.routes.end());
  return commit(base.alpha, std::move(demands), std::move(routes),
                "add_demands");
}

ConfigResult Configurator::reroute_avoiding(
    const NetworkConfig& base,
    const std::vector<net::ServerId>& failed_servers,
    const routing::HeuristicOptions& options) const {
  UBAC_SPAN_ARG("config.reroute_avoiding", "config", "failed_servers",
                failed_servers.size());
  const auto all_servers = base.server_routes(*graph_);
  auto hits_failure = [&](const net::ServerPath& route) {
    for (const net::ServerId bad : failed_servers)
      if (std::find(route.begin(), route.end(), bad) != route.end())
        return true;
    return false;
  };

  std::vector<net::ServerPath> pinned;
  std::vector<std::size_t> pinned_index, affected_index;
  std::vector<traffic::Demand> affected;
  for (std::size_t i = 0; i < base.demands.size(); ++i) {
    if (hits_failure(all_servers[i])) {
      affected_index.push_back(i);
      affected.push_back(base.demands[i]);
    } else {
      pinned_index.push_back(i);
      pinned.push_back(all_servers[i]);
    }
  }
  if (affected.empty()) {
    // Nothing crossed the failure; re-commit the base unchanged.
    return commit(base.alpha, base.demands, base.routes, "reroute_avoiding");
  }

  routing::HeuristicOptions detour = options;
  detour.forbidden_servers.insert(detour.forbidden_servers.end(),
                                  failed_servers.begin(),
                                  failed_servers.end());
  const auto selection = routing::select_routes_heuristic_incremental(
      *graph_, base.alpha, bucket_, deadline_, pinned, affected, detour);
  if (!selection.success) {
    ConfigResult result;
    result.failure_reason =
        selection.failed_demand == routing::kNoFailedDemand
            ? "reroute_avoiding: surviving routes no longer verify"
            : "reroute_avoiding: no safe detour for demand #" +
                  std::to_string(affected_index[selection.failed_demand]);
    return result;
  }
  auto routes = base.routes;
  for (std::size_t a = 0; a < affected_index.size(); ++a)
    routes[affected_index[a]] = selection.routes[a];
  return commit(base.alpha, base.demands, std::move(routes),
                "reroute_avoiding");
}

ConfigResult Configurator::remove_demands(
    const NetworkConfig& base, const std::vector<std::size_t>& indices) const {
  const std::set<std::size_t> drop(indices.begin(), indices.end());
  for (std::size_t index : drop)
    if (index >= base.demands.size())
      throw std::out_of_range("remove_demands: index out of range");
  std::vector<traffic::Demand> demands;
  std::vector<net::NodePath> routes;
  for (std::size_t i = 0; i < base.demands.size(); ++i) {
    if (drop.count(i)) continue;
    demands.push_back(base.demands[i]);
    routes.push_back(base.routes[i]);
  }
  ConfigResult result =
      commit(base.alpha, std::move(demands), std::move(routes),
             "remove_demands");
  // Removing routes can only lower delays, so a safe base stays safe.
  assert(result.success || base.routes.empty());
  return result;
}

std::string to_text(const NetworkConfig& config, const net::Topology& topo) {
  std::ostringstream out;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "alpha %.17g\n", config.alpha);
  out << buf;
  std::snprintf(buf, sizeof(buf), "bucket %.17g %.17g\n", config.bucket.burst,
                config.bucket.rate);
  out << buf;
  std::snprintf(buf, sizeof(buf), "deadline %.17g\n", config.deadline);
  out << buf;
  for (std::size_t i = 0; i < config.demands.size(); ++i) {
    out << "route " << config.demands[i].class_index;
    for (net::NodeId node : config.routes[i])
      out << " " << topo.node_name(node);
    out << "\n";
  }
  return out.str();
}

NetworkConfig from_text(const std::string& text, const net::Topology& topo) {
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  NetworkConfig config;
  bool saw_bucket = false;

  auto fail = [&](const std::string& msg) {
    throw std::runtime_error("config parse error at line " +
                             std::to_string(line_no) + ": " + msg);
  };

  double burst = 0.0, rate = 0.0;
  while (std::getline(in, line)) {
    ++line_no;
    std::istringstream ls(line);
    std::string kind;
    if (!(ls >> kind) || kind[0] == '#') continue;
    if (kind == "alpha") {
      if (!(ls >> config.alpha)) fail("alpha needs a value");
    } else if (kind == "bucket") {
      if (!(ls >> burst >> rate)) fail("bucket needs <burst> <rate>");
      saw_bucket = true;
    } else if (kind == "deadline") {
      if (!(ls >> config.deadline)) fail("deadline needs a value");
    } else if (kind == "route") {
      std::size_t class_index = 0;
      if (!(ls >> class_index)) fail("route needs a class index");
      net::NodePath path;
      std::string name;
      while (ls >> name) {
        const auto node = topo.find_node(name);
        if (!node) fail("unknown node '" + name + "'");
        path.push_back(*node);
      }
      if (path.size() < 2) fail("route needs at least two nodes");
      if (!net::is_valid_path(topo, path)) fail("route is not connected");
      config.demands.push_back({path.front(), path.back(), class_index});
      config.routes.push_back(std::move(path));
    } else {
      fail("unknown directive '" + kind + "'");
    }
  }
  if (!saw_bucket) fail("missing bucket line");
  config.bucket = traffic::LeakyBucket(burst, rate);
  return config;
}

}  // namespace ubac::config
