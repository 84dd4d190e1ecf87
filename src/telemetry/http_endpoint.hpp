#pragma once

/// \file http_endpoint.hpp
/// \brief Embedded dependency-free HTTP/1.1 scrape endpoint.
///
/// A deliberately small blocking server — a listening socket plus a few
/// worker threads, each doing accept / read / dispatch / write / close —
/// sized for its actual load: one Prometheus scraper, a dashboard, and a
/// curl-wielding operator. Request handling never touches the admission
/// hot path; handlers read mutex-guarded snapshots (registry, rollup
/// store, alert engine) that the sampler keeps fresh.
///
/// Routes are registered per exact path; the query string is parsed into
/// a key=value map. GET/HEAD/POST (405 otherwise), `Connection: close` on
/// every response. POST bodies are read up to Content-Length; a
/// form-urlencoded body is folded into the same query map handlers
/// already read, so one handler serves both verbs. A Content-Length that
/// is not one plain decimal count (or two that disagree), and a request
/// that ends before its header or body does, get 400.
/// install_standard_routes() wires the standard endpoints:
///
///   /metrics        Prometheus text 0.0.4 of the registry (gauges fresh
///                   as of the last sampler tick)
///   /healthz        JSON liveness: sampler tick count, series count,
///                   uptime
///   /series         JSON rollups: ?name=<metric>[&window=<n>] (no name
///                   lists the available series names)
///   /alerts         AlertEngine status JSON (per-rule state, live
///                   threshold, actionable (server, class) payloads)
///   /alerts/config  GET: live rule thresholds/hysteresis; POST
///                   rule=<name>&threshold=…[&for_ticks=…]
///                   [&resolve_ticks=…] retunes a rule at runtime
///
/// Binding is loopback by default: this is an operational surface, not a
/// public one.

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/metrics.hpp"

namespace ubac::telemetry {

class AlertEngine;
class TelemetrySampler;

struct HttpRequest {
  std::string method;
  std::string path;  ///< without the query string
  std::map<std::string, std::string> query;
  std::string body;  ///< raw POST body (empty for GET/HEAD)

  std::string query_get(const std::string& key,
                        const std::string& def = "") const {
    const auto it = query.find(key);
    return it == query.end() ? def : it->second;
  }
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;

  static HttpResponse text(std::string body, int status = 200) {
    HttpResponse r;
    r.status = status;
    r.body = std::move(body);
    return r;
  }
  static HttpResponse json(std::string body, int status = 200) {
    HttpResponse r;
    r.status = status;
    r.content_type = "application/json";
    r.body = std::move(body);
    return r;
  }
};

class HttpEndpoint {
 public:
  struct Options {
    std::string bind_address = "127.0.0.1";
    std::uint16_t port = 0;  ///< 0 = ephemeral; see port() after start()
    std::size_t workers = 2;
    int backlog = 16;
    /// Per-connection receive cap; oversized requests get 431.
    std::size_t max_request_bytes = 16 * 1024;
  };

  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  HttpEndpoint();
  explicit HttpEndpoint(Options options);
  ~HttpEndpoint();  ///< stops if still running

  HttpEndpoint(const HttpEndpoint&) = delete;
  HttpEndpoint& operator=(const HttpEndpoint&) = delete;

  /// Register `handler` for exact path `path`. Add routes before start().
  void handle(std::string path, Handler handler);

  /// Bind + listen + spawn the workers. Throws std::runtime_error when
  /// the socket cannot be bound.
  void start();
  /// Shut the listener down and join the workers. Idempotent.
  void stop();
  bool running() const { return !workers_.empty(); }

  /// The bound port (resolves ephemeral port 0); valid after start().
  std::uint16_t port() const { return port_; }

  /// Requests served (any status), total.
  std::uint64_t requests_served() const {
    return served_.load(std::memory_order_relaxed);
  }

 private:
  void worker_loop();
  void serve_connection(int fd);

  Options options_;
  std::vector<std::pair<std::string, Handler>> routes_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::vector<std::thread> workers_;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> served_{0};
};

/// Wire the standard telemetry routes (see file comment). `sampler` and
/// `alerts` may be null — /series and /alerts then report 404 with an
/// explanatory body. All referenced objects must outlive the endpoint.
void install_standard_routes(HttpEndpoint& endpoint,
                             MetricsRegistry& registry,
                             TelemetrySampler* sampler, AlertEngine* alerts);

}  // namespace ubac::telemetry
