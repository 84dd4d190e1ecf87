// Embedded HTTP scrape endpoint: request parsing and status codes over a
// real loopback socket, the standard telemetry routes, and — the case the
// endpoint exists for — concurrent /metrics scrapes while eight threads
// churn the admission controller (run under TSan in CI).
#include "telemetry/http_endpoint.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "admission/controller.hpp"
#include "admission/telemetry.hpp"
#include "net/shortest_path.hpp"
#include "net/topology_factory.hpp"
#include "telemetry/alerts.hpp"
#include "telemetry/conformance.hpp"
#include "telemetry/envelope.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/timeseries.hpp"
#include "traffic/workload.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace ubac::telemetry {
namespace {

/// Blocking one-shot HTTP client: connect, send `request`, read to EOF
/// (the endpoint always closes the connection). Empty string on failure.
/// `half_close` shuts the sending side once the request is out, so the
/// endpoint sees the end of a truncated request at once.
std::string http_roundtrip(std::uint16_t port, const std::string& request,
                           bool half_close = false) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  if (half_close) ::shutdown(fd, SHUT_WR);
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string get(std::uint16_t port, const std::string& target) {
  return http_roundtrip(port, "GET " + target +
                                  " HTTP/1.1\r\nHost: localhost\r\n"
                                  "Connection: close\r\n\r\n");
}

int status_of(const std::string& response) {
  // "HTTP/1.1 200 OK\r\n..."
  if (response.size() < 12) return -1;
  return std::atoi(response.c_str() + 9);
}

TEST(HttpEndpoint, ServesRoutesAndStatusCodes) {
  HttpEndpoint::Options options;
  options.port = 0;  // ephemeral
  HttpEndpoint endpoint(options);
  endpoint.handle("/hello", [](const HttpRequest& req) {
    return HttpResponse::text("hi " + req.query_get("name", "world"));
  });
  endpoint.start();
  ASSERT_NE(endpoint.port(), 0);

  std::string response = get(endpoint.port(), "/hello");
  EXPECT_EQ(status_of(response), 200);
  EXPECT_NE(response.find("\r\n\r\nhi world"), std::string::npos);
  EXPECT_NE(response.find("Connection: close"), std::string::npos);

  // Query parsing feeds the handler.
  response = get(endpoint.port(), "/hello?name=ubac");
  EXPECT_NE(response.find("hi ubac"), std::string::npos);

  EXPECT_EQ(status_of(get(endpoint.port(), "/nope")), 404);
  // POST is a first-class verb: a form-urlencoded body lands in the same
  // query map a GET query string does.
  response = http_roundtrip(endpoint.port(),
                            "POST /hello HTTP/1.1\r\nHost: x\r\n"
                            "Content-Type: application/x-www-form-urlencoded"
                            "\r\nContent-Length: 9\r\n\r\nname=post");
  EXPECT_EQ(status_of(response), 200);
  EXPECT_NE(response.find("hi post"), std::string::npos);
  EXPECT_EQ(status_of(http_roundtrip(
                endpoint.port(), "PUT /hello HTTP/1.1\r\nHost: x\r\n\r\n")),
            405);
  EXPECT_EQ(status_of(http_roundtrip(endpoint.port(), "garbage\r\n\r\n")),
            400);
  // Oversized request lines bounce with 431 instead of buffering forever.
  EXPECT_EQ(status_of(http_roundtrip(
                endpoint.port(),
                "GET /" + std::string(32 * 1024, 'a') + " HTTP/1.1\r\n\r\n")),
            431);

  EXPECT_GE(endpoint.requests_served(), 6u);
  endpoint.stop();
  EXPECT_FALSE(endpoint.running());
  // stop() is idempotent and final.
  endpoint.stop();
  EXPECT_TRUE(get(endpoint.port(), "/hello").empty());
}

TEST(HttpEndpoint, StandardRoutesServeTelemetry) {
  MetricsRegistry registry;
  registry.gauge("ubac_test_gauge", "a gauge").set(4.5);
  registry.counter("ubac_test_total", "a counter").add(7);
  TelemetrySampler::Options sampler_options;
  sampler_options.ticks_per_window = 1;
  TelemetrySampler sampler(registry, sampler_options);
  AlertEngine alerts;
  sampler.set_alert_engine(&alerts);
  sampler.tick_now();

  HttpEndpoint endpoint;
  install_standard_routes(endpoint, registry, &sampler, &alerts);
  endpoint.start();

  const std::string metrics = get(endpoint.port(), "/metrics");
  EXPECT_EQ(status_of(metrics), 200);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.find("ubac_test_gauge 4.5"), std::string::npos);
  EXPECT_NE(metrics.find("ubac_test_total 7"), std::string::npos);

  const std::string health = get(endpoint.port(), "/healthz");
  EXPECT_EQ(status_of(health), 200);
  EXPECT_NE(health.find("\"sampler_ticks\":1"), std::string::npos);

  // /series without a name is the index: every registered series name
  // with its label-set count plus the ring geometry.
  const std::string names = get(endpoint.port(), "/series");
  EXPECT_EQ(status_of(names), 200);
  EXPECT_NE(names.find("ubac_test_gauge"), std::string::npos);
  EXPECT_NE(names.find("ubac_test_total"), std::string::npos);
  EXPECT_NE(names.find("\"window_capacity\":"), std::string::npos);
  EXPECT_NE(names.find("\"ticks_per_window\":1"), std::string::npos);
  EXPECT_NE(names.find("\"windows_started\":1"), std::string::npos);
  EXPECT_NE(names.find("\"series\":1"), std::string::npos);
  const std::string series =
      get(endpoint.port(), "/series?name=ubac_test_gauge");
  EXPECT_NE(series.find("\"last\":4.5"), std::string::npos);
  EXPECT_EQ(status_of(get(endpoint.port(), "/series?name=ubac_test_gauge"
                                           "&window=bogus")),
            400);

  const std::string alerts_body = get(endpoint.port(), "/alerts");
  EXPECT_EQ(status_of(alerts_body), 200);
  EXPECT_NE(alerts_body.find("\"alerts\":["), std::string::npos);

  endpoint.stop();
}

/// Standard routes over a registry with one gauge, a sampler that has
/// ticked once and an alert engine with one quiet rule, "quiet".
struct StandardRoutes {
  MetricsRegistry registry;
  std::unique_ptr<TelemetrySampler> sampler;
  AlertEngine alerts;
  HttpEndpoint endpoint;

  StandardRoutes() {
    registry.gauge("ubac_test_gauge", "a gauge").set(4.5);
    TelemetrySampler::Options options;
    options.ticks_per_window = 1;
    sampler = std::make_unique<TelemetrySampler>(registry, options);
    AlertRule rule;
    rule.name = "quiet";
    rule.threshold = 0.5;
    rule.check = [](const MetricsSnapshot&, const TimeSeriesStore&,
                    double) -> std::optional<AlertObservation> {
      return std::nullopt;
    };
    alerts.add_rule(std::move(rule));
    sampler->set_alert_engine(&alerts);
    sampler->tick_now();
    install_standard_routes(endpoint, registry, sampler.get(), &alerts);
    endpoint.start();
  }

  std::string post(const std::string& target, const std::string& body,
                   const std::string& headers = "") {
    return http_roundtrip(endpoint.port(),
                          "POST " + target + " HTTP/1.1\r\nHost: x\r\n" +
                              headers + "Content-Length: " +
                              std::to_string(body.size()) + "\r\n\r\n" +
                              body);
  }
};

/// True when `body` holds a bare non-finite number (what printf's %g
/// prints for one), which no JSON parser accepts. A name echoed inside a
/// string does not count.
bool has_bare_non_finite(const std::string& body) {
  for (std::size_t i = 0; i < body.size(); ++i) {
    if (body[i] != ':' && body[i] != ',' && body[i] != '[') continue;
    std::size_t j = i + 1;
    if (j < body.size() && body[j] == '-') ++j;
    std::string word = body.substr(j, 3);
    for (char& c : word) c = static_cast<char>(std::tolower(c));
    if (word == "nan" || word == "inf") return true;
  }
  return false;
}

TEST(HttpEndpoint, RejectsNonFiniteWrappingAndMalformedParameters) {
  StandardRoutes routes;
  const auto threshold_is = [&](const std::string& value) {
    const std::string config = get(routes.endpoint.port(), "/alerts/config");
    return config.find("\"threshold\":" + value + ",") != std::string::npos;
  };
  for (const char* bad : {"nan", "-nan", "inf", "-inf", "1e999", "0.5x",
                          " 0.5"}) {
    SCOPED_TRACE(bad);
    EXPECT_EQ(status_of(routes.post("/alerts/config",
                                    std::string("rule=quiet&threshold=") + bad)),
              400);
  }
  for (const char* bad : {"-1", "+3", "18446744073709551616", "3.0", ""}) {
    SCOPED_TRACE(bad);
    const std::string response =
        routes.post("/alerts/config", std::string("rule=quiet&for_ticks=") +
                                          bad + "&resolve_ticks=" + bad);
    // An empty value means "not given", and then nothing is set.
    EXPECT_EQ(status_of(response), 400);
  }
  EXPECT_TRUE(threshold_is("0.5"));
  const std::string config = get(routes.endpoint.port(), "/alerts/config");
  EXPECT_FALSE(has_bare_non_finite(config));
  EXPECT_NE(config.find("\"for_ticks\":3,"), std::string::npos);
  EXPECT_EQ(status_of(routes.post("/alerts/config",
                                  "rule=quiet&threshold=0.75&for_ticks=2")),
            200);
  EXPECT_TRUE(threshold_is("0.75"));

  for (const char* bad : {"-1", "18446744073709551616", "1e3", "+2"}) {
    SCOPED_TRACE(bad);
    EXPECT_EQ(status_of(get(routes.endpoint.port(),
                            std::string("/series?name=ubac_test_gauge&window=") +
                                bad)),
              400);
  }
  EXPECT_EQ(status_of(get(routes.endpoint.port(),
                          "/series?name=ubac_test_gauge&window=2")),
            200);

  // Content-Length must be one plain decimal count.
  const std::string body = "rule=quiet&threshold=0.25";
  const auto with_length = [&](const std::string& lines) {
    return http_roundtrip(routes.endpoint.port(),
                          "POST /alerts/config HTTP/1.1\r\nHost: x\r\n" +
                              lines + "\r\n" + body,
                          true);
  };
  const std::string n = std::to_string(body.size());
  for (const std::string& bad : std::vector<std::string>{
           "Content-Length: " + n + "junk\r\n", "Content-Length: -5\r\n",
        "Content-Length: \r\n", "Content-Length: +" + n + "\r\n",
        "Content-Length: 99999999999999999999999\r\n",
        // Either count alone would set a threshold (0.25 or 0.2).
        "Content-Length: " + n + "\r\ncontent-length: " +
            std::to_string(body.size() - 1) + "\r\n"}) {
    SCOPED_TRACE(bad);
    EXPECT_EQ(status_of(with_length(bad)), 400);
  }
  // The same count twice is one count; spaces around it are allowed.
  EXPECT_EQ(status_of(with_length("Content-Length: " + n +
                                  "\r\nCONTENT-LENGTH:\t" + n + " \r\n")),
            200);
  EXPECT_TRUE(threshold_is("0.25"));
  // A body cut short by the client is a 400, not a silent close.
  EXPECT_EQ(status_of(with_length("Content-Length: 40\r\n")), 400);
  EXPECT_EQ(status_of(http_roundtrip(routes.endpoint.port(),
                                     "GET /healthz HTTP/1.1\r\n", true)),
            400);
  EXPECT_TRUE(threshold_is("0.25"));
}

/// A seeded mutation of `request`: bytes replaced, deleted or duplicated,
/// tokens that once slipped through inserted, or the request cut short.
std::string mutate(std::string request, util::Xoshiro256& rng) {
  static const std::vector<std::string> kTokens = {
      "nan", "inf", "-inf", "-1", "1e999", "18446744073709551616", "-",
      "%00", "%", "&", "=", "&&==", "\r\n", "\r\n\r\n", " ", ":",
      "Content-Length: 5\r\n", "Content-Length: -5\r\n",
      "Content-Length: 12junk\r\n", "threshold=", "for_ticks=",
      "resolve_ticks=", "window=", "rule=quiet", "?", "/", "HTTP/1.1"};
  static const std::string kBytes = "0123456789.-+eE%&=?/ :\r\nainfNIX\t";
  const int edits = 1 + static_cast<int>(rng.uniform_index(3));
  for (int e = 0; e < edits && !request.empty(); ++e) {
    const std::size_t at = rng.uniform_index(request.size());
    switch (rng.uniform_index(5)) {
      case 0:
        request[at] = kBytes[rng.uniform_index(kBytes.size())];
        break;
      case 1:
        request.insert(at, kTokens[rng.uniform_index(kTokens.size())]);
        break;
      case 2:
        request.erase(at, 1 + rng.uniform_index(8));
        break;
      case 3:
        request.insert(at, request.substr(at, 1 + rng.uniform_index(12)));
        break;
      default:
        request.resize(at);
        break;
    }
  }
  return request;
}

TEST(HttpEndpoint, MutatedRequestsGetAnAllowedStatusAndFiniteJson) {
  StandardRoutes routes;
  const std::string form = "Content-Type: application/x-www-form-urlencoded";
  const auto post = [&](const std::string& target, const std::string& body) {
    return "POST " + target + " HTTP/1.1\r\nHost: x\r\n" + form +
           "\r\nContent-Length: " + std::to_string(body.size()) +
           "\r\n\r\n" + body;
  };
  const std::vector<std::string> seeds = {
      post("/alerts/config",
           "rule=quiet&threshold=0.5&for_ticks=2&resolve_ticks=3"),
      post("/series", "name=ubac_test_gauge&window=2"),
      "GET /series?name=ubac_test_gauge&window=1 HTTP/1.1\r\nHost: x\r\n\r\n",
      "GET /alerts/config?rule=quiet&threshold=0.5 HTTP/1.1\r\nHost: x\r\n"
      "\r\n"};
  util::Xoshiro256 rng(20);
  std::size_t sent = 0;
  for (int i = 0; i < 400; ++i) {
    const std::string request =
        mutate(seeds[rng.uniform_index(seeds.size())], rng);
    if (request.empty()) continue;
    const std::string response =
        http_roundtrip(routes.endpoint.port(), request, true);
    ++sent;
    const int status = status_of(response);
    SCOPED_TRACE(::testing::Message() << "case " << i << ": " << request);
    EXPECT_TRUE(status == 200 || status == 400 || status == 404 ||
                status == 405 || status == 431)
        << response;
    if (status == 200) {
      EXPECT_FALSE(has_bare_non_finite(response)) << response;
    }
  }
  // Still serving, with every request answered and no rule set to a
  // non-finite threshold.
  const std::string config = get(routes.endpoint.port(), "/alerts/config");
  EXPECT_EQ(status_of(config), 200);
  EXPECT_FALSE(has_bare_non_finite(config));
  EXPECT_EQ(status_of(get(routes.endpoint.port(), "/healthz")), 200);
  EXPECT_EQ(routes.endpoint.requests_served(), sent + 2);
}

TEST(HttpEndpoint, ConformanceRoutesServeMonitorState) {
  ArrivalRecorder recorder;
  ConformanceMonitor monitor(recorder);
  monitor.set_class_envelope(0, traffic::LeakyBucket(640.0, units::kbps(32)));

  // One conformant flow, one offender at ~3x the declared envelope.
  recorder.on_admit(7, 0);
  recorder.on_admit(9, 0);
  const std::int64_t t0 = 1'000'000'000;
  recorder.record(7, 640.0, t0);
  recorder.record(9, 3.0 * (640.0 + 32'000.0), t0);
  monitor.check(t0 + 1);

  HttpEndpoint endpoint;
  install_conformance_routes(endpoint, monitor);
  endpoint.start();

  const std::string summary = get(endpoint.port(), "/conformance");
  EXPECT_EQ(status_of(summary), 200);
  EXPECT_NE(summary.find("\"checks\":1"), std::string::npos);
  EXPECT_NE(summary.find("\"violating\":1"), std::string::npos);

  // Worst-first ordering: the offender leads even with top=1.
  const std::string worst = get(endpoint.port(), "/conformance/flows?top=1");
  EXPECT_EQ(status_of(worst), 200);
  EXPECT_NE(worst.find("\"flow\":9"), std::string::npos);
  EXPECT_EQ(worst.find("\"flow\":7"), std::string::npos);
  const std::string all = get(endpoint.port(), "/conformance/flows");
  EXPECT_NE(all.find("\"flow\":7"), std::string::npos);
  EXPECT_NE(all.find("\"flow\":9"), std::string::npos);

  // top= is one whole non-negative integer.
  for (const char* bad : {"-1", "12junk", "abc", "+1", "%201", "1.0",
                          "18446744073709551616"}) {
    SCOPED_TRACE(bad);
    EXPECT_EQ(status_of(get(endpoint.port(),
                            std::string("/conformance/flows?top=") + bad)),
              400);
  }
  EXPECT_EQ(status_of(get(endpoint.port(), "/conformance/flows?top=2")), 200);
  endpoint.stop();
}

// The acceptance scenario: scrapes must stay consistent while admission
// churns at full concurrency. 8 worker threads admit/release against the
// controller; 2 scraper threads hammer GET /metrics and /healthz the
// whole time. TSan (UBAC_SANITIZE=thread; CI runs this suite under it)
// checks the ordering; the assertions check nothing tears.
TEST(HttpEndpointConcurrent, MetricsScrapesDuringAdmissionChurn) {
  const auto topo = net::line(4);
  const net::ServerGraph graph(topo, 6u);
  const auto classes = traffic::ClassSet::two_class(
      traffic::LeakyBucket(640.0, units::kbps(32)), units::milliseconds(100),
      0.32);
  const auto demands = traffic::all_ordered_pairs(topo);
  std::vector<net::ServerPath> routes;
  for (const auto& d : demands)
    routes.push_back(
        graph.map_path(net::shortest_path(topo, d.src, d.dst).value()));
  admission::AdmissionController ctl(
      graph, classes, admission::RoutingTable(demands, routes));
  MetricsRegistry registry;
  admission::ControllerTelemetry ctl_telemetry(registry, "churn");
  ctl.attach_telemetry(&ctl_telemetry);

  TelemetrySampler::Options sampler_options;
  sampler_options.tick = std::chrono::milliseconds(2);
  TelemetrySampler sampler(registry, sampler_options);
  sampler.add_tick_hook(
      admission::utilization_gauge_hook(registry, "churn", ctl));
  HttpEndpoint endpoint;
  install_standard_routes(endpoint, registry, &sampler, nullptr);
  sampler.start();
  endpoint.start();
  const std::uint16_t port = endpoint.port();

  constexpr int kChurnThreads = 8;
  constexpr int kOpsPerThread = 400;
  std::atomic<bool> scraping{true};
  std::atomic<std::uint64_t> good_scrapes{0};

  std::vector<std::thread> scrapers;
  for (int s = 0; s < 2; ++s)
    scrapers.emplace_back([&, s] {
      while (scraping.load(std::memory_order_relaxed)) {
        const std::string response =
            get(port, s == 0 ? "/metrics" : "/healthz");
        if (status_of(response) == 200)
          good_scrapes.fetch_add(1, std::memory_order_relaxed);
      }
    });

  std::vector<std::thread> churners;
  for (int t = 0; t < kChurnThreads; ++t)
    churners.emplace_back([&, t] {
      std::vector<traffic::FlowId> held;
      for (int i = 0; i < kOpsPerThread; ++i) {
        const auto& d = demands[(t + i) % demands.size()];
        const auto decision = ctl.request(d.src, d.dst, d.class_index);
        if (decision.admitted()) held.push_back(decision.flow_id);
        if (held.size() > 8 || (!held.empty() && i % 3 == 0)) {
          ctl.release(held.back());
          held.pop_back();
        }
      }
      for (const auto id : held) ctl.release(id);
    });

  for (auto& t : churners) t.join();
  // Keep scraping through at least one more sampler tick, then wind down.
  const std::uint64_t ticks = sampler.ticks();
  while (sampler.ticks() == ticks) std::this_thread::yield();
  scraping.store(false, std::memory_order_relaxed);
  for (auto& t : scrapers) t.join();
  endpoint.stop();
  sampler.stop();

  EXPECT_GT(good_scrapes.load(), 0u);
  // Quiescent end state: every flow released, nothing reserved.
  EXPECT_EQ(ctl.active_flows(), 0u);
  const std::string last = to_prometheus(registry.snapshot());
  EXPECT_NE(last.find("ubac_admission_decisions_total"), std::string::npos);
}

}  // namespace
}  // namespace ubac::telemetry
