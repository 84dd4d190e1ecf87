#include "telemetry/http_endpoint.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <type_traits>

#include "telemetry/alerts.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/timeseries.hpp"
#include "util/parse_number.hpp"

namespace ubac::telemetry {

namespace {

const char* status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 431: return "Request Header Fields Too Large";
    default: return "Error";
  }
}

int from_hex(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

std::string url_decode(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '+') {
      out += ' ';
    } else if (s[i] == '%' && i + 2 < s.size() && from_hex(s[i + 1]) >= 0 &&
               from_hex(s[i + 2]) >= 0) {
      out += static_cast<char>(from_hex(s[i + 1]) * 16 + from_hex(s[i + 2]));
      i += 2;
    } else {
      out += s[i];
    }
  }
  return out;
}

/// Fold "a=1&b=x%20y" into the request's query map (later keys win).
void parse_form_pairs(const std::string& qs, HttpRequest& request) {
  std::size_t pos = 0;
  while (pos <= qs.size()) {
    auto amp = qs.find('&', pos);
    if (amp == std::string::npos) amp = qs.size();
    const std::string pair = qs.substr(pos, amp - pos);
    if (!pair.empty()) {
      const auto eq = pair.find('=');
      if (eq == std::string::npos)
        request.query[url_decode(pair)] = "";
      else
        request.query[url_decode(pair.substr(0, eq))] =
            url_decode(pair.substr(eq + 1));
    }
    pos = amp + 1;
  }
}

/// Split "GET /series?name=x&window=3 HTTP/1.1" into an HttpRequest.
bool parse_request_line(const std::string& line, HttpRequest& request) {
  const auto sp1 = line.find(' ');
  if (sp1 == std::string::npos) return false;
  const auto sp2 = line.find(' ', sp1 + 1);
  if (sp2 == std::string::npos) return false;
  request.method = line.substr(0, sp1);
  std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  const auto qmark = target.find('?');
  if (qmark != std::string::npos) {
    parse_form_pairs(target.substr(qmark + 1), request);
    target.resize(qmark);
  }
  request.path = url_decode(target);
  return !request.method.empty() && !request.path.empty();
}

/// Content-Length from the header lines after the request line: 0 when
/// absent, nullopt when it is not a plain decimal count or when two of
/// them disagree.
std::optional<std::size_t> parse_content_length(const std::string& head) {
  std::optional<std::size_t> length;
  std::size_t pos = head.find("\r\n");
  while (pos != std::string::npos && pos + 2 < head.size()) {
    pos += 2;
    const std::size_t eol = std::min(head.find("\r\n", pos), head.size());
    const std::string_view line(head.data() + pos, eol - pos);
    const auto colon = line.find(':');
    std::string key(line.substr(0, colon));
    for (char& c : key) c = static_cast<char>(std::tolower(c));
    if (colon != std::string_view::npos && key == "content-length") {
      std::string_view value = line.substr(colon + 1);
      while (!value.empty() && (value.front() == ' ' || value.front() == '\t'))
        value.remove_prefix(1);
      while (!value.empty() && (value.back() == ' ' || value.back() == '\t'))
        value.remove_suffix(1);
      const auto n = util::parse_number<std::size_t>(value);
      if (!n || (length && *length != *n)) return std::nullopt;
      length = n;
    }
    pos = eol;
  }
  return length.value_or(0);
}

void send_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
#ifdef MSG_NOSIGNAL
                             MSG_NOSIGNAL
#else
                             0
#endif
    );
    if (n <= 0) return;  // peer went away; nothing useful to do
    sent += static_cast<std::size_t>(n);
  }
}

void send_response(int fd, const HttpResponse& response) {
  char header[256];
  std::snprintf(header, sizeof(header),
                "HTTP/1.1 %d %s\r\n"
                "Content-Type: %s\r\n"
                "Content-Length: %zu\r\n"
                "Connection: close\r\n"
                "\r\n",
                response.status, status_text(response.status),
                response.content_type.c_str(), response.body.size());
  send_all(fd, header + response.body);
}

}  // namespace

HttpEndpoint::HttpEndpoint() : HttpEndpoint(Options()) {}

HttpEndpoint::HttpEndpoint(Options options) : options_(std::move(options)) {}

HttpEndpoint::~HttpEndpoint() { stop(); }

void HttpEndpoint::handle(std::string path, Handler handler) {
  if (running())
    throw std::logic_error("HttpEndpoint: add routes before start()");
  routes_.emplace_back(std::move(path), std::move(handler));
}

void HttpEndpoint::start() {
  if (running()) return;
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0)
    throw std::runtime_error("HttpEndpoint: socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("HttpEndpoint: bad bind address " +
                             options_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("HttpEndpoint: cannot bind " +
                             options_.bind_address + ":" +
                             std::to_string(options_.port) + " (" +
                             std::strerror(err) + ")");
  }
  if (::listen(listen_fd_, options_.backlog) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("HttpEndpoint: listen() failed");
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  stopping_.store(false, std::memory_order_release);
  const std::size_t workers = options_.workers == 0 ? 1 : options_.workers;
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

void HttpEndpoint::stop() {
  if (!running()) return;
  stopping_.store(true, std::memory_order_release);
  // Unblock every accept(): shutdown makes pending and future accepts
  // fail immediately; close releases the port.
  ::shutdown(listen_fd_, SHUT_RDWR);
  for (auto& worker : workers_) worker.join();
  workers_.clear();
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void HttpEndpoint::worker_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load(std::memory_order_acquire)) return;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;  // listener is gone
    }
    serve_connection(fd);
    ::close(fd);
  }
}

void HttpEndpoint::serve_connection(int fd) {
  // Keep a slow client from parking a worker forever.
  timeval timeout{};
  timeout.tv_sec = 5;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));

  const auto reply = [&](const HttpResponse& response) {
    send_response(fd, response);
    served_.fetch_add(1, std::memory_order_relaxed);
  };
  std::string data;
  char buf[2048];
  while (data.find("\r\n\r\n") == std::string::npos) {
    if (data.size() > options_.max_request_bytes)
      return reply(HttpResponse::text("request too large\n", 431));
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) {  // disconnect or timeout before a full header
      // A client that stops (or half-closes) mid-request gets a 400; one
      // that never sent a byte just goes away.
      if (!data.empty())
        reply(HttpResponse::text("incomplete request\n", 400));
      return;
    }
    data.append(buf, static_cast<std::size_t>(n));
  }

  HttpRequest request;
  const std::size_t header_end = data.find("\r\n\r\n") + 4;
  const std::optional<std::size_t> length =
      parse_content_length(data.substr(0, header_end));
  HttpResponse response;
  if (!parse_request_line(data.substr(0, data.find("\r\n")), request)) {
    response = HttpResponse::text("bad request\n", 400);
  } else if (!length) {
    response = HttpResponse::text("bad Content-Length\n", 400);
  } else if (request.method != "GET" && request.method != "HEAD" &&
             request.method != "POST") {
    response = HttpResponse::text("only GET/HEAD/POST are supported\n", 405);
  } else {
    if (request.method == "POST") {
      if (*length > options_.max_request_bytes)
        return reply(HttpResponse::text("request too large\n", 431));
      while (data.size() - header_end < *length) {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0)  // disconnect or timeout mid-body
          return reply(HttpResponse::text("incomplete body\n", 400));
        data.append(buf, static_cast<std::size_t>(n));
      }
      request.body = data.substr(header_end, *length);
      // A form-urlencoded body is just a query string by another name;
      // fold it into the same map so handlers serve both verbs.
      parse_form_pairs(request.body, request);
    }
    response = HttpResponse::text("not found\n", 404);
    for (const auto& [path, handler] : routes_)
      if (path == request.path) {
        try {
          response = handler(request);
        } catch (const std::exception& e) {
          response = HttpResponse::text(
              std::string("handler error: ") + e.what() + "\n", 500);
        }
        break;
      }
    if (request.method == "HEAD") response.body.clear();
  }
  reply(response);
}

void install_standard_routes(HttpEndpoint& endpoint,
                             MetricsRegistry& registry,
                             TelemetrySampler* sampler, AlertEngine* alerts) {
  endpoint.handle("/metrics", [&registry](const HttpRequest&) {
    HttpResponse r = HttpResponse::text(to_prometheus(registry.snapshot()));
    // The version suffix tells scrapers this is exposition format 0.0.4.
    r.content_type = "text/plain; version=0.0.4; charset=utf-8";
    return r;
  });

  const std::int64_t start_ns = EventTracer::now_ns();
  endpoint.handle("/healthz", [sampler, start_ns](const HttpRequest&) {
    char buf[192];
    std::snprintf(
        buf, sizeof(buf),
        "{\"status\":\"ok\",\"uptime_s\":%.3f,\"sampler_ticks\":%llu,"
        "\"series\":%zu}\n",
        static_cast<double>(EventTracer::now_ns() - start_ns) / 1e9,
        static_cast<unsigned long long>(sampler ? sampler->ticks() : 0),
        sampler ? sampler->store().series_count() : std::size_t{0});
    return HttpResponse::json(buf);
  });

  endpoint.handle("/series", [sampler](const HttpRequest& request) {
    if (sampler == nullptr)
      return HttpResponse::text("no sampler running\n", 404);
    const std::string name = request.query_get("name");
    if (name.empty()) {
      // No name: index of what can be asked for — every registered
      // series name with its label-set count and ring geometry.
      const TimeSeriesStore& store = sampler->store();
      char buf[160];
      std::snprintf(buf, sizeof(buf),
                    "{\"window_capacity\":%zu,\"ticks_per_window\":%zu,"
                    "\"series\":[",
                    store.window_capacity(), store.ticks_per_window());
      std::string out = buf;
      const auto idx = store.index();
      for (std::size_t i = 0; i < idx.size(); ++i) {
        if (i) out += ",";
        out += "\n {\"name\":\"" + json_escape(idx[i].name) + "\"";
        std::snprintf(buf, sizeof(buf),
                      ",\"series\":%zu,\"windows_started\":%llu}",
                      idx[i].series,
                      static_cast<unsigned long long>(idx[i].windows_started));
        out += buf;
      }
      out += "\n]}\n";
      return HttpResponse::json(std::move(out));
    }
    std::size_t window = 0;
    const std::string window_arg = request.query_get("window");
    if (!window_arg.empty()) {
      const auto parsed = util::parse_number<std::size_t>(window_arg);
      if (!parsed) return HttpResponse::text("bad window\n", 400);
      window = *parsed;
    }
    return HttpResponse::json(sampler->store().to_json(name, window) + "\n");
  });

  endpoint.handle("/alerts", [alerts](const HttpRequest&) {
    if (alerts == nullptr)
      return HttpResponse::text("no alert engine running\n", 404);
    return HttpResponse::json(alerts->to_json() + "\n");
  });

  endpoint.handle("/alerts/config", [alerts](const HttpRequest& request) {
    if (alerts == nullptr)
      return HttpResponse::text("no alert engine running\n", 404);
    if (request.method == "POST") {
      const std::string rule = request.query_get("rule");
      if (rule.empty())
        return HttpResponse::text("missing rule=<name>\n", 400);
      AlertRuleConfig config;
      bool any = false;
      // A finite threshold, tick counts without a sign or overflow.
      const auto parse = [&](const char* key, auto& out) {
        const std::string arg = request.query_get(key);
        if (arg.empty()) return true;
        out = util::parse_number<
            typename std::decay_t<decltype(out)>::value_type>(arg);
        any = any || out.has_value();
        return out.has_value();
      };
      if (!parse("threshold", config.threshold) ||
          !parse("for_ticks", config.for_ticks) ||
          !parse("resolve_ticks", config.resolve_ticks))
        return HttpResponse::text("bad parameter\n", 400);
      if (!any)
        return HttpResponse::text(
            "nothing to set (threshold/for_ticks/resolve_ticks)\n", 400);
      if (!alerts->configure_rule(rule, config))
        return HttpResponse::text("unknown rule " + rule + "\n", 404);
    }
    return HttpResponse::json(alerts->config_to_json() + "\n");
  });
}

}  // namespace ubac::telemetry
