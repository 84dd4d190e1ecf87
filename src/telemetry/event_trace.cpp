#include "telemetry/event_trace.hpp"

#include <cmath>
#include <cstdio>
#include <functional>
#include <stdexcept>
#include <thread>

namespace ubac::telemetry {

namespace {

/// Per-thread xorshift64* state for sampling draws.
std::uint64_t next_draw() noexcept {
  thread_local std::uint64_t state =
      0x9E3779B97F4A7C15ull ^
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  state ^= state >> 12;
  state ^= state << 25;
  state ^= state >> 27;
  return state * 0x2545F4914F6CDD1Dull;
}

double next_unit() noexcept {
  return static_cast<double>(next_draw() >> 11) * 0x1p-53;
}

/// Per-thread geometric-skip state (see should_sample). Keyed to the
/// tracer so several tracers on one thread stay independently correct;
/// only the most recent one keeps its skip run (the common case is a
/// single process-wide tracer).
struct SampleSkipState {
  const void* owner = nullptr;
  std::uint64_t skips_left = 0;  ///< misses before the next sampled event
};

/// Number of Bernoulli(p) misses before the next hit, geometrically
/// distributed — the gap distribution of per-event coin flips, drawn once
/// per sampled event instead of once per event.
std::uint64_t draw_geometric_skips(double p) noexcept {
  const double u = next_unit();
  if (u <= 0.0) return 0;
  const double skips = std::floor(std::log(u) / std::log1p(-p));
  return skips < 1e18 ? static_cast<std::uint64_t>(skips) : std::uint64_t(1)
                                                                << 60;
}

}  // namespace

const char* to_string(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kAdmit: return "admit";
    case TraceEventKind::kReject: return "reject";
    case TraceEventKind::kRelease: return "release";
    case TraceEventKind::kRollback: return "rollback";
    case TraceEventKind::kSample: return "sample";
    case TraceEventKind::kAlert: return "alert";
    case TraceEventKind::kReconfig: return "reconfig";
    case TraceEventKind::kConformance: return "conformance";
  }
  return "?";
}

EventTracer::EventTracer(std::size_t capacity, double sampling)
    : sampling_(sampling), ring_(capacity) {
  if (!(sampling >= 0.0 && sampling <= 1.0))
    throw std::invalid_argument("EventTracer: sampling must be in [0, 1]");
}

bool EventTracer::should_sample() noexcept {
  if (sampling_ >= 1.0) return true;
  if (sampling_ <= 0.0) {
    sampled_out_.add();
    return false;
  }
  // Geometric skipping: drawing the whole gap to the next sampled event at
  // once is distributed identically to a coin flip per event, but the miss
  // path is a thread-local decrement and an add to the thread's own
  // sampled_out_ stripe — no RNG draw and no shared write.
  thread_local SampleSkipState tls;
  if (tls.owner != this) {
    tls.owner = this;
    tls.skips_left = draw_geometric_skips(sampling_);
  }
  if (tls.skips_left > 0) {
    --tls.skips_left;
    sampled_out_.add();
    return false;
  }
  tls.skips_left = draw_geometric_skips(sampling_);
  return true;
}

void EventTracer::record(TraceEvent ev) noexcept {
  ring_.record([&ev](std::int64_t stamp) {
    return Record{stamp, ev.timestamp_ns == 0 ? stamp : ev.timestamp_ns,
                  ev.flow_id, ev.class_index, ev.src, ev.dst,
                  ev.blocking_hop, ev.utilization, ev.reason, ev.kind};
  });
}

std::vector<TraceEvent> EventTracer::snapshot() const {
  const auto entries = ring_.snapshot();
  std::vector<TraceEvent> events;
  events.reserve(entries.size());
  for (const auto& [r, lane, seq] : entries)
    events.push_back(TraceEvent{r.kind, seq, r.timestamp_ns, r.flow_id,
                                r.class_index, r.src, r.dst, r.blocking_hop,
                                r.utilization, r.reason});
  return events;
}

std::string EventTracer::to_json() const {
  const auto events = snapshot();
  std::string out = "[";
  char buf[256];
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    std::snprintf(
        buf, sizeof(buf),
        "%s{\"seq\":%llu,\"kind\":\"%s\",\"t_ns\":%lld,\"flow\":%llu,"
        "\"class\":%u,\"src\":%u,\"dst\":%u,\"blocking_hop\":%u,"
        "\"utilization\":%.9g,\"reason\":\"%s\"}",
        i == 0 ? "" : ",", static_cast<unsigned long long>(e.seq),
        to_string(e.kind), static_cast<long long>(e.timestamp_ns),
        static_cast<unsigned long long>(e.flow_id), e.class_index, e.src,
        e.dst, e.blocking_hop, e.utilization, e.reason ? e.reason : "");
    out += buf;
  }
  out += "]";
  return out;
}

void EventTracer::write_csv(util::CsvWriter& csv) const {
  csv.write_row({"seq", "kind", "t_ns", "flow", "class", "src", "dst",
                 "blocking_hop", "utilization", "reason"});
  char num[64];
  for (const TraceEvent& e : snapshot()) {
    std::snprintf(num, sizeof(num), "%.9g", e.utilization);
    csv.write_row({std::to_string(e.seq), to_string(e.kind),
                   std::to_string(e.timestamp_ns), std::to_string(e.flow_id),
                   std::to_string(e.class_index), std::to_string(e.src),
                   std::to_string(e.dst), std::to_string(e.blocking_hop), num,
                   e.reason ? e.reason : ""});
  }
}

}  // namespace ubac::telemetry
