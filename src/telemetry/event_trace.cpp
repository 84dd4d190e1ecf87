#include "telemetry/event_trace.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <new>
#include <stdexcept>
#include <thread>
#include <tuple>

namespace ubac::telemetry {

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

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

/// This thread's lane on the tracer it last recorded into.
thread_local util::LaneClaims::Cache t_lane_cache;

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
  std::uint64_t pending = 0;     ///< misses not yet added to sampled_out_
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
    : capacity_(round_up_pow2(capacity == 0 ? 1 : capacity)),
      sampling_(sampling),
      lanes_(std::make_unique<Lane[]>(kLaneCount)) {
  if (!(sampling >= 0.0 && sampling <= 1.0))
    throw std::invalid_argument("EventTracer: sampling must be in [0, 1]");
}

EventTracer::~EventTracer() {
  for (std::size_t l = 0; l < kLaneCount; ++l)
    delete[] lanes_[l].ring.load(std::memory_order_relaxed);
}

bool EventTracer::should_sample() noexcept {
  if (sampling_ >= 1.0) return true;
  if (sampling_ <= 0.0) {
    sampled_out_.add();
    return false;
  }
  // Geometric skipping: drawing the whole gap to the next sampled event at
  // once is distributed identically to a coin flip per event, but the miss
  // path is a thread-local decrement — no RNG draw and no shared atomic.
  // sampled_out_ is credited in batches at each sampled event (so it can
  // lag by up to one gap per thread; exact after every hit).
  thread_local SampleSkipState tls;
  if (tls.owner != this) {
    tls.owner = this;
    tls.skips_left = draw_geometric_skips(sampling_);
    tls.pending = 0;
  }
  if (tls.skips_left > 0) {
    --tls.skips_left;
    ++tls.pending;
    return false;
  }
  if (tls.pending > 0) {
    sampled_out_.add(tls.pending);
    tls.pending = 0;
  }
  tls.skips_left = draw_geometric_skips(sampling_);
  return true;
}

void EventTracer::record(TraceEvent ev) noexcept {
  const std::uint32_t l = claims_.own_exclusive(t_lane_cache);
  Lane& lane = lanes_[l];
  const bool shared = l == kOverflowLane;
  // On the shared overflow lane the stamp and cursor are claimed together:
  // a writer preempted between the two would otherwise let the lane's
  // cursor order drift from stamp order, and the lane could then lap an
  // event that is still among the newest `capacity` stamps. An owned lane
  // has one writer, which takes its stamps in cursor order by itself.
  if (shared)
    while (lane.claiming.exchange(true, std::memory_order_acquire))
      while (lane.claiming.load(std::memory_order_relaxed)) {
      }
  const std::int64_t stamp = now_ns();
  const std::uint64_t cursor = lane.cursor.load(std::memory_order_relaxed);
  lane.cursor.store(cursor + 1, std::memory_order_relaxed);
  Slot* ring = lane.ring.load(std::memory_order_relaxed);
  if (ring == nullptr) {
    ring = new (std::nothrow) Slot[capacity_];
    lane.ring.store(ring, std::memory_order_release);
  }
  if (shared) lane.claiming.store(false, std::memory_order_release);
  // Out of memory for a first ring: the event is counted, not retained.
  if (ring == nullptr) return;
  const Record record{stamp, ev.timestamp_ns == 0 ? stamp : ev.timestamp_ns,
                      ev.flow_id, ev.class_index, ev.src, ev.dst,
                      ev.blocking_hop, ev.utilization, ev.reason, ev.kind};
  Slot& slot = ring[cursor & (capacity_ - 1)];
  if (shared)
    slot.publish(cursor, record);
  else
    slot.store(cursor, record);
}

std::uint64_t EventTracer::recorded() const noexcept {
  std::uint64_t total = 0;
  for (std::size_t l = 0; l < kLaneCount; ++l)
    total += lanes_[l].cursor.load(std::memory_order_relaxed);
  return total;
}

std::size_t EventTracer::lanes_used() const noexcept {
  std::size_t used = 0;
  for (std::size_t l = 0; l < kLaneCount; ++l)
    used += lanes_[l].ring.load(std::memory_order_relaxed) != nullptr;
  return used;
}

std::vector<TraceEvent> EventTracer::snapshot() const {
  struct Merged {
    Record record;
    std::uint32_t lane;
    std::uint64_t cursor;
  };
  std::vector<Merged> merged;
  for (std::uint32_t l = 0; l < kLaneCount; ++l) {
    const Slot* ring = lanes_[l].ring.load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    Record record{};
    for (std::size_t i = 0; i < capacity_; ++i)
      if (const auto cursor = ring[i].read(record))
        merged.push_back(Merged{record, l, *cursor});
  }
  // Read after the slots: every published slot's cursor claim is counted.
  const std::uint64_t total = recorded();
  std::sort(merged.begin(), merged.end(),
            [](const Merged& a, const Merged& b) {
              return std::tie(a.record.stamp_ns, a.lane, a.cursor) <
                     std::tie(b.record.stamp_ns, b.lane, b.cursor);
            });
  const std::size_t keep = std::min(merged.size(), capacity_);
  const std::uint64_t first = total >= keep ? total - keep : 0;
  std::vector<TraceEvent> events;
  events.reserve(keep);
  for (std::size_t i = merged.size() - keep; i < merged.size(); ++i) {
    const Record& r = merged[i].record;
    events.push_back(TraceEvent{r.kind, first + events.size(), r.timestamp_ns,
                                r.flow_id, r.class_index, r.src, r.dst,
                                r.blocking_hop, r.utilization, r.reason});
  }
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

std::int64_t EventTracer::now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace ubac::telemetry
