#pragma once

/// \file event_trace.hpp
/// \brief Bounded trace of structured admission-control events.
///
/// One TraceEvent per admit / reject / release / rollback decision (plus
/// periodic kSample records from the simulator): flow id, class, endpoints,
/// the blocking hop and the observed utilization at decision time, a static
/// reject-reason string, and a nanosecond timestamp.
///
/// EventTracer is sampling and formatting on a LaneRing (lane_ring.hpp):
/// a traced decision writes only the lane its thread owns, with plain and
/// release stores, and snapshot() returns the newest `capacity` events in
/// record order (record stamp, lane, cursor), numbered recorded() - n + i.
/// record() stamps each event with now_ns(), which also fills a
/// timestamp_ns of 0; the caller's `timestamp_ns` never decides order, so
/// events from other clock domains (simulator, alerts, actuator) are
/// ordered by when they were recorded. A seq names a position in one
/// snapshot, not an event across snapshots. Memory is used lanes x
/// capacity slots of 72 bytes.
///
/// Sampling < 1.0 keeps a uniform random subset via geometric skipping:
/// the gap to the next sampled event is drawn once per hit, so a
/// sampled-out event costs a thread-local decrement and an add to the
/// thread's own sampled_out() stripe. sampled_out() is exact once the
/// writers are ordered before the read.

#include <cstdint>
#include <string>
#include <vector>

#include "telemetry/lane_ring.hpp"
#include "telemetry/metrics.hpp"
#include "util/csv.hpp"

namespace ubac::telemetry {

enum class TraceEventKind : std::uint8_t {
  kAdmit,
  kReject,
  kRelease,
  kRollback,
  kSample,
  /// AlertEngine fire/resolve transition; `reason` names the rule and the
  /// polarity, `utilization` carries the rule's observed value.
  kAlert,
  /// ReconfigurationActuator phase marker; `reason` names the phase
  /// ("reconfig:research", "reconfig:apply", ...), `utilization` carries
  /// the alpha (or shed count) the phase produced.
  kReconfig,
  /// ConformanceMonitor verdict transition; `reason` is
  /// "conformance:violation" or "conformance:clear", `flow_id` names the
  /// flow and `utilization` carries its conformance margin.
  kConformance,
};

const char* to_string(TraceEventKind kind);

struct TraceEvent {
  TraceEventKind kind = TraceEventKind::kAdmit;
  std::uint64_t seq = 0;  ///< position in EventTracer::snapshot()
  std::int64_t timestamp_ns = 0;
  std::uint64_t flow_id = 0;
  std::uint32_t class_index = 0;
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint32_t blocking_hop = 0;  ///< first saturated hop (rejects)
  /// Highest per-hop class utilization observed at decision time (or the
  /// sampled quantity for kSample events).
  double utilization = 0.0;
  /// Static reject-reason string (never owned; outcome names). May be "".
  const char* reason = "";
};

class EventTracer {
 public:
  /// `capacity` is rounded up to a power of two. Throws
  /// std::invalid_argument when `sampling` is outside [0, 1].
  explicit EventTracer(std::size_t capacity, double sampling = 1.0);

  EventTracer(const EventTracer&) = delete;
  EventTracer& operator=(const EventTracer&) = delete;

  /// True when the event should be recorded (Bernoulli(sampling) per
  /// call, realized as geometric gaps). Callers gate event *construction*
  /// on this so sampled-out decisions pay only a thread-local decrement
  /// and the add to sampled_out().
  bool should_sample() noexcept;

  /// Stores `ev` in the calling thread's lane, stamped with now_ns()
  /// (which also fills a timestamp_ns of 0; `seq` is ignored). Waits only
  /// on the overflow lane: for its claim lock, or, lapped by a full lane
  /// rotation, for the colliding writer.
  void record(TraceEvent ev) noexcept;

  std::size_t capacity() const noexcept { return ring_.capacity(); }
  /// Events recorded (post-sampling), summed over the lanes; exact at
  /// quiescence.
  std::uint64_t recorded() const noexcept { return ring_.recorded(); }
  /// Lanes holding a ring, the overflow lane included: memory is
  /// lanes_used() x capacity() slots of 72 bytes.
  std::size_t lanes_used() const noexcept { return ring_.lanes_used(); }
  /// Events recorded on the shared overflow lane, by threads past the
  /// 16th alive at once.
  std::uint64_t overflow_recorded() const noexcept {
    return ring_.overflow_recorded();
  }
  /// Events skipped by sampling; exact at quiescence.
  std::uint64_t sampled_out() const noexcept {
    return sampled_out_.value();
  }

  /// The retained (most recent) events in record order, oldest first.
  std::vector<TraceEvent> snapshot() const;

  std::string to_json() const;
  void write_csv(util::CsvWriter& csv) const;

  static std::int64_t now_ns() noexcept { return ring_now_ns(); }

 private:
  /// A slot's payload: the event without its seq, plus the record stamp
  /// that orders it across lanes.
  struct Record {
    std::int64_t stamp_ns;
    std::int64_t timestamp_ns;
    std::uint64_t flow_id;
    std::uint32_t class_index;
    std::uint32_t src;
    std::uint32_t dst;
    std::uint32_t blocking_hop;
    double utilization;
    const char* reason;
    TraceEventKind kind;
  };
  using Slot = LaneRing<Record>::Slot;
  static_assert(sizeof(Slot) == 72);

  double sampling_;
  LaneRing<Record> ring_;
  /// Striped: bumped on ~every decision when sampling is low, so a single
  /// shared cell would ping-pong across cores (measured ~17% on the
  /// 8-thread admission bench; striped it is <1%).
  Counter sampled_out_;
};

}  // namespace ubac::telemetry
