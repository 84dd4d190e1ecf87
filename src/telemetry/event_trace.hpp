#pragma once

/// \file event_trace.hpp
/// \brief Bounded ring buffer of structured admission-control events.
///
/// One TraceEvent per admit / reject / release / rollback decision (plus
/// periodic kSample records from the simulator): flow id, class, endpoints,
/// the blocking hop and the observed utilization at decision time, a static
/// reject-reason string, and a nanosecond timestamp.
///
/// Each writer thread records into its own lane (util::LaneClaims, the
/// claim the admission controller's registry lanes use): a power-of-two
/// ring of `capacity` seqlock slots (seqlock.hpp) with a lane-local
/// cursor, allocated when the lane's first event is recorded. The one
/// shared write is the global `seq` claim, a fetch_add on a counter alone
/// on its own 128-byte line; seq is record order across all lanes (events
/// from other clock domains — simulator, alerts, actuator — are ordered
/// by it, never by timestamp), and recorded() is exact. A thread past the
/// 16th shares a lane; the lane's claim lock keeps cursor order equal to
/// seq order there, and is uncontended on a lane with one writer.
///
/// snapshot() merges the lanes, sorts by seq and keeps the newest
/// `capacity`. Each lane retains its own last `capacity` events, so at
/// sampling = 1.0 and quiescence the snapshot is exactly the last
/// `capacity` recorded events; taken while writers are active it is
/// best-effort (slots mid-write are skipped). Memory is used lanes x
/// capacity slots.
///
/// Sampling < 1.0 keeps a uniform random subset via geometric skipping:
/// the gap to the next sampled event is drawn once per hit, so a
/// sampled-out event costs one thread-local decrement — no RNG draw, no
/// shared state. sampled_out() is credited in per-thread batches at each
/// sampled event, so it can lag by up to one gap per thread.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "telemetry/metrics.hpp"
#include "telemetry/seqlock.hpp"
#include "util/csv.hpp"
#include "util/lane_claims.hpp"

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
  std::uint64_t seq = 0;       ///< filled by EventTracer::record
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
  /// `capacity` is rounded up to a power of two; `sampling` in [0, 1].
  explicit EventTracer(std::size_t capacity, double sampling = 1.0);
  ~EventTracer();

  EventTracer(const EventTracer&) = delete;
  EventTracer& operator=(const EventTracer&) = delete;

  /// True when the event should be recorded (Bernoulli(sampling) per
  /// call, realized as geometric gaps). Callers gate event *construction*
  /// on this so sampled-out decisions pay only the thread-local decrement.
  bool should_sample() noexcept;

  /// Stores `ev` in the calling thread's lane (seq and, when 0,
  /// timestamp_ns are filled in). The only waits are a shared lane's
  /// claim lock and a writer lapped by a full lane rotation briefly
  /// waiting out (or yielding to) the colliding writer.
  void record(TraceEvent ev) noexcept;

  std::size_t capacity() const noexcept { return capacity_; }
  /// Events recorded (post-sampling), total; exact.
  std::uint64_t recorded() const noexcept {
    return head_.load(std::memory_order_acquire);
  }
  /// Events skipped by sampling.
  std::uint64_t sampled_out() const noexcept {
    return sampled_out_.value();
  }

  /// The retained (most recent) events, oldest first.
  std::vector<TraceEvent> snapshot() const;

  std::string to_json() const;
  void write_csv(util::CsvWriter& csv) const;

  static std::int64_t now_ns() noexcept;

 private:
  using Slot = SeqlockSlot<TraceEvent>;

  /// One writer thread's ring. 128-byte aligned so neither a neighbouring
  /// lane nor the adjacent-line prefetcher pulls another core's cursor.
  struct alignas(128) Lane {
    /// Held across the seq and cursor claims, so cursor order is seq order
    /// even on a shared lane.
    std::atomic<bool> claiming{false};
    std::uint64_t cursor = 0;  ///< events claimed; guarded by `claiming`
    /// capacity_ slots, allocated by the lane's first record().
    std::atomic<Slot*> ring{nullptr};
  };

  /// The global seq claim, alone on its line: the only tracer word every
  /// writer writes.
  alignas(128) std::atomic<std::uint64_t> head_{0};
  alignas(128) std::size_t capacity_;
  double sampling_;
  std::unique_ptr<Lane[]> lanes_;
  util::LaneClaims claims_;
  /// Striped: bumped on ~every decision when sampling is low, so a single
  /// shared cell would ping-pong across cores (measured ~17% on the
  /// 8-thread admission bench; striped it is <1%).
  Counter sampled_out_;
};

}  // namespace ubac::telemetry
