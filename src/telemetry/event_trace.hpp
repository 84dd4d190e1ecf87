#pragma once

/// \file event_trace.hpp
/// \brief Bounded ring buffer of structured admission-control events.
///
/// One TraceEvent per admit / reject / release / rollback decision (plus
/// periodic kSample records from the simulator): flow id, class, endpoints,
/// the blocking hop and the observed utilization at decision time, a static
/// reject-reason string, and a nanosecond timestamp.
///
/// Writer threads record into lanes (util::LaneClaims, the claim the
/// admission controller's registry lanes use): a lane is a power-of-two
/// ring of `capacity` seqlock slots (seqlock.hpp) with a lane-local
/// cursor, allocated when the lane's first event is recorded. The first
/// 16 writer threads alive at once each own a lane, handed back when the
/// thread exits; the next thread to claim it continues its cursor and
/// ring. An owner's record() takes a wall-clock record
/// stamp (now_ns()), bumps the cursor and publishes the slot with plain
/// and release stores (SeqlockSlot::store), so a traced decision writes
/// no word another thread writes and runs no read-modify-write. Every
/// later thread writes one extra overflow lane, never an owned one; there
/// the stamp and cursor are claimed together under the lane's claim lock
/// and slots are published by CAS (SeqlockSlot::publish), as a lane with
/// several writers needs. On every lane cursor order is stamp order.
/// recorded() sums the lane cursors and is exact at quiescence.
///
/// Record order across lanes is (record stamp, lane, cursor). The
/// caller's `timestamp_ns` never decides it: events from other clock
/// domains (simulator, alerts, actuator) are ordered by when they were
/// recorded. snapshot() merges the lanes in that order, keeps the newest
/// `capacity` and numbers them recorded() - n + i. Each lane retains its
/// own last `capacity` events, so at sampling = 1.0 and quiescence the
/// snapshot is exactly the last `capacity` recorded events with dense
/// seqs ending at recorded() - 1; taken while writers are active it is
/// best-effort (slots mid-write are skipped, so the seqs only approximate
/// the events' positions). A seq names a position in one snapshot, not an
/// event across snapshots. Memory is used lanes x capacity slots of 72
/// bytes; the overflow lane's ring, like any, exists only once written.
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
  ~EventTracer();

  EventTracer(const EventTracer&) = delete;
  EventTracer& operator=(const EventTracer&) = delete;

  /// True when the event should be recorded (Bernoulli(sampling) per
  /// call, realized as geometric gaps). Callers gate event *construction*
  /// on this so sampled-out decisions pay only the thread-local decrement.
  bool should_sample() noexcept;

  /// Stores `ev` in the calling thread's lane, stamped with now_ns()
  /// (which also fills a timestamp_ns of 0; `seq` is ignored). Waits only
  /// on the overflow lane: for its claim lock, or, lapped by a full lane
  /// rotation, for the colliding writer.
  void record(TraceEvent ev) noexcept;

  std::size_t capacity() const noexcept { return capacity_; }
  /// Events recorded (post-sampling), summed over the lanes; exact at
  /// quiescence.
  std::uint64_t recorded() const noexcept;
  /// Lanes holding a ring, the overflow lane included: memory is
  /// lanes_used() x capacity() slots of 72 bytes.
  std::size_t lanes_used() const noexcept;
  /// Events recorded on the shared overflow lane, by threads past the
  /// 16th alive at once.
  std::uint64_t overflow_recorded() const noexcept {
    return lanes_[kOverflowLane].cursor.load(std::memory_order_relaxed);
  }
  /// Events skipped by sampling.
  std::uint64_t sampled_out() const noexcept {
    return sampled_out_.value();
  }

  /// The retained (most recent) events in record order, oldest first.
  std::vector<TraceEvent> snapshot() const;

  std::string to_json() const;
  void write_csv(util::CsvWriter& csv) const;

  static std::int64_t now_ns() noexcept;

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
  using Slot = SeqlockSlot<Record>;
  static_assert(sizeof(Slot) == 72);

  /// One writer thread's ring. 128-byte aligned so neither a neighbouring
  /// lane nor the adjacent-line prefetcher pulls another core's cursor.
  struct alignas(128) Lane {
    /// Overflow lane only: held across the stamp and cursor claims, so
    /// cursor order is stamp order with several writers.
    std::atomic<bool> claiming{false};
    /// Events claimed; stored by the lane's writer, summed by recorded().
    std::atomic<std::uint64_t> cursor{0};
    /// capacity_ slots, allocated by the lane's first record().
    std::atomic<Slot*> ring{nullptr};
  };

  /// Lanes 0..kLanes-1 each have one owner thread; threads past the
  /// kLanes-th share the overflow lane.
  static constexpr std::uint32_t kOverflowLane = util::LaneClaims::kLanes;
  static constexpr std::size_t kLaneCount = kOverflowLane + 1;

  std::size_t capacity_;
  double sampling_;
  std::unique_ptr<Lane[]> lanes_;
  util::LaneClaims claims_;
  /// Striped: bumped on ~every decision when sampling is low, so a single
  /// shared cell would ping-pong across cores (measured ~17% on the
  /// 8-thread admission bench; striped it is <1%).
  Counter sampled_out_;
};

}  // namespace ubac::telemetry
