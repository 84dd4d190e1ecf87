#pragma once

/// \file envelope.hpp
/// \brief Lock-free per-flow empirical arrival-envelope estimation.
///
/// An ArrivalRecorder maintains, for every registered flow, a set of
/// multi-scale sliding arrival windows from which the ConformanceMonitor
/// (conformance.hpp) derives empirical envelopes Ê(I) over
/// I ∈ {10ms, 100ms, 1s, 10s} and checks them against the declared
/// leaky-bucket envelope min{C·I, T + ρ·I} (paper §3).
///
/// Each scale I is a ring of kBucketsPerScale sub-buckets of width
/// I / kBucketsPerScale; a bucket is an {epoch, units} atomic pair where
/// `epoch` is the absolute bucket number floor(t / width) and `units`
/// accumulates arrivals in 2^-10 bit granules — the same 2^-10 grid the
/// integer admission fast path reserves rates on (traffic/flow.hpp), so a
/// window sum divided by its span lands exactly on the RateUnits grid.
/// Summing the kBucketsPerScale newest buckets covers an actual time span
/// in (I - I/B, I], never more than I, so for traffic that satisfies
/// A[s,t] ≤ T + ρ(t-s) the window sum can never exceed T + ρ·I: a
/// conformant flow can never be falsely flagged. Arrivals are rounded
/// DOWN to the unit grid and a bucket-reset race between concurrent
/// writers may drop a few units — both err toward *under*-counting,
/// again the conservative direction for false positives.
///
/// Registration follows the admission hot path through a SpanRecorder
/// style global gate: `ArrivalRecorder::active()` is one acquire load,
/// which is the entire cost of admit/release when no recorder is
/// installed. Slots live in fixed-size open-addressed tables (bounded
/// linear probe, no locks, no allocation after a region's first use); a
/// full probe window counts a dropped registration rather than blocking
/// the admit path.
///
/// Regions. The slots are split into kRegions regions, one per admission
/// controller lane: an id's region is its lane bits, `id >> 48` (the
/// controller issues `lane << 48 | sequence`, see admission/controller.hpp),
/// and lane bits of 16 or more, which no controller issues, wrap onto
/// region `(id >> 48) % 16`. Every region holds `capacity` slots and is
/// mapped when its first flow registers, so a recorder costs memory only
/// for the lanes that admit into it, and collect() and flow_count() scan
/// only those. Inside a region a flow's home slot is its id modulo
/// `capacity`, i.e. its lane-local sequence: a lane's consecutive admits
/// fill consecutive slots, on lines its own core writes, and a lane whose
/// live flows were all admitted within its last `capacity` admits never
/// collides, however many of them there are. Older survivors displace a
/// newcomer by linear probe. A caller that numbers its flows 0, 1, 2...
/// (NetworkSim) uses region 0 alone. A release from another thread
/// writes one key word in the admitting lane's region.
///
/// Each region is split by who writes it. Admit and release touch only
/// the key array, 8 B a slot: the flow id + 1 in the low 56 bits and the
/// class in the top byte, so a 16-slot probe window reads 128 contiguous
/// bytes and a claim or a release is one CAS there. An id of 2^56 - 1 or
/// more, or a class above 255, does not fit a key and counts as a dropped
/// registration. The 1 KiB window payload and its meta words (a 64-bit
/// dirty mask with one bit per [scale][bucket], and an owner tag naming
/// the key whose data the payload holds) are written only by record().
/// The first record() of a new occupant finds the tag naming someone
/// else, scrubs the previous occupant's dirty buckets and scalars, and
/// only then tags the payload with its own key. collect() reads a payload
/// only when its tag matches the slot's key, so a slot whose occupant has
/// not recorded yet reports zero windows, and sums only dirty buckets, so
/// a bit published late can only undercount. Keys, meta words and
/// payload are all mapped zero-filled, so a slot nothing was ever
/// recorded into costs no meta or payload memory. No counter follows
/// claims and releases: flow_count() scans the keys, so it is exact at
/// quiescence.
///
/// The tag is the key, so it tells occupants apart only when ids do not
/// repeat: an id re-admitted into the slot it was released from resumes
/// its old windows. Admission controller ids never repeat, and a
/// NetworkSim run admits each flow index once. Likewise a flow's records
/// must happen before its release (PacedLoadDriver and NetworkSim stop
/// feeding a flow before releasing it): a record racing the release could
/// land in the next occupant's windows.
///
/// A recorder is clock-domain agnostic but single-domain: feed it either
/// wall-clock EventTracer::now_ns() stamps (PacedLoadDriver offered
/// load) or sim-time nanoseconds (NetworkSim delivery), never both.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "traffic/flow.hpp"

namespace ubac::telemetry {

class ArrivalRecorder {
 public:
  /// Number of window scales maintained per flow.
  static constexpr std::size_t kScales = 4;
  /// Sub-buckets per scale; the sliding-window quantization error is one
  /// bucket, i.e. the measured span is within I/kBucketsPerScale of I.
  static constexpr std::size_t kBucketsPerScale = 16;
  /// The envelope windows I, smallest first: 10ms, 100ms, 1s, 10s.
  static constexpr std::int64_t kWindowNs[kScales] = {
      10'000'000, 100'000'000, 1'000'000'000, 10'000'000'000};

  /// Slot regions, one per admission controller lane.
  static constexpr std::size_t kRegions = 16;
  /// An id's region is its bits from here up (the controller's lane).
  static constexpr unsigned kRegionShift = 48;

  struct Options {
    /// Slots of each region (rounded up to a power of two): the flows
    /// one lane can hold. Flows beyond it (or past the probe window) are
    /// dropped, not blocked on.
    std::size_t capacity = 4096;
  };

  ArrivalRecorder() : ArrivalRecorder(Options()) {}
  explicit ArrivalRecorder(Options options);
  ~ArrivalRecorder();

  ArrivalRecorder(const ArrivalRecorder&) = delete;
  ArrivalRecorder& operator=(const ArrivalRecorder&) = delete;

  // -- global gate (same pattern as SpanRecorder) ------------------------

  /// Install `recorder` as the process-wide active recorder (nullptr
  /// disables conformance tracking). The recorder must outlive all
  /// admit/release/record callers, i.e. stay alive until after
  /// install(nullptr).
  static void install(ArrivalRecorder* recorder);

  /// The active recorder, or nullptr when conformance is off. This load
  /// is the entire disabled-path cost on admit/release.
  static ArrivalRecorder* active() noexcept {
    return g_active_.load(std::memory_order_acquire);
  }

  // -- admission-path hooks (lock-free, never block) ---------------------

  /// Claim a slot for a newly admitted flow: one CAS on the key word.
  /// Safe to call concurrently with record()/collect(); re-admitting an id
  /// already registered is a no-op.
  void on_admit(traffic::FlowId flow_id, std::uint32_t class_index) noexcept;

  /// Release the flow's slot (no-op for unknown ids, e.g. flows admitted
  /// before the recorder was installed).
  void on_release(traffic::FlowId flow_id) noexcept;

  /// Credit `bits` of arrivals to `flow_id` at time `t_ns`. Unknown ids
  /// count as dropped records. Bits are rounded down to 2^-10 granules.
  void record(traffic::FlowId flow_id, double bits,
              std::int64_t t_ns) noexcept;

  // -- inspection (monitor side; concurrent with writers) ----------------

  /// One registered flow's live windows, evaluated at collect() time.
  struct FlowWindows {
    traffic::FlowId flow_id = 0;
    std::uint32_t class_index = 0;
    std::int64_t registered_ns = 0;
    double total_bits = 0.0;  ///< lifetime arrivals since registration
    /// Ê over the trailing kWindowNs[s] window, in bits.
    double window_bits[kScales] = {0.0, 0.0, 0.0, 0.0};
  };

  /// Append one FlowWindows per live flow, windows evaluated at `now_ns`
  /// (same clock domain as record()). Best effort under churn: a flow
  /// admitted or released mid-scan may be missed or carry partial data.
  void collect(std::int64_t now_ns, std::vector<FlowWindows>& out) const;

  /// Slots of one region.
  std::size_t capacity() const noexcept { return capacity_; }
  /// Regions mapped so far (a region is mapped by its first flow).
  std::size_t regions_in_use() const noexcept;
  /// Live registered flows, counted by a scan of the keys of the regions
  /// in use (approximate under churn, exact at quiescence).
  std::size_t flow_count() const noexcept;
  /// Registrations refused because the probe window was full or the id
  /// or class does not fit a key.
  std::uint64_t dropped_registrations() const noexcept {
    return dropped_registrations_.load(std::memory_order_relaxed);
  }
  /// record() calls for ids with no live slot.
  std::uint64_t dropped_records() const noexcept {
    return dropped_records_.load(std::memory_order_relaxed);
  }

 private:
  static constexpr std::size_t kNoSlot = ~std::size_t{0};

  /// One sub-bucket: absolute bucket number + arrival units in it.
  /// A writer observing a stale epoch CASes it forward and zeroes the
  /// units; a concurrent add between the CAS and the zeroing is lost
  /// (undercount — conservative).
  struct Bucket {
    std::int64_t epoch;
    std::uint64_t units;
  };

  /// A slot's windows. Plain words accessed through std::atomic_ref, so
  /// the array can start on zero pages the kernel maps on first write.
  struct Payload {
    std::int64_t registered_ns;
    std::uint64_t total_units;
    Bucket buckets[kScales][kBucketsPerScale];
  };

  /// The per-slot words record() writes next to the payload, accessed
  /// through std::atomic_ref like the payload.
  struct Meta {
    /// Bit s * kBucketsPerScale + b: buckets[s][b] holds the owner's
    /// data. Set by record() after the bucket write, cleared by a scrub.
    std::uint64_t dirty;
    /// Key of the occupant whose data the payload holds; 0 before the
    /// first record(), kScrubbing while one is scrubbing.
    std::uint64_t owner;
  };
  static_assert(kScales * kBucketsPerScale == 64,
                "one dirty bit per bucket must fit a 64-bit mask");
  static_assert(sizeof(Meta) == 16);

  /// Key layout: class in the top byte, flow id + 1 below.
  static constexpr unsigned kClassShift = 56;
  static constexpr std::uint64_t kIdMask =
      (std::uint64_t{1} << kClassShift) - 1;
  static constexpr std::uint32_t kMaxClass = 0xFF;
  /// An owner value no key takes (its id bits are zero).
  static constexpr std::uint64_t kScrubbing = ~kIdMask;

  /// One mapped region: capacity_ keys, then as many Meta, then as many
  /// Payload, in one zero-filled mapping. keys is null while unmapped.
  struct Region {
    /// Class << kClassShift | (flow id + 1) per slot ("key"); 0 = free.
    /// Offset by one so flow id 0 is representable.
    std::uint64_t* keys = nullptr;
    Meta* meta = nullptr;
    Payload* payload = nullptr;
  };

  static std::size_t region_of(traffic::FlowId flow_id) noexcept {
    return static_cast<std::size_t>(flow_id >> kRegionShift) &
           (kRegions - 1);
  }
  std::size_t region_bytes() const noexcept;
  /// Region r, or one with null keys while it is unmapped.
  Region region(std::size_t r) const noexcept;
  /// Region r, mapped now if it was not; null keys when mapping fails.
  Region map_region(std::size_t r) noexcept;

  /// Slot index in `reg` holding `flow_id` (its key in `key`), or kNoSlot.
  std::size_t find(const Region& reg, traffic::FlowId flow_id,
                   std::uint64_t& key) const noexcept;
  /// Make `key` the owner of `slot`'s payload, scrubbing the previous
  /// occupant's windows first. False when the slot no longer holds `key`.
  bool own_payload(const Region& reg, std::size_t slot,
                   std::uint64_t key) noexcept;

  static std::atomic<ArrivalRecorder*> g_active_;

  std::size_t capacity_;  ///< slots per region, a power of two
  std::size_t mask_;
  /// Each region's mapping, published once by its first registration.
  std::atomic<std::byte*> regions_[kRegions] = {};
  std::atomic<std::uint64_t> dropped_registrations_{0};
  std::atomic<std::uint64_t> dropped_records_{0};
};

}  // namespace ubac::telemetry
