#pragma once

/// \file lane_ring.hpp
/// \brief The one trace ring: EventTracer keeps its events and
///        SpanRecorder its completed spans in a LaneRing<Record>.
///
/// Writer threads record into lanes claimed through util::LaneClaims: the
/// first 16 threads alive at once each own a lane, handed back when the
/// thread exits (the next claimer continues its cursor and ring), and
/// every later thread writes one extra overflow lane, kOverflowLane. A
/// lane is a power-of-two ring of `capacity` seqlock slots with a
/// lane-local cursor, allocated by the lane's first record, so memory is
/// lanes_used() x capacity() slots. record() takes a wall-clock record
/// stamp (ring_now_ns()), kept as the record's `stamp_ns`. An owner bumps
/// its cursor and publishes the slot with plain and release stores
/// (SeqlockSlot::store): no word another thread writes, no
/// read-modify-write. On the overflow lane the stamp and cursor are
/// claimed together under the lane's claim lock and slots publish by CAS
/// (SeqlockSlot::publish). On every lane cursor order is stamp order.
///
/// Record order across lanes is (stamp, lane, cursor). snapshot() merges
/// the lanes in that order, keeps the newest `capacity` and numbers them
/// recorded() - n + i, so at quiescence it is exactly the last `capacity`
/// recorded, with dense seqs ending at recorded() - 1. Taken while writers
/// are active it is best-effort: slots mid-write are skipped.
///
/// Slots. A slot's stamp is 2 * (cursor + 1) once record `cursor` is
/// published, odd while a writer owns the slot, 0 while unwritten. Two
/// overflow writers meet at one slot only when one was lapped by a whole
/// ring rotation: a writer that finds a claim >= its own is the lapped one
/// and drops its stale record; one that finds an older claim mid-copy
/// waits it out (one payload copy), so the newest record quiesces in
/// place. Readers copy the payload between two stamp loads and discard a
/// torn copy, so a read never blocks a writer.

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <memory>
#include <new>
#include <optional>
#include <tuple>
#include <vector>

#include "util/lane_claims.hpp"

namespace ubac::telemetry {

template <class T>
struct SeqlockSlot {
  std::atomic<std::uint64_t> stamp{0};
  T value{};

  /// Store `v` as record `seq`; dropped when a newer record owns the slot
  /// (this writer was lapped).
  void publish(std::uint64_t seq, const T& v) noexcept {
    const std::uint64_t published = 2 * (seq + 1);
    std::uint64_t cur = stamp.load(std::memory_order_relaxed);
    for (;;) {
      if (cur >= published) return;
      if (cur & 1) {  // an older writer mid-copy; it cannot block, so spin
        cur = stamp.load(std::memory_order_relaxed);
        continue;
      }
      if (stamp.compare_exchange_weak(cur, published | 1,
                                      std::memory_order_acq_rel,
                                      std::memory_order_relaxed))
        break;
    }
    value = v;
    stamp.store(published, std::memory_order_release);
  }

  /// Store `v` as record `seq` from the slot's only writer.
  void store(std::uint64_t seq, const T& v) noexcept {
    const std::uint64_t published = 2 * (seq + 1);
    stamp.store(published | 1, std::memory_order_relaxed);
    // Orders the odd stamp before the payload copy, as publish()'s CAS
    // does; a reader that sees any of the copy then sees the stamp move.
    std::atomic_thread_fence(std::memory_order_release);
    value = v;
    stamp.store(published, std::memory_order_release);
  }

  /// Copy the published record into `out` and return its seq; nullopt
  /// when the slot is unwritten, mid-write, or rewritten during the copy.
  std::optional<std::uint64_t> read(T& out) const noexcept {
    const std::uint64_t before = stamp.load(std::memory_order_acquire);
    if (before == 0 || (before & 1)) return std::nullopt;
    out = value;
    std::atomic_thread_fence(std::memory_order_acquire);
    if (stamp.load(std::memory_order_relaxed) != before) return std::nullopt;
    return before / 2 - 1;
  }
};

/// The record stamp: steady-clock nanoseconds.
inline std::int64_t ring_now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// `Record` is trivially copyable and starts with `std::int64_t stamp_ns`.
template <class Record>
class LaneRing {
 public:
  using Slot = SeqlockSlot<Record>;
  /// Lanes 0..kOverflowLane-1 each have one owner thread; threads past
  /// the kOverflowLane-th alive at once share the overflow lane.
  static constexpr std::uint32_t kOverflowLane = util::LaneClaims::kLanes;
  static constexpr std::size_t kLaneCount = kOverflowLane + 1;

  /// A retained record, the lane it was recorded on, and its position in
  /// one snapshot.
  struct Entry {
    Record record;
    std::uint32_t lane;
    std::uint64_t seq;
  };

  /// `capacity` is rounded up to a power of two.
  explicit LaneRing(std::size_t capacity)
      : capacity_(std::bit_ceil(std::max<std::size_t>(capacity, 1))),
        lanes_(std::make_unique<Lane[]>(kLaneCount)) {}
  ~LaneRing() {
    for (std::size_t l = 0; l < kLaneCount; ++l)
      delete[] lanes_[l].ring.load(std::memory_order_relaxed);
  }

  LaneRing(const LaneRing&) = delete;
  LaneRing& operator=(const LaneRing&) = delete;

  /// The calling thread's lane: its own, or kOverflowLane.
  std::uint32_t lane() noexcept { return claims_.own_exclusive(t_cache); }

  /// Stores `make(stamp)` on the calling thread's lane, `stamp` being the
  /// record stamp. Waits only on the overflow lane: for its claim lock,
  /// or, lapped by a full lane rotation, for the colliding writer.
  template <class Make>
  void record(Make&& make) noexcept {
    const std::uint32_t l = lane();
    Lane& lane = lanes_[l];
    const bool shared = l == kOverflowLane;
    // A writer preempted between the stamp and the cursor claim would let
    // a shared lane's cursor order drift from stamp order, and the lane
    // could lap a record still among the newest `capacity` stamps.
    if (shared)
      while (lane.claiming.exchange(true, std::memory_order_acquire))
        while (lane.claiming.load(std::memory_order_relaxed)) {
        }
    const std::int64_t stamp = ring_now_ns();
    const std::uint64_t cursor = lane.cursor.load(std::memory_order_relaxed);
    lane.cursor.store(cursor + 1, std::memory_order_relaxed);
    Slot* ring = lane.ring.load(std::memory_order_relaxed);
    if (ring == nullptr) {
      ring = new (std::nothrow) Slot[capacity_];
      lane.ring.store(ring, std::memory_order_release);
    }
    if (shared) lane.claiming.store(false, std::memory_order_release);
    // Out of memory for a first ring: the record is counted, not retained.
    if (ring == nullptr) return;
    Slot& slot = ring[cursor & (capacity_ - 1)];
    if (shared)
      slot.publish(cursor, make(stamp));
    else
      slot.store(cursor, make(stamp));
  }

  std::size_t capacity() const noexcept { return capacity_; }

  /// Records stored, summed over the lanes; exact at quiescence.
  std::uint64_t recorded() const noexcept {
    std::uint64_t total = 0;
    for (std::size_t l = 0; l < kLaneCount; ++l)
      total += lanes_[l].cursor.load(std::memory_order_relaxed);
    return total;
  }

  /// Lanes holding a ring, the overflow lane included.
  std::size_t lanes_used() const noexcept {
    std::size_t used = 0;
    for (std::size_t l = 0; l < kLaneCount; ++l)
      used += lanes_[l].ring.load(std::memory_order_relaxed) != nullptr;
    return used;
  }

  /// Records stored on the shared overflow lane.
  std::uint64_t overflow_recorded() const noexcept {
    return lanes_[kOverflowLane].cursor.load(std::memory_order_relaxed);
  }

  /// The retained (newest `capacity`) records in record order, oldest
  /// first, each with its snapshot seq.
  std::vector<Entry> snapshot() const {
    std::vector<Entry> merged;
    for (std::uint32_t l = 0; l < kLaneCount; ++l) {
      const Slot* ring = lanes_[l].ring.load(std::memory_order_acquire);
      if (ring == nullptr) continue;
      Record record{};
      for (std::size_t i = 0; i < capacity_; ++i)
        if (const auto cursor = ring[i].read(record))
          merged.push_back(Entry{record, l, *cursor});
    }
    // Read after the slots: every published slot's cursor claim is counted.
    const std::uint64_t total = recorded();
    std::sort(merged.begin(), merged.end(),
              [](const Entry& a, const Entry& b) {
                return std::tie(a.record.stamp_ns, a.lane, a.seq) <
                       std::tie(b.record.stamp_ns, b.lane, b.seq);
              });
    const std::size_t keep = std::min(merged.size(), capacity_);
    merged.erase(merged.begin(),
                 merged.end() - static_cast<std::ptrdiff_t>(keep));
    const std::uint64_t first = total >= keep ? total - keep : 0;
    for (std::size_t i = 0; i < keep; ++i) merged[i].seq = first + i;
    return merged;
  }

 private:
  /// One writer thread's ring. 128-byte aligned so neither a neighbouring
  /// lane nor the adjacent-line prefetcher pulls another core's cursor.
  struct alignas(128) Lane {
    /// Overflow lane only: held across the stamp and cursor claims, so
    /// cursor order is stamp order with several writers.
    std::atomic<bool> claiming{false};
    /// Records claimed; stored by the lane's writer, summed by recorded().
    std::atomic<std::uint64_t> cursor{0};
    /// capacity_ slots, allocated by the lane's first record().
    std::atomic<Slot*> ring{nullptr};
  };

  /// This thread's lane on the ring of this record type it last wrote;
  /// one per instantiation, so a thread writing both trace types on one
  /// decision keeps a hit in each.
  static inline constinit thread_local util::LaneClaims::Cache t_cache{};

  std::size_t capacity_;
  std::unique_ptr<Lane[]> lanes_;
  util::LaneClaims claims_;
};

}  // namespace ubac::telemetry
