#pragma once

/// \file flow_registry.hpp
/// \brief Open-addressing flow record map used by the concurrent
///        controller's per-thread registry lanes.
///
/// The seed registry stored a full traffic::Flow (with its own route
/// vector) in a node-based unordered_map — three heap allocations per
/// admit. The run-time fast path only needs two words per flow: the id
/// and the controller's dense route-index cell, from which the class, the
/// endpoints and the route (already translated to ledger slots) are all
/// recovered. This map stores exactly that in one flat slot array with
/// linear probing, so admit/release touch no allocator at steady state:
/// growth doubles the array, and a map drained below 1/8 load halves it
/// back, so a lane that once held a prefill peak gives the memory back.
///
/// Not thread-safe by itself: each controller lane wraps one map in its
/// lane mutex. Flow ids are unique for the life of a controller (a
/// per-lane monotone sequence under the lane lock), which is why insert()
/// may take the first free slot without a duplicate probe.

#include <cstdint>
#include <vector>

#include "traffic/flow.hpp"

namespace ubac::admission {

/// One registered flow: its id and the controller's route-index cell.
struct FlowRecord {
  traffic::FlowId id = 0;  ///< 0 = empty slot, kTombstone = erased slot
  std::uint32_t cell = 0;  ///< (class * nodes + src) * nodes + dst
};
static_assert(sizeof(FlowRecord) == 16, "two records per 32-byte half-line");

/// Flat linear-probing map keyed by flow id. Ids 0 and ~0 are reserved as
/// slot markers (the controller never issues either).
class FlowShardMap {
 public:
  static constexpr traffic::FlowId kTombstone = ~traffic::FlowId{0};

  FlowShardMap() { slots_.resize(kInitialCapacity); }

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return slots_.size(); }

  /// Insert a record whose id is not present (guaranteed by id
  /// uniqueness). Amortized O(1); reallocates only on growth.
  void insert(const FlowRecord& record) {
    if ((size_ + tombstones_ + 1) * 4 > slots_.size() * 3) rehash();
    place(record);
    ++size_;
  }

  /// Find a live record; the pointer is invalidated by the next insert or
  /// erase on this map (callers copy under the lane lock). The reserved
  /// marker ids (0, kTombstone) are never present — without the explicit
  /// check they would match empty/erased slots.
  const FlowRecord* find(traffic::FlowId id) const {
    if (id == 0 || id == kTombstone) return nullptr;
    std::size_t i = index_of(id);
    while (true) {
      const FlowRecord& slot = slots_[i];
      if (slot.id == id) return &slot;
      if (slot.id == 0) return nullptr;
      i = (i + 1) & (slots_.size() - 1);
    }
  }

  /// Remove a live record, copying it to `out`. False when absent (and
  /// always false for the reserved marker ids, which match slot markers).
  /// Shrinks the array once fewer than 1/8 of its slots are live.
  bool erase(traffic::FlowId id, FlowRecord& out) {
    if (id == 0 || id == kTombstone) return false;
    std::size_t i = index_of(id);
    while (true) {
      FlowRecord& slot = slots_[i];
      if (slot.id == id) {
        out = slot;
        slot = FlowRecord{kTombstone, 0};
        --size_;
        ++tombstones_;
        if (slots_.size() > kInitialCapacity && size_ * 8 < slots_.size())
          rehash();
        return true;
      }
      if (slot.id == 0) return false;
      i = (i + 1) & (slots_.size() - 1);
    }
  }

  /// Visit every live record (teardown sweeps, tests).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const FlowRecord& slot : slots_)
      if (slot.id != 0 && slot.id != kTombstone) fn(slot);
  }

 private:
  static constexpr std::size_t kInitialCapacity = 64;  // power of two

  std::size_t index_of(traffic::FlowId id) const {
    // Fibonacci hash: sequential ids spread over the whole table.
    return static_cast<std::size_t>((id * 0x9E3779B97F4A7C15ull) >> 32) &
           (slots_.size() - 1);
  }

  /// Claim the first empty or tombstone slot on id's probe chain. Safe
  /// without a duplicate check because ids are never reused.
  void place(const FlowRecord& record) {
    std::size_t i = index_of(record.id);
    while (true) {
      FlowRecord& slot = slots_[i];
      if (slot.id == 0 || slot.id == kTombstone) {
        if (slot.id == kTombstone) --tombstones_;
        slot = record;
        return;
      }
      i = (i + 1) & (slots_.size() - 1);
    }
  }

  /// Rebuild at the smallest power of two above twice the live count:
  /// grows a full map, shrinks a drained one, and drops every tombstone.
  void rehash() {
    std::vector<FlowRecord> old = std::move(slots_);
    std::size_t capacity = kInitialCapacity;
    while (size_ * 2 >= capacity) capacity *= 2;
    slots_.assign(capacity, FlowRecord{});
    tombstones_ = 0;
    for (const FlowRecord& slot : old)
      if (slot.id != 0 && slot.id != kTombstone) place(slot);
  }

  std::vector<FlowRecord> slots_;
  std::size_t size_ = 0;
  std::size_t tombstones_ = 0;
};

}  // namespace ubac::admission
