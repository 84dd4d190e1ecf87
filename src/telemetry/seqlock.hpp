#pragma once

/// \file seqlock.hpp
/// \brief The seqlock slot protocol the trace rings publish through.
///
/// A ring's writers claim record numbers (seqs: a span recorder's global
/// seq, a tracer lane's cursor) first and write slot `seq mod capacity`
/// afterwards, so two writers meet at one slot only when one has been
/// lapped by a whole ring rotation. The slot's stamp is 2 * (seq + 1) once
/// record `seq` is published, odd while a writer owns the slot, and 0
/// while unwritten. The parity bit serializes a lapped pair:
///   * a writer that finds a claim >= its own is the lapped one — its
///     record is stale by a full ring and is dropped;
///   * a writer that finds an older claim mid-copy waits it out (bounded
///     by one payload copy), then takes the slot;
/// which guarantees the newest seq's payload is what quiesces in place.
/// A ring with one writer (a tracer lane its thread claimed for itself)
/// cannot lap itself, so it uses store() instead: the odd stamp, the
/// payload and the even stamp as plain stores, no read-modify-write.
/// Readers copy the payload between two stamp loads and discard a torn
/// copy, so a read never blocks a writer.

#include <atomic>
#include <cstdint>
#include <optional>

namespace ubac::telemetry {

template <class T>
struct SeqlockSlot {
  std::atomic<std::uint64_t> stamp{0};
  T value{};

  /// Store `v` as record `seq`. False when a newer record owns the slot
  /// (this writer was lapped and `v` is dropped).
  bool publish(std::uint64_t seq, const T& v) noexcept {
    const std::uint64_t published = 2 * (seq + 1);
    std::uint64_t cur = stamp.load(std::memory_order_relaxed);
    for (;;) {
      if (cur >= published) return false;
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
    return true;
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

}  // namespace ubac::telemetry
