#pragma once

/// \file lane_claims.hpp
/// \brief First-come, thread-affine lane assignment, handed back at
///        thread exit.
///
/// A structure that wants its per-decision writes off shared cache lines
/// splits its writable state into kLanes lanes and lets each writer
/// thread claim one the first time it writes: the lowest free lane, per
/// owner. A claim is exclusive: the thread is the lane's only writer
/// until it exits. At thread exit every claim the thread holds is handed
/// back with a release store, and the next thread to claim that lane
/// acquires it, so the new owner sees everything the old one wrote (a
/// tracer cursor, a registry sequence, a counter cell) and continues
/// with plain single-writer stores. The number of claimed lanes is
/// therefore the number of writer threads alive at once, not the number
/// that ever wrote: a caller that starts its threads in waves reuses the
/// same low lanes wave after wave.
///
/// While every lane is claimed, a further thread gets a shared claim.
/// own() hashes it onto a lane, so an owner that uses it keeps every lane
/// correct under several writers (a lock, or atomics); only the core
/// locality is lost. own_exclusive() sends it to one extra lane, index
/// kLanes, so an owner that keeps that overflow lane can write lanes
/// 0..kLanes-1 with plain single-writer stores and pay for sharing only
/// on the overflow. A shared claim is retried on the thread's next cache
/// miss; it is never handed back, because it holds nothing.
///
/// The calling thread's lane is cached in a one-entry thread-local Cache
/// that the owner type supplies, so a thread that writes two owner types
/// on every decision (a controller and a tracer) keeps a hit in both. The
/// cache is keyed by the owner's process-unique uid: a later owner at the
/// same address never inherits it, and a thread alternating owners of
/// one type re-finds its lane in its own list of held claims. The Cache
/// must stay valid until the thread exits or the owner is destroyed,
/// whichever comes first (a thread_local does): the handback resets it,
/// so anything the thread still writes afterwards, from another
/// thread-local or static destructor, takes a shared claim.
///
/// The owner and the threads holding its claims share the lane words, so
/// neither needs to outlive the other: an owner destroyed before its
/// claimers leaves them a board nobody reads, and a thread that exits
/// after its owner was destroyed hands nothing back to it.

#include <cstddef>
#include <cstdint>
#include <memory>

namespace ubac::util {

namespace detail {
struct LaneBoard;  ///< the lane words (lane_claims.cpp)
}  // namespace detail

class LaneClaims {
 public:
  static constexpr std::size_t kLanes = 16;

  /// One-entry per-thread cache of the last owner's lane.
  struct Cache {
    std::uint64_t owner = 0;  ///< uid of the owner, 0 = none
    std::uint32_t lane = 0;
    bool exclusive = false;  ///< the thread claimed `lane` for itself
  };

  LaneClaims();
  ~LaneClaims();
  LaneClaims(const LaneClaims&) = delete;
  LaneClaims& operator=(const LaneClaims&) = delete;

  /// The calling thread's lane, claimed on first use.
  std::uint32_t own(Cache& cache) noexcept {
    return cache.owner == uid_ ? cache.lane : claim(cache);
  }

  /// The lane the calling thread claimed for itself, or kLanes (the
  /// overflow lane) when every lane was already taken.
  std::uint32_t own_exclusive(Cache& cache) noexcept {
    const std::uint32_t lane = own(cache);
    return cache.exclusive ? lane : static_cast<std::uint32_t>(kLanes);
  }

  /// Lanes held right now (racy while threads claim or exit).
  std::size_t claimed() const noexcept;

 private:
  std::uint32_t claim(Cache& cache) noexcept;

  /// First, so an owner that keeps its hot pointers just before its
  /// LaneClaims member keeps the per-call uid check on their line.
  const std::uint64_t uid_;
  /// Shared with every thread holding a claim on it.
  std::shared_ptr<detail::LaneBoard> board_;
};

}  // namespace ubac::util
