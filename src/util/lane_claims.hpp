#pragma once

/// \file lane_claims.hpp
/// \brief First-come, thread-affine lane assignment.
///
/// A structure that wants its per-decision writes off shared cache lines
/// splits its writable state into kLanes lanes and lets each writer
/// thread claim one the first time it writes: first come, first served,
/// per owner. Claimed lanes form a prefix and are never given back. Once
/// every lane is claimed, later threads hash onto shared lanes, so the
/// owner must keep a lane correct under several writers (a lock, or
/// atomics); only the core locality is lost.
///
/// The calling thread's lane is cached in a one-entry thread-local Cache
/// that the owner type supplies, so a thread that writes two owner types
/// on every decision (a controller and a tracer) keeps a hit in both. The
/// cache is keyed by the owner's process-unique uid: a later owner at the
/// same address never inherits it, and a thread alternating owners of
/// one type re-finds its lane by its thread token.

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace ubac::util {

class LaneClaims {
 public:
  static constexpr std::size_t kLanes = 16;

  /// One-entry per-thread cache of the last owner's lane.
  struct Cache {
    std::uint64_t owner = 0;  ///< uid of the owner, 0 = none
    std::uint32_t lane = 0;
  };

  LaneClaims();
  LaneClaims(const LaneClaims&) = delete;
  LaneClaims& operator=(const LaneClaims&) = delete;

  /// The calling thread's lane, claimed on first use.
  std::uint32_t own(Cache& cache) noexcept {
    return cache.owner == uid_ ? cache.lane : claim(cache);
  }

 private:
  std::uint32_t claim(Cache& cache) noexcept;

  /// First, so an owner that keeps its hot pointers just before its
  /// LaneClaims member keeps the per-call uid check on their line.
  const std::uint64_t uid_;
  /// Token of the thread holding each lane; 0 while unclaimed. Written
  /// once per claiming thread and read only on a cache miss.
  std::atomic<std::uint64_t> owners_[kLanes];
};

}  // namespace ubac::util
