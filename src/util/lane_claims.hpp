#pragma once

/// \file lane_claims.hpp
/// \brief First-come, thread-affine lane assignment.
///
/// A structure that wants its per-decision writes off shared cache lines
/// splits its writable state into kLanes lanes and lets each writer
/// thread claim one the first time it writes: first come, first served,
/// per owner. Claimed lanes form a prefix and are never given back, so a
/// thread that claimed a lane is its only writer for the owner's
/// lifetime: the claim is exclusive. Once every lane is claimed, later
/// threads get a shared claim. own() hashes them onto the claimed lanes,
/// so an owner that uses it keeps every lane correct under several
/// writers (a lock, or atomics); only the core locality is lost.
/// own_exclusive() sends them all to one extra lane, index kLanes, so an
/// owner that keeps that overflow lane can write lanes 0..kLanes-1 with
/// plain single-writer stores and pay for sharing only on the overflow.
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
    bool exclusive = false;  ///< the thread claimed `lane` for itself
  };

  LaneClaims();
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
