#include "util/lane_claims.hpp"

namespace ubac::util {

namespace {

std::atomic<std::uint64_t> g_next_owner_uid{1};
std::atomic<std::uint64_t> g_next_thread_token{1};
thread_local std::uint64_t t_thread_token = 0;  ///< 0 until first claim

}  // namespace

LaneClaims::LaneClaims()
    : uid_(g_next_owner_uid.fetch_add(1, std::memory_order_relaxed)),
      owners_{} {}

std::uint32_t LaneClaims::claim(Cache& cache) noexcept {
  if (t_thread_token == 0)
    t_thread_token =
        g_next_thread_token.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t token = t_thread_token;
  // Lanes are claimed in index order and never given back, so the claimed
  // ones form a prefix: this thread's lane, if it has one, comes before
  // the first unclaimed lane. Relaxed is enough — the owner word only
  // routes threads; the owner publishes the lane's data by its own means.
  std::uint32_t lane = 0;
  for (; lane < kLanes; ++lane) {
    std::uint64_t owner = owners_[lane].load(std::memory_order_relaxed);
    if (owner == token) break;
    if (owner == 0 && owners_[lane].compare_exchange_strong(
                          owner, token, std::memory_order_relaxed))
      break;
  }
  const bool exclusive = lane < kLanes;
  // Every lane taken: share one.
  if (!exclusive) lane = static_cast<std::uint32_t>(token % kLanes);
  cache = Cache{uid_, lane, exclusive};
  return lane;
}

}  // namespace ubac::util
