#include "util/lane_claims.hpp"

#include <atomic>
#include <vector>

namespace ubac::util {

namespace detail {

struct LaneBoard {
  /// Token of the thread holding each lane; 0 while free. Claimed with an
  /// acquire CAS and handed back with a release store, so each holder
  /// starts from everything the previous one wrote into the lane.
  std::atomic<std::uint64_t> holders[LaneClaims::kLanes] = {};
  /// Set when the owner is destroyed: nobody reads the lanes any more.
  std::atomic<bool> retired{false};
};

}  // namespace detail

namespace {

std::atomic<std::uint64_t> g_next_owner_uid{1};
std::atomic<std::uint64_t> g_next_thread_token{1};
thread_local std::uint64_t t_thread_token = 0;  ///< 0 until first claim
/// Set once this thread's claims were handed back; from then on it only
/// takes shared claims. Trivially destructible, so it stays readable from
/// destructors that run after the holdings below.
thread_local bool t_handed_back = false;

/// The exclusive claims one thread holds, handed back when it exits.
struct Holdings {
  struct Held {
    std::uint64_t owner;
    std::shared_ptr<detail::LaneBoard> board;
    std::uint32_t lane;
    LaneClaims::Cache* cache;  ///< last cache filled with this claim
  };
  std::vector<Held> held;

  ~Holdings() {
    t_handed_back = true;
    for (Held& h : held) {
      if (h.board->retired.load(std::memory_order_acquire)) continue;
      // A later write through this cache must not hit the lane it no
      // longer holds.
      if (h.cache->owner == h.owner) *h.cache = LaneClaims::Cache{};
      h.board->holders[h.lane].store(0, std::memory_order_release);
    }
  }
};

thread_local Holdings t_holdings;

}  // namespace

LaneClaims::LaneClaims()
    : uid_(g_next_owner_uid.fetch_add(1, std::memory_order_relaxed)),
      board_(std::make_shared<detail::LaneBoard>()) {}

LaneClaims::~LaneClaims() {
  board_->retired.store(true, std::memory_order_release);
}

std::size_t LaneClaims::claimed() const noexcept {
  std::size_t n = 0;
  for (const auto& holder : board_->holders)
    n += holder.load(std::memory_order_relaxed) != 0;
  return n;
}

std::uint32_t LaneClaims::claim(Cache& cache) noexcept {
  if (t_thread_token == 0)
    t_thread_token =
        g_next_thread_token.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t token = t_thread_token;
  // Shared claim: hashed onto a lane for own(), the overflow lane for
  // own_exclusive().
  cache = Cache{uid_, static_cast<std::uint32_t>(token % kLanes), false};
  if (t_handed_back) return cache.lane;

  auto& held = t_holdings.held;
  // Claims on owners destroyed since are dropped here, on a miss.
  std::erase_if(held, [](const Holdings::Held& h) {
    return h.board->retired.load(std::memory_order_relaxed);
  });
  for (Holdings::Held& h : held)
    if (h.owner == uid_) {
      h.cache = &cache;
      cache = Cache{uid_, h.lane, true};
      return h.lane;
    }
  // The lowest free lane. Acquire pairs with the previous holder's
  // handback, so the lane's data is ours to continue from.
  for (std::uint32_t lane = 0; lane < kLanes; ++lane) {
    std::uint64_t holder = board_->holders[lane].load(std::memory_order_relaxed);
    if (holder == 0 && board_->holders[lane].compare_exchange_strong(
                           holder, token, std::memory_order_acquire,
                           std::memory_order_relaxed)) {
      try {
        held.push_back(Holdings::Held{uid_, board_, lane, &cache});
      } catch (...) {  // out of memory: a claim nobody hands back leaks
        board_->holders[lane].store(0, std::memory_order_release);
        return cache.lane;
      }
      cache = Cache{uid_, lane, true};
      return lane;
    }
  }
  return cache.lane;  // every lane taken: share
}

}  // namespace ubac::util
