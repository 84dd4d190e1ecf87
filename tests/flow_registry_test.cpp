// Differential test of the registry lanes' flat flow map against
// std::unordered_map: random inserts, erases (live and absent ids) and
// finds must agree step for step, and a drained map must give its memory
// back (shrink on erase).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <unordered_map>
#include <vector>

#include "admission/flow_registry.hpp"
#include "util/rng.hpp"

namespace ubac::admission {
namespace {

TEST(FlowShardMap, MatchesUnorderedMapAndShrinksAfterDrain) {
  FlowShardMap map;
  const std::size_t initial_capacity = map.capacity();
  std::unordered_map<traffic::FlowId, std::uint32_t> want;
  std::vector<traffic::FlowId> live;
  util::Xoshiro256 rng(0xF10A);
  // Ids as the controller issues them: lane bits on top, a per-lane
  // sequence below, never reused.
  std::array<traffic::FlowId, 16> next{};
  for (std::size_t l = 0; l < next.size(); ++l)
    next[l] = static_cast<traffic::FlowId>(l) << 48;

  const auto check_find = [&](traffic::FlowId id) {
    const FlowRecord* got = map.find(id);
    const auto it = want.find(id);
    ASSERT_EQ(got != nullptr, it != want.end()) << "id " << id;
    if (got != nullptr) {
      ASSERT_EQ(got->id, id);
      ASSERT_EQ(got->cell, it->second);
    }
  };

  std::size_t peak_capacity = 0;
  for (int step = 0; step < 200'000; ++step) {
    // Grow for the first half, shrink for the second.
    const double p_insert = step < 100'000 ? 0.7 : 0.3;
    const std::uint64_t roll = rng.uniform_index(100);
    if (live.empty() || roll < p_insert * 100) {
      const traffic::FlowId id = ++next[rng.uniform_index(next.size())];
      const auto cell = static_cast<std::uint32_t>(rng.uniform_index(1 << 22));
      map.insert(FlowRecord{id, cell});
      want.emplace(id, cell);
      live.push_back(id);
    } else if (roll < 95) {
      const auto pos = rng.uniform_index(live.size());
      const traffic::FlowId id = live[pos];
      live[pos] = live.back();
      live.pop_back();
      FlowRecord out;
      ASSERT_TRUE(map.erase(id, out));
      ASSERT_EQ(out.id, id);
      ASSERT_EQ(out.cell, want.at(id));
      want.erase(id);
      ASSERT_FALSE(map.erase(id, out)) << "double erase of " << id;
    } else {
      // An id never issued (sequence past every lane's counter).
      const traffic::FlowId absent =
          next[rng.uniform_index(next.size())] + 1 + rng.uniform_index(8);
      FlowRecord out;
      ASSERT_FALSE(map.erase(absent, out));
      check_find(absent);
    }
    ASSERT_EQ(map.size(), want.size());
    if (!live.empty()) check_find(live[rng.uniform_index(live.size())]);
    peak_capacity = std::max(peak_capacity, map.capacity());
  }

  std::size_t visited = 0;
  map.for_each([&](const FlowRecord& record) {
    ++visited;
    ASSERT_EQ(want.at(record.id), record.cell);
  });
  EXPECT_EQ(visited, want.size());

  // The reserved slot markers never match.
  EXPECT_EQ(map.find(0), nullptr);
  EXPECT_EQ(map.find(FlowShardMap::kTombstone), nullptr);

  // Drain: the array shrinks back to its initial size.
  EXPECT_GT(peak_capacity, 64 * initial_capacity);
  for (const traffic::FlowId id : live) {
    FlowRecord out;
    ASSERT_TRUE(map.erase(id, out));
    ASSERT_LE(map.capacity(), std::max(initial_capacity, 16 * map.size()));
  }
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.capacity(), initial_capacity);
  // Still a working map after the shrink.
  map.insert(FlowRecord{next[3] + 1, 7});
  ASSERT_NE(map.find(next[3] + 1), nullptr);
  EXPECT_EQ(map.find(next[3] + 1)->cell, 7u);
}

}  // namespace
}  // namespace ubac::admission
