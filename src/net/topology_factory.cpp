#include "net/topology_factory.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace ubac::net {

Topology mci_backbone(BitsPerSecond capacity) {
  Topology topo("mci-backbone");
  const char* cities[] = {
      "Seattle",      "Sacramento", "SanFrancisco", "LosAngeles",
      "SaltLakeCity", "Phoenix",    "Denver",       "Dallas",
      "Houston",      "NewOrleans", "KansasCity",   "Chicago",
      "StLouis",      "Atlanta",    "Miami",        "WashingtonDC",
      "NewYork",      "Boston",     "Cleveland"};
  for (const char* city : cities) topo.add_node(city);

  // 39 duplex links; verified by tests/net_test.cpp to give diameter 4 and
  // max degree 6 (the invariants the paper states for Fig. 4).
  const std::pair<int, int> edges[] = {
      {0, 2},   {0, 4},   {0, 11},            // Seattle
      {1, 2},   {1, 3},   {1, 4},   {1, 6},   // Sacramento
      {2, 3},                                 // SanFrancisco
      {3, 5},   {3, 6},   {3, 7},   {3, 13},  // LosAngeles
      {4, 6},   {4, 10},                      // SaltLakeCity
      {5, 7},                                 // Phoenix
      {6, 10},  {6, 11},                      // Denver
      {7, 8},   {7, 10},  {7, 12},  {7, 13},  // Dallas
      {8, 9},                                 // Houston
      {9, 14},                                // NewOrleans
      {10, 11}, {10, 12},                     // KansasCity
      {11, 13}, {11, 16}, {11, 18},           // Chicago
      {12, 13}, {12, 15}, {12, 18},           // StLouis
      {13, 14}, {13, 15},                     // Atlanta
      {14, 15},                               // Miami
      {15, 16}, {15, 18},                     // WashingtonDC
      {16, 17}, {16, 18},                     // NewYork
      {17, 18},                               // Boston-Cleveland
  };
  for (const auto& [a, b] : edges)
    topo.add_duplex_link(static_cast<NodeId>(a), static_cast<NodeId>(b),
                         capacity);
  return topo;
}

Topology ring(std::size_t n, BitsPerSecond capacity) {
  if (n < 3) throw std::invalid_argument("ring: need n >= 3");
  Topology topo("ring-" + std::to_string(n));
  for (std::size_t i = 0; i < n; ++i) topo.add_node("r" + std::to_string(i));
  for (std::size_t i = 0; i < n; ++i)
    topo.add_duplex_link(static_cast<NodeId>(i),
                         static_cast<NodeId>((i + 1) % n), capacity);
  return topo;
}

Topology line(std::size_t n, BitsPerSecond capacity) {
  if (n < 2) throw std::invalid_argument("line: need n >= 2");
  Topology topo("line-" + std::to_string(n));
  for (std::size_t i = 0; i < n; ++i) topo.add_node("r" + std::to_string(i));
  for (std::size_t i = 0; i + 1 < n; ++i)
    topo.add_duplex_link(static_cast<NodeId>(i), static_cast<NodeId>(i + 1),
                         capacity);
  return topo;
}

Topology star(std::size_t leaves, BitsPerSecond capacity) {
  if (leaves < 2) throw std::invalid_argument("star: need leaves >= 2");
  Topology topo("star-" + std::to_string(leaves));
  const NodeId hub = topo.add_node("hub");
  for (std::size_t i = 0; i < leaves; ++i) {
    const NodeId leaf = topo.add_node("leaf" + std::to_string(i));
    topo.add_duplex_link(hub, leaf, capacity);
  }
  return topo;
}

Topology full_mesh(std::size_t n, BitsPerSecond capacity) {
  if (n < 2) throw std::invalid_argument("full_mesh: need n >= 2");
  Topology topo("mesh-" + std::to_string(n));
  for (std::size_t i = 0; i < n; ++i) topo.add_node("r" + std::to_string(i));
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      topo.add_duplex_link(static_cast<NodeId>(i), static_cast<NodeId>(j),
                           capacity);
  return topo;
}

Topology grid(std::size_t rows, std::size_t cols, BitsPerSecond capacity) {
  if (rows < 2 || cols < 2)
    throw std::invalid_argument("grid: need rows, cols >= 2");
  Topology topo("grid-" + std::to_string(rows) + "x" + std::to_string(cols));
  auto id = [cols](std::size_t r, std::size_t c) {
    return static_cast<NodeId>(r * cols + c);
  };
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c)
      topo.add_node("r" + std::to_string(r) + "_" + std::to_string(c));
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) topo.add_duplex_link(id(r, c), id(r, c + 1), capacity);
      if (r + 1 < rows) topo.add_duplex_link(id(r, c), id(r + 1, c), capacity);
    }
  return topo;
}

Topology balanced_tree(std::size_t arity, std::size_t depth,
                       BitsPerSecond capacity) {
  if (arity < 2) throw std::invalid_argument("balanced_tree: arity >= 2");
  if (depth < 1) throw std::invalid_argument("balanced_tree: depth >= 1");
  Topology topo("tree-" + std::to_string(arity) + "x" + std::to_string(depth));
  std::vector<NodeId> frontier{topo.add_node("n0")};
  std::size_t next_label = 1;
  for (std::size_t level = 0; level < depth; ++level) {
    std::vector<NodeId> next;
    for (NodeId parent : frontier) {
      for (std::size_t c = 0; c < arity; ++c) {
        const NodeId child = topo.add_node("n" + std::to_string(next_label++));
        topo.add_duplex_link(parent, child, capacity);
        next.push_back(child);
      }
    }
    frontier = std::move(next);
  }
  return topo;
}

Topology random_connected(std::size_t n, double avg_degree,
                          std::uint64_t seed, BitsPerSecond capacity) {
  if (n < 2) throw std::invalid_argument("random_connected: need n >= 2");
  if (avg_degree < 2.0 || avg_degree > static_cast<double>(n - 1))
    throw std::invalid_argument("random_connected: bad avg_degree");
  Topology topo("random-" + std::to_string(n) + "-seed" +
                std::to_string(seed));
  for (std::size_t i = 0; i < n; ++i) topo.add_node("r" + std::to_string(i));

  util::Xoshiro256 rng(seed);
  auto add = [&](NodeId a, NodeId b) {
    if (a == b || topo.find_link(a, b)) return;
    topo.add_duplex_link(std::min(a, b), std::max(a, b), capacity);
  };

  // Random spanning tree: attach each node to a random earlier node.
  std::vector<NodeId> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<NodeId>(i);
  rng.shuffle(order);
  for (std::size_t i = 1; i < n; ++i) {
    const NodeId prev = order[rng.uniform_index(i)];
    add(order[i], prev);
  }

  // Densify up to the requested average degree.
  const auto target_links =
      static_cast<std::size_t>(avg_degree * static_cast<double>(n) / 2.0);
  std::size_t guard = 0;
  while (topo.link_count() / 2 < target_links && guard < 100 * target_links) {
    ++guard;
    const auto a = static_cast<NodeId>(rng.uniform_index(n));
    const auto b = static_cast<NodeId>(rng.uniform_index(n));
    add(a, b);
  }
  return topo;
}

}  // namespace ubac::net
