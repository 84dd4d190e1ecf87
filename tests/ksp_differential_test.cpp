// Differential test of net::k_shortest_paths against a reference Yen's
// algorithm: a per-spur BFS with allocated dist/parent/banned-node arrays,
// a std::set of banned links and a std::set candidate pool. The two must
// return identical path lists for every ordered pair and every k.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <queue>
#include <set>
#include <stdexcept>

#include "net/ksp.hpp"
#include "net/shortest_path.hpp"
#include "net/topology_factory.hpp"

namespace ubac::net {
namespace {

/// BFS shortest path that ignores banned nodes and banned directed links.
/// Deterministic lowest-NodeId tie-breaking, like shortest_path().
std::optional<NodePath> restricted_shortest_path(
    const Topology& topo, NodeId src, NodeId dst,
    const std::vector<char>& banned_node,
    const std::set<std::pair<NodeId, NodeId>>& banned_link) {
  if (banned_node[src] || banned_node[dst]) return std::nullopt;
  if (src == dst) return NodePath{src};
  std::vector<int> dist(topo.node_count(), -1);
  std::vector<NodeId> parent(topo.node_count(), 0);
  std::queue<NodeId> frontier;
  dist[src] = 0;
  frontier.push(src);
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop();
    for (NodeId v : topo.neighbors(u)) {
      if (banned_node[v] || dist[v] != -1) continue;
      if (banned_link.count({u, v})) continue;
      dist[v] = dist[u] + 1;
      parent[v] = u;
      if (v == dst) {
        NodePath path{dst};
        NodeId cur = dst;
        while (cur != src) {
          cur = parent[cur];
          path.push_back(cur);
        }
        std::reverse(path.begin(), path.end());
        return path;
      }
      frontier.push(v);
    }
  }
  return std::nullopt;
}

struct PathOrder {
  bool operator()(const NodePath& a, const NodePath& b) const {
    if (a.size() != b.size()) return a.size() < b.size();
    return a < b;
  }
};

std::vector<NodePath> reference_k_shortest_paths(const Topology& topo,
                                                 NodeId src, NodeId dst,
                                                 std::size_t k) {
  topo.check_node(src);
  topo.check_node(dst);
  if (src == dst) throw std::invalid_argument("k_shortest_paths: src == dst");
  if (k == 0) throw std::invalid_argument("k_shortest_paths: k must be >= 1");

  std::vector<NodePath> result;
  const auto first = shortest_path(topo, src, dst);
  if (!first) return result;
  result.push_back(*first);

  // Candidate pool, ordered; std::set gives dedup + deterministic min.
  std::set<NodePath, PathOrder> candidates;

  while (result.size() < k) {
    const NodePath& prev = result.back();
    // For each spur node in the last found path...
    for (std::size_t i = 0; i + 1 < prev.size(); ++i) {
      const NodeId spur = prev[i];
      const NodePath root(prev.begin(), prev.begin() + static_cast<long>(i) + 1);

      std::set<std::pair<NodeId, NodeId>> banned_link;
      for (const NodePath& p : result) {
        if (p.size() > i &&
            std::equal(root.begin(), root.end(), p.begin())) {
          if (p.size() > i + 1) banned_link.insert({p[i], p[i + 1]});
        }
      }
      for (const NodePath& p : candidates) {
        if (p.size() > i + 1 &&
            std::equal(root.begin(), root.end(), p.begin())) {
          banned_link.insert({p[i], p[i + 1]});
        }
      }

      std::vector<char> banned_node(topo.node_count(), 0);
      for (std::size_t j = 0; j < i; ++j) banned_node[prev[j]] = 1;

      const auto spur_path = restricted_shortest_path(topo, spur, dst,
                                                      banned_node, banned_link);
      if (!spur_path) continue;
      NodePath total = root;
      total.insert(total.end(), spur_path->begin() + 1, spur_path->end());
      // Skip if already selected.
      if (std::find(result.begin(), result.end(), total) == result.end())
        candidates.insert(std::move(total));
    }
    if (candidates.empty()) break;
    result.push_back(*candidates.begin());
    candidates.erase(candidates.begin());
  }
  return result;
}

constexpr std::size_t kKs[] = {1, 2, 3, 8, 16};

/// Every ordered pair at every k: returns the number of (pair, k) cases.
std::size_t expect_same_as_reference(const Topology& topo) {
  std::size_t cases = 0;
  for (NodeId s = 0; s < topo.node_count(); ++s)
    for (NodeId d = 0; d < topo.node_count(); ++d) {
      if (s == d) continue;
      for (const std::size_t k : kKs) {
        const auto expected = reference_k_shortest_paths(topo, s, d, k);
        const auto actual = k_shortest_paths(topo, s, d, k);
        EXPECT_EQ(actual, expected)
            << topo.name() << " " << s << "->" << d << " k=" << k;
        if (actual != expected) return cases;  // one report per topology
        ++cases;
      }
    }
  return cases;
}

void expect_random_topologies_match(double avg_degree) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const Topology topo = random_connected(30, avg_degree, seed);
    EXPECT_EQ(expect_same_as_reference(topo), 30u * 29u * std::size(kKs))
        << "avg degree " << avg_degree << " seed " << seed;
  }
}

TEST(KspDifferential, RandomSparseTopologiesMatchReference) {
  expect_random_topologies_match(2.5);
}

TEST(KspDifferential, RandomMediumTopologiesMatchReference) {
  expect_random_topologies_match(3.5);
}

TEST(KspDifferential, RandomDenseTopologiesMatchReference) {
  expect_random_topologies_match(5.0);
}

TEST(KspDifferential, CannedTopologiesMatchReference) {
  for (const Topology& topo : {mci_backbone(), grid(4, 5), full_mesh(7)}) {
    const std::size_t n = topo.node_count();
    EXPECT_EQ(expect_same_as_reference(topo), n * (n - 1) * std::size(kKs))
        << topo.name();
  }
}

TEST(KspDifferential, DisconnectedPairsMatchReference) {
  Topology topo("split");
  for (const char* name : {"a", "b", "c", "d"}) topo.add_node(name);
  topo.add_duplex_link(0, 1, 1e6);
  topo.add_simplex_link(2, 3, 1e6);
  EXPECT_EQ(expect_same_as_reference(topo), 12u * std::size(kKs));
  EXPECT_TRUE(k_shortest_paths(topo, 0, 2, 4).empty());
  EXPECT_TRUE(k_shortest_paths(topo, 3, 2, 4).empty());
}

}  // namespace
}  // namespace ubac::net
