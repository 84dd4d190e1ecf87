#include "net/ksp.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

namespace ubac::net {

namespace {

/// A path held in the per-call node arena: arena[begin, begin + size).
struct Slice {
  std::uint32_t begin;
  std::uint32_t size;
};

/// Breadth-first search state shared by every search of one call. A node
/// counts as seen when its stamp equals the current epoch, so starting a
/// new search is one increment instead of clearing per-search arrays.
class SpurSearch {
 public:
  explicit SpurSearch(std::size_t nodes)
      : stamp_(nodes, 0), parent_(nodes, 0) {
    frontier_.reserve(nodes);
  }

  /// Start a new search with every node unseen.
  void reset() { ++epoch_; }

  /// Exclude a node from the current search.
  void block(NodeId v) { stamp_[v] = epoch_; }

  /// Hop-count shortest path src->dst over unblocked nodes whose first hop
  /// is not in `banned_first`. Same discovery order as shortest_path():
  /// FIFO frontier, ascending neighbor ids, stop when dst is first
  /// reached, so ties go to the lowest ids. Appends the nodes after src to
  /// `out`; false (nothing appended) when dst is unreachable.
  bool run(const Topology& topo, NodeId src, NodeId dst,
           const std::vector<NodeId>& banned_first, std::vector<NodeId>& out) {
    stamp_[src] = epoch_;
    frontier_.assign(1, src);
    for (std::size_t head = 0; head < frontier_.size(); ++head) {
      const NodeId u = frontier_[head];
      for (const NodeId v : topo.neighbors(u)) {
        if (stamp_[v] == epoch_) continue;
        if (u == src && std::find(banned_first.begin(), banned_first.end(),
                                  v) != banned_first.end())
          continue;
        stamp_[v] = epoch_;
        parent_[v] = u;
        if (v == dst) {
          const std::size_t mark = out.size();
          for (NodeId cur = dst; cur != src; cur = parent_[cur])
            out.push_back(cur);
          std::reverse(out.begin() + static_cast<long>(mark), out.end());
          return true;
        }
        frontier_.push_back(v);
      }
    }
    return false;
  }

 private:
  std::vector<std::uint32_t> stamp_;
  std::vector<NodeId> parent_;
  std::vector<NodeId> frontier_;
  std::uint32_t epoch_ = 0;
};

}  // namespace

std::vector<NodePath> k_shortest_paths(const Topology& topo, NodeId src,
                                       NodeId dst, std::size_t k) {
  topo.check_node(src);
  topo.check_node(dst);
  if (src == dst) throw std::invalid_argument("k_shortest_paths: src == dst");
  if (k == 0) throw std::invalid_argument("k_shortest_paths: k must be >= 1");

  SpurSearch search(topo.node_count());
  std::vector<NodeId> arena{src};  // every path of the call, back to back
  search.reset();
  if (!search.run(topo, src, dst, {}, arena)) return {};

  const auto slice_begin = [&](Slice s) { return arena.begin() + s.begin; };
  // (hop count, lexicographic node sequence), the order results come in.
  const auto shorter = [&](Slice a, Slice b) {
    if (a.size != b.size) return a.size < b.size;
    return std::lexicographical_compare(slice_begin(a),
                                        slice_begin(a) + a.size,
                                        slice_begin(b),
                                        slice_begin(b) + b.size);
  };
  const auto longer = [&](Slice a, Slice b) { return shorter(b, a); };

  std::vector<Slice> found{{0, static_cast<std::uint32_t>(arena.size())}};
  // Candidate pool, sorted longest first so the next result is at the back.
  std::vector<Slice> pool;
  std::vector<Slice> sharing;
  std::vector<NodeId> prev, banned_first;

  while (found.size() < k) {
    prev.assign(slice_begin(found.back()),
                slice_begin(found.back()) + found.back().size);
    // Found and pooled paths that share the root prev[0..i] and continue
    // past it. Every path starts at src, so at i = 0 that is all of them;
    // each later spur keeps those that also agree on prev[i]. Paths pooled
    // during this sweep leave prev at the hop after their spur, so they
    // never share a later root and need not join.
    sharing = found;
    sharing.insert(sharing.end(), pool.begin(), pool.end());
    for (std::size_t i = 0; i + 1 < prev.size(); ++i) {
      if (i > 0)
        std::erase_if(sharing, [&](Slice p) {
          return p.size <= i + 1 || arena[p.begin + i] != prev[i];
        });
      // Every banned link leaves the spur node, so it reduces to the
      // banned first hops of the spur search.
      banned_first.clear();
      for (const Slice p : sharing)
        banned_first.push_back(arena[p.begin + i + 1]);

      search.reset();
      for (std::size_t j = 0; j < i; ++j) search.block(prev[j]);
      const std::size_t start = arena.size();
      arena.insert(arena.end(), prev.begin(),
                   prev.begin() + static_cast<long>(i) + 1);
      if (!search.run(topo, prev[i], dst, banned_first, arena)) {
        arena.resize(start);
        continue;
      }
      // The spur path's first hop differs from every found path sharing
      // the root, so the total is never already found.
      const Slice total{static_cast<std::uint32_t>(start),
                        static_cast<std::uint32_t>(arena.size() - start)};
      const auto at = std::lower_bound(pool.begin(), pool.end(), total, longer);
      if (at != pool.end() && !shorter(*at, total)) {
        arena.resize(start);  // already pooled
        continue;
      }
      pool.insert(at, total);
    }
    if (pool.empty()) break;
    found.push_back(pool.back());
    pool.pop_back();
  }

  std::vector<NodePath> result;
  result.reserve(found.size());
  for (const Slice s : found)
    result.emplace_back(slice_begin(s), slice_begin(s) + s.size);
  return result;
}

}  // namespace ubac::net
