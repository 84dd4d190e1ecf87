#pragma once

/// \file cycle_check.hpp
/// \brief Route dependency graph and acyclicity test (heuristic rule 2).
///
/// Section 5.2: candidate routes are preferred when they form a noncyclic
/// graph with the existing routes, because cycles feed queueing delay back
/// on itself and inflate the fixed point. The dependency graph has one
/// node per link server and a directed edge a->b whenever some committed
/// route visits server a immediately before server b.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "net/path.hpp"

namespace ubac::routing {

/// Incremental dependency graph over `server_count` link servers.
/// Adjacency (which doubles as the edge set: a link server's out-degree is
/// small) and in-degrees are maintained across add_route calls, along
/// with a topological order of the committed graph (the one its last Kahn
/// pass produced). A query whose new edges all run forward in that order
/// is accepted without a pass; otherwise it costs one Kahn pass over
/// preallocated scratch.
class RouteDependencyGraph {
 public:
  explicit RouteDependencyGraph(std::size_t server_count);

  /// Register a committed route's consecutive-server edges.
  void add_route(const net::ServerPath& route);

  /// Would the graph stay acyclic after adding this route's edges?
  /// (Does not modify the graph.)
  bool stays_acyclic(std::span<const net::ServerId> route) const;

  /// Is the current graph acyclic?
  bool is_acyclic() const { return acyclic_; }

  std::size_t edge_count() const { return edge_count_; }

 private:
  using Edge = std::pair<net::ServerId, net::ServerId>;

  /// Kahn over the committed graph plus `extra` edges (already absent from
  /// the committed edge set). On success scratch_ready_ holds every server
  /// in a topological order of the union.
  bool acyclic_with(const std::vector<Edge>& extra) const;

  bool has_edge(const Edge& e) const {
    const auto& out = adj_[e.first];
    return std::find(out.begin(), out.end(), e.second) != out.end();
  }

  /// Does `e` run forward in the recorded topological order?
  bool forward(const Edge& e) const {
    return position_[e.first] < position_[e.second];
  }

  std::size_t server_count_;
  std::size_t edge_count_ = 0;
  std::vector<std::vector<net::ServerId>> adj_;
  std::vector<int> in_degree_;
  /// Rank of each server in a topological order of the committed graph
  /// (meaningful while acyclic_).
  std::vector<std::uint32_t> position_;
  bool acyclic_ = true;

  // Query scratch, reused across calls (single-threaded callers only).
  mutable std::vector<int> scratch_degree_;
  mutable std::vector<net::ServerId> scratch_ready_;
  mutable std::vector<Edge> scratch_extra_;
};

}  // namespace ubac::routing
