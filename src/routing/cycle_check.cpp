#include "routing/cycle_check.hpp"

#include <numeric>

namespace ubac::routing {

RouteDependencyGraph::RouteDependencyGraph(std::size_t server_count)
    : server_count_(server_count),
      adj_(server_count),
      in_degree_(server_count, 0),
      position_(server_count) {
  // With no edges, any order is topological.
  std::iota(position_.begin(), position_.end(), 0u);
}

void RouteDependencyGraph::add_route(const net::ServerPath& route) {
  bool ordered = true;
  for (std::size_t i = 0; i + 1 < route.size(); ++i) {
    const Edge e{route[i], route[i + 1]};
    if (!has_edge(e)) {
      adj_[e.first].push_back(e.second);
      ++edge_count_;
      ++in_degree_[e.second];
      ordered = ordered && forward(e);
    }
  }
  // New edges can only create cycles, never break one; an already-cyclic
  // graph keeps its verdict, and new edges that all run forward keep the
  // recorded order topological, so only a backward edge needs a pass.
  if (!acyclic_ || ordered) return;
  acyclic_ = acyclic_with({});
  if (acyclic_)
    for (std::size_t rank = 0; rank < scratch_ready_.size(); ++rank)
      position_[scratch_ready_[rank]] = static_cast<std::uint32_t>(rank);
}

bool RouteDependencyGraph::stays_acyclic(
    std::span<const net::ServerId> route) const {
  if (!acyclic_) return false;
  scratch_extra_.clear();
  bool ordered = true;
  for (std::size_t i = 0; i + 1 < route.size(); ++i) {
    const Edge e{route[i], route[i + 1]};
    if (has_edge(e)) continue;
    scratch_extra_.push_back(e);
    ordered = ordered && forward(e);
  }
  // The recorded order is topological for the committed graph; when every
  // new edge runs forward in it (or there is none), it is a topological
  // order of the union too, so the union is acyclic.
  if (ordered) return true;
  // A route may repeat an edge only through a repeated node pair, which
  // would be a self-cycle anyway; duplicates in `extra` just double an
  // in-degree and are undone below, so no dedup is needed.
  return acyclic_with(scratch_extra_);
}

bool RouteDependencyGraph::acyclic_with(const std::vector<Edge>& extra) const {
  scratch_degree_.assign(in_degree_.begin(), in_degree_.end());
  for (const auto& e : extra) ++scratch_degree_[e.second];

  scratch_ready_.clear();
  for (std::size_t v = 0; v < server_count_; ++v)
    if (scratch_degree_[v] == 0)
      scratch_ready_.push_back(static_cast<net::ServerId>(v));

  // Kahn over committed adjacency + extra edges; scratch_ready_ doubles as
  // the work queue and the processed list.
  std::size_t head = 0;
  while (head < scratch_ready_.size()) {
    const net::ServerId v = scratch_ready_[head++];
    for (const net::ServerId w : adj_[v])
      if (--scratch_degree_[w] == 0) scratch_ready_.push_back(w);
    for (const auto& e : extra)
      if (e.first == v && --scratch_degree_[e.second] == 0)
        scratch_ready_.push_back(e.second);
  }
  return head == server_count_;
}

}  // namespace ubac::routing
