#include "routing/candidate_set.hpp"

#include <stdexcept>

#include "net/ksp.hpp"

namespace ubac::routing::detail {

CandidateSet::CandidateSet(
    const net::ServerGraph& graph, const std::vector<traffic::Demand>& demands,
    std::size_t k, const std::vector<std::vector<net::NodePath>>* cache) {
  if (k == 0)
    throw std::invalid_argument("heuristic: candidates_per_pair must be >= 1");
  if (cache != nullptr && cache->size() != demands.size())
    throw std::invalid_argument(
        "heuristic: candidate cache misaligned with demands");
  const auto add_row = [&](const std::vector<net::NodePath>& paths) {
    for (const net::NodePath& path : paths) {
      const net::ServerPath servers = graph.map_path(path);
      nodes_.insert(nodes_.end(), path.begin(), path.end());
      servers_.insert(servers_.end(), servers.begin(), servers.end());
      node_begin_.push_back(nodes_.size());
      server_begin_.push_back(servers_.size());
    }
    first_.push_back(node_begin_.size() - 1);
  };
  first_.reserve(demands.size() + 1);
  for (std::size_t d = 0; d < demands.size(); ++d) {
    if (cache != nullptr)
      add_row((*cache)[d]);
    else
      add_row(net::k_shortest_paths(graph.topology(), demands[d].src,
                                    demands[d].dst, k));
  }
}

}  // namespace ubac::routing::detail
