#include "net/graph.hpp"

#include <algorithm>

namespace ubac::net {

NodeId Topology::add_node(const std::string& name) {
  if (name.empty()) throw std::invalid_argument("node name must be non-empty");
  if (name_index_.count(name))
    throw std::invalid_argument("duplicate node name: " + name);
  const auto id = static_cast<NodeId>(node_names_.size());
  node_names_.push_back(name);
  name_index_[name] = id;
  out_links_.emplace_back();
  in_links_.emplace_back();
  neighbors_.emplace_back();
  return id;
}

LinkId Topology::add_simplex_link(NodeId a, NodeId b, BitsPerSecond capacity) {
  check_node(a);
  check_node(b);
  if (a == b) throw std::invalid_argument("self-loop link");
  if (capacity <= 0.0) throw std::invalid_argument("non-positive capacity");
  if (link_index_.count(key(a, b)))
    throw std::invalid_argument("duplicate link " + node_names_[a] + "->" +
                                node_names_[b]);
  const auto id = static_cast<LinkId>(links_.size());
  links_.push_back(DirectedLink{a, b, capacity});
  out_links_[a].push_back(id);
  in_links_[b].push_back(id);
  auto& adjacent = neighbors_[a];
  adjacent.insert(std::upper_bound(adjacent.begin(), adjacent.end(), b), b);
  link_index_[key(a, b)] = id;
  return id;
}

std::pair<LinkId, LinkId> Topology::add_duplex_link(NodeId a, NodeId b,
                                                    BitsPerSecond capacity) {
  const LinkId ab = add_simplex_link(a, b, capacity);
  const LinkId ba = add_simplex_link(b, a, capacity);
  return {ab, ba};
}

std::optional<NodeId> Topology::find_node(const std::string& name) const {
  const auto it = name_index_.find(name);
  if (it == name_index_.end()) return std::nullopt;
  return it->second;
}

std::optional<LinkId> Topology::find_link(NodeId a, NodeId b) const {
  const auto it = link_index_.find(key(a, b));
  if (it == link_index_.end()) return std::nullopt;
  return it->second;
}

std::size_t Topology::max_in_degree() const {
  std::size_t best = 0;
  for (const auto& in : in_links_) best = std::max(best, in.size());
  return best;
}

}  // namespace ubac::net
