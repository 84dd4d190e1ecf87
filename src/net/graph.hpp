#pragma once

/// \file graph.hpp
/// \brief Router-level network topology.
///
/// Following Section 3 of the paper, the network is a set of routers
/// connected by links. Links are directed internally (a duplex link is two
/// directed links) because queueing happens per *output* link: each
/// directed link later becomes one "link server" (see server_graph.hpp).

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/units.hpp"

namespace ubac::net {

using NodeId = std::uint32_t;
using LinkId = std::uint32_t;

/// One directed link (an output link of router `from`).
struct DirectedLink {
  NodeId from;
  NodeId to;
  BitsPerSecond capacity;
};

/// Mutable router-level topology. NodeIds and LinkIds are dense indices
/// assigned in insertion order, which keeps all algorithms deterministic.
class Topology {
 public:
  explicit Topology(std::string name = "unnamed") : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// Add a router; names must be unique and non-empty.
  NodeId add_node(const std::string& name);

  /// Add a pair of directed links a->b and b->a with the same capacity.
  /// Returns the two LinkIds. Throws on self-loops or duplicate links.
  std::pair<LinkId, LinkId> add_duplex_link(NodeId a, NodeId b,
                                            BitsPerSecond capacity);

  /// Add a single directed link a->b. Throws on self-loop or duplicate.
  LinkId add_simplex_link(NodeId a, NodeId b, BitsPerSecond capacity);

  std::size_t node_count() const { return node_names_.size(); }
  std::size_t link_count() const { return links_.size(); }

  const DirectedLink& link(LinkId id) const { return links_.at(id); }
  const std::string& node_name(NodeId id) const { return node_names_.at(id); }

  /// Look up a node by name; empty when absent.
  std::optional<NodeId> find_node(const std::string& name) const;

  /// Directed link a->b, if present.
  std::optional<LinkId> find_link(NodeId a, NodeId b) const;

  /// Outgoing links of a node (LinkIds, ascending).
  const std::vector<LinkId>& out_links(NodeId node) const {
    return out_links_.at(node);
  }
  /// Incoming links of a node (LinkIds, ascending).
  const std::vector<LinkId>& in_links(NodeId node) const {
    return in_links_.at(node);
  }

  std::size_t out_degree(NodeId node) const { return out_links_.at(node).size(); }
  std::size_t in_degree(NodeId node) const { return in_links_.at(node).size(); }

  /// Neighbors reachable over one outgoing link, ascending NodeId order.
  /// Kept sorted as links are added, so the BFS kernels read it in place.
  const std::vector<NodeId>& neighbors(NodeId node) const {
    return neighbors_.at(node);
  }

  /// Maximum in-degree over all routers (the paper's N when links are
  /// duplex and degree-regularity is assumed).
  std::size_t max_in_degree() const;

  void check_node(NodeId id) const {
    if (id >= node_names_.size()) throw std::out_of_range("bad NodeId");
  }

 private:
  std::string name_;
  std::vector<std::string> node_names_;
  std::unordered_map<std::string, NodeId> name_index_;
  std::vector<DirectedLink> links_;
  std::vector<std::vector<LinkId>> out_links_;
  std::vector<std::vector<LinkId>> in_links_;
  std::vector<std::vector<NodeId>> neighbors_;  // sorted out-neighbors
  std::unordered_map<std::uint64_t, LinkId> link_index_;  // (from<<32)|to

  static std::uint64_t key(NodeId a, NodeId b) {
    return (static_cast<std::uint64_t>(a) << 32) | b;
  }
};

}  // namespace ubac::net
