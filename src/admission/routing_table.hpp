#pragma once

/// \file routing_table.hpp
/// \brief Configured (src, dst, class) -> route lookup for run time.
///
/// Configuration produces one route per demand; at run time the admission
/// controller only needs to look the route up and test utilization along
/// it — no path computation, no per-flow analysis.

#include <optional>
#include <unordered_map>
#include <vector>

#include "net/path.hpp"
#include "traffic/flow.hpp"

namespace ubac::admission {

class RoutingTable {
 public:
  RoutingTable() = default;

  /// Build from aligned demand/route vectors (a RouteSelectionResult).
  RoutingTable(const std::vector<traffic::Demand>& demands,
               const std::vector<net::ServerPath>& routes);

  void set(const traffic::Demand& demand, net::ServerPath route);

  /// Route for a demand, if configured.
  std::optional<net::ServerPath> lookup(net::NodeId src, net::NodeId dst,
                                        std::size_t class_index) const;

  /// Visit every configured entry as (src, dst, class, route). Route
  /// references stay valid for the table's lifetime as long as set() is
  /// not called again (controllers own an immutable copy and build their
  /// dense route index from it at construction).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& [packed, route] : table_)
      fn(static_cast<net::NodeId>((packed >> 24) & 0xFFFFFFu),
         static_cast<net::NodeId>(packed & 0xFFFFFFu),
         static_cast<std::size_t>(packed >> 48), route);
  }

  std::size_t size() const { return table_.size(); }

 private:
  /// Collision-free packing: class in the top 16 bits, src/dst in 24 each.
  static std::uint64_t key(net::NodeId src, net::NodeId dst,
                           std::size_t class_index);

  std::unordered_map<std::uint64_t, net::ServerPath> table_;
};

}  // namespace ubac::admission
