#include "admission/routing_table.hpp"

#include <stdexcept>

namespace ubac::admission {

std::uint64_t RoutingTable::key(net::NodeId src, net::NodeId dst,
                                std::size_t class_index) {
  if (src >= (1u << 24) || dst >= (1u << 24) || class_index >= (1u << 16))
    throw std::invalid_argument("RoutingTable: id out of packing range");
  return (static_cast<std::uint64_t>(class_index) << 48) |
         (static_cast<std::uint64_t>(src) << 24) |
         static_cast<std::uint64_t>(dst);
}

RoutingTable::RoutingTable(const std::vector<traffic::Demand>& demands,
                           const std::vector<net::ServerPath>& routes) {
  if (demands.size() != routes.size())
    throw std::invalid_argument("RoutingTable: demands/routes mismatch");
  for (std::size_t i = 0; i < demands.size(); ++i)
    set(demands[i], routes[i]);
}

void RoutingTable::set(const traffic::Demand& demand, net::ServerPath route) {
  if (route.empty())
    throw std::invalid_argument("RoutingTable: empty route");
  table_[key(demand.src, demand.dst, demand.class_index)] = std::move(route);
}

std::optional<net::ServerPath> RoutingTable::lookup(
    net::NodeId src, net::NodeId dst, std::size_t class_index) const {
  const auto it = table_.find(key(src, dst, class_index));
  if (it == table_.end()) return std::nullopt;
  return it->second;
}

}  // namespace ubac::admission
