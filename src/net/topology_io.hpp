#pragma once

/// \file topology_io.hpp
/// \brief Text serialization of topologies.
///
/// Format (line oriented, '#' comments):
///   topology <name>
///   node <name>
///   link <nodeA> <nodeB> <capacity_bps>      # duplex
///   simplex <nodeA> <nodeB> <capacity_bps>   # one direction only

#include <string>

#include "net/graph.hpp"

namespace ubac::net {

/// Serialize to the text format above. Duplex pairs added via
/// add_duplex_link round-trip as `link` lines; lone directions as `simplex`.
std::string to_text(const Topology& topo);

/// Parse the text format strictly: each line is exactly one directive with
/// its arguments, the `topology` line (if any) comes before every `node`
/// line, and node names and links must be unique and loop-free. Throws
/// std::runtime_error with a line number on any malformed input.
Topology from_text(const std::string& text);

}  // namespace ubac::net
