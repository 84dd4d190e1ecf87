#include "net/topology_io.hpp"

#include <cmath>
#include <cstdio>
#include <set>
#include <sstream>
#include <stdexcept>

namespace ubac::net {

std::string to_text(const Topology& topo) {
  std::ostringstream out;
  out << "topology " << topo.name() << "\n";
  for (NodeId n = 0; n < topo.node_count(); ++n)
    out << "node " << topo.node_name(n) << "\n";
  std::set<LinkId> emitted;
  char buf[64];
  for (LinkId id = 0; id < topo.link_count(); ++id) {
    if (emitted.count(id)) continue;
    const DirectedLink& l = topo.link(id);
    const auto reverse = topo.find_link(l.to, l.from);
    std::snprintf(buf, sizeof(buf), "%.17g", l.capacity);
    if (reverse && topo.link(*reverse).capacity == l.capacity) {
      out << "link " << topo.node_name(l.from) << " " << topo.node_name(l.to)
          << " " << buf << "\n";
      emitted.insert(*reverse);
    } else {
      out << "simplex " << topo.node_name(l.from) << " "
          << topo.node_name(l.to) << " " << buf << "\n";
    }
    emitted.insert(id);
  }
  return out.str();
}

Topology from_text(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  Topology topo;
  bool named = false;

  auto fail = [&](const std::string& msg) {
    throw std::runtime_error("topology parse error at line " +
                             std::to_string(line_no) + ": " + msg);
  };
  auto node_or_fail = [&](const std::string& name) {
    const auto id = topo.find_node(name);
    if (!id) fail("unknown node '" + name + "'");
    return *id;
  };

  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream ls(line);
    std::string kind;
    if (!(ls >> kind)) continue;  // blank line
    // Topology's own checks (duplicate node or link, self-loop) throw
    // invalid_argument; report them as parse errors with the line.
    try {
      if (kind == "topology") {
        std::string name;
        if (!(ls >> name)) fail("topology needs a name");
        if (named) fail("duplicate topology line");
        if (topo.node_count() != 0) fail("topology line after node lines");
        topo = Topology(name);
        named = true;
      } else if (kind == "node") {
        std::string name;
        if (!(ls >> name)) fail("node needs a name");
        topo.add_node(name);
      } else if (kind == "link" || kind == "simplex") {
        std::string a, b;
        double cap = 0.0;
        if (!(ls >> a >> b >> cap)) fail(kind + " needs: <a> <b> <capacity>");
        if (!(cap > 0.0) || !std::isfinite(cap))
          fail("capacity must be positive and finite");
        const NodeId na = node_or_fail(a);
        const NodeId nb = node_or_fail(b);
        if (kind == "link")
          topo.add_duplex_link(na, nb, cap);
        else
          topo.add_simplex_link(na, nb, cap);
      } else {
        fail("unknown directive '" + kind + "'");
      }
    } catch (const std::invalid_argument& e) {
      fail(e.what());
    }
    std::string extra;
    if (ls >> extra) fail("unexpected trailing token '" + extra + "'");
  }
  return topo;
}

}  // namespace ubac::net
