// Tests for src/net: topology construction, server graph, serialization.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/graph.hpp"
#include "net/path.hpp"
#include "net/server_graph.hpp"
#include "net/topology_factory.hpp"
#include "net/topology_io.hpp"
#include "util/rng.hpp"

namespace ubac::net {
namespace {

Topology triangle() {
  Topology t("triangle");
  const NodeId a = t.add_node("a");
  const NodeId b = t.add_node("b");
  const NodeId c = t.add_node("c");
  t.add_duplex_link(a, b, 1e6);
  t.add_duplex_link(b, c, 1e6);
  t.add_duplex_link(c, a, 1e6);
  return t;
}

TEST(Topology, NodesAndLinks) {
  const Topology t = triangle();
  EXPECT_EQ(t.node_count(), 3u);
  EXPECT_EQ(t.link_count(), 6u);  // 3 duplex = 6 directed
  EXPECT_EQ(t.node_name(0), "a");
  EXPECT_EQ(t.find_node("b").value(), 1u);
  EXPECT_FALSE(t.find_node("zzz").has_value());
  ASSERT_TRUE(t.find_link(0, 1).has_value());
  const DirectedLink& l = t.link(*t.find_link(0, 1));
  EXPECT_EQ(l.from, 0u);
  EXPECT_EQ(l.to, 1u);
  EXPECT_DOUBLE_EQ(l.capacity, 1e6);
}

TEST(Topology, DegreesAndNeighbors) {
  const Topology t = triangle();
  EXPECT_EQ(t.out_degree(0), 2u);
  EXPECT_EQ(t.in_degree(0), 2u);
  EXPECT_EQ(t.max_in_degree(), 2u);
  EXPECT_EQ(t.neighbors(0), (std::vector<NodeId>{1, 2}));
}

TEST(Topology, NeighborsStaySortedWhenLinksArriveInDescendingOrder) {
  Topology t("fan");
  for (const char* name : {"hub", "a", "b", "c", "d", "e"}) t.add_node(name);
  for (NodeId leaf = 5; leaf >= 1; --leaf) t.add_simplex_link(0, leaf, 1e6);
  t.add_simplex_link(3, 5, 1e6);
  t.add_simplex_link(3, 0, 1e6);
  t.add_simplex_link(3, 4, 1e6);
  EXPECT_EQ(t.neighbors(0), (std::vector<NodeId>{1, 2, 3, 4, 5}));
  EXPECT_EQ(t.neighbors(3), (std::vector<NodeId>{0, 4, 5}));
  EXPECT_TRUE(t.neighbors(1).empty());
  // Link ids keep insertion order; only the neighbor view is sorted.
  EXPECT_EQ(t.link(t.out_links(0).front()).to, 5u);
}

TEST(Topology, RejectsInvalidConstruction) {
  Topology t;
  const NodeId a = t.add_node("a");
  const NodeId b = t.add_node("b");
  EXPECT_THROW(t.add_node("a"), std::invalid_argument);
  EXPECT_THROW(t.add_node(""), std::invalid_argument);
  EXPECT_THROW(t.add_simplex_link(a, a, 1.0), std::invalid_argument);
  EXPECT_THROW(t.add_simplex_link(a, b, 0.0), std::invalid_argument);
  t.add_simplex_link(a, b, 1.0);
  EXPECT_THROW(t.add_simplex_link(a, b, 1.0), std::invalid_argument);
  EXPECT_THROW(t.check_node(99), std::out_of_range);
}

TEST(Path, SimplicityAndValidity) {
  const Topology t = triangle();
  EXPECT_TRUE(is_simple({0, 1, 2}));
  EXPECT_FALSE(is_simple({0, 1, 0}));
  EXPECT_TRUE(is_valid_path(t, {0, 1, 2}));
  EXPECT_FALSE(is_valid_path(t, {0, 99}));
  EXPECT_EQ(hop_count({0, 1, 2}), 2u);
  EXPECT_EQ(hop_count({0}), 0u);
  EXPECT_EQ(hop_count({}), 0u);
}

TEST(ServerGraph, OneServerPerDirectedLink) {
  const Topology t = triangle();
  const ServerGraph g(t);
  EXPECT_EQ(g.size(), t.link_count());
  for (ServerId s = 0; s < g.size(); ++s) {
    EXPECT_EQ(g.server(s).link, s);
    EXPECT_EQ(g.server(s).fan_in, 2u);  // uniform = max in-degree
    EXPECT_DOUBLE_EQ(g.server(s).capacity, 1e6);
  }
}

TEST(ServerGraph, UniformFanInOverride) {
  const Topology t = triangle();
  const ServerGraph g(t, 6u);
  EXPECT_EQ(g.server(0).fan_in, 6u);
  EXPECT_THROW(ServerGraph(t, 0u), std::invalid_argument);
}

TEST(ServerGraph, PerRouterFanIn) {
  Topology t;
  const NodeId a = t.add_node("a");
  const NodeId b = t.add_node("b");
  const NodeId c = t.add_node("c");
  t.add_duplex_link(a, b, 1e6);
  t.add_duplex_link(c, b, 1e6);
  const ServerGraph g(t, FanInMode::kPerRouter);
  // Server on link a->b is owned by a: in_degree(a)=1, +1 host = 2.
  const ServerId ab = g.server_for_link(*t.find_link(a, b));
  EXPECT_EQ(g.server(ab).fan_in, 2u);
  // Server on link b->a is owned by b: in_degree(b)=2, +1 host = 3.
  const ServerId ba = g.server_for_link(*t.find_link(b, a));
  EXPECT_EQ(g.server(ba).fan_in, 3u);
}

TEST(ServerGraph, MapPathFollowsLinks) {
  const Topology t = triangle();
  const ServerGraph g(t);
  const ServerPath p = g.map_path({0, 1, 2});
  ASSERT_EQ(p.size(), 2u);
  EXPECT_EQ(g.server(p[0]).from, 0u);
  EXPECT_EQ(g.server(p[0]).to, 1u);
  EXPECT_EQ(g.server(p[1]).from, 1u);
  EXPECT_EQ(g.server(p[1]).to, 2u);
  EXPECT_TRUE(g.map_path({0}).empty());
  EXPECT_THROW(g.map_path({0, 0}), std::invalid_argument);
}

TEST(TopologyIo, RoundTripsDuplex) {
  const Topology t = mci_backbone();
  const std::string text = to_text(t);
  const Topology back = from_text(text);
  EXPECT_EQ(back.name(), t.name());
  EXPECT_EQ(back.node_count(), t.node_count());
  EXPECT_EQ(back.link_count(), t.link_count());
  for (LinkId id = 0; id < t.link_count(); ++id) {
    ASSERT_TRUE(back.find_link(t.link(id).from, t.link(id).to).has_value());
  }
}

TEST(TopologyIo, RoundTripsSimplex) {
  Topology t("oneway");
  t.add_node("a");
  t.add_node("b");
  t.add_simplex_link(0, 1, 5e6);
  const Topology back = from_text(to_text(t));
  EXPECT_TRUE(back.find_link(0, 1).has_value());
  EXPECT_FALSE(back.find_link(1, 0).has_value());
}

TEST(TopologyIo, ParseErrorsCarryLineNumbers) {
  EXPECT_THROW(from_text("node a\nlink a b\n"), std::runtime_error);
  EXPECT_THROW(from_text("frobnicate x\n"), std::runtime_error);
  EXPECT_THROW(from_text("node a\nnode b\nlink a c 1e6\n"),
               std::runtime_error);
  try {
    from_text("node a\nbogus\n");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(TopologyIo, IgnoresCommentsAndBlankLines) {
  const Topology t = from_text(
      "# a comment\n"
      "topology demo\n"
      "\n"
      "node a\n"
      "node b  # trailing comment\n"
      "link a b 1000000\n");
  EXPECT_EQ(t.name(), "demo");
  EXPECT_EQ(t.node_count(), 2u);
  EXPECT_EQ(t.link_count(), 2u);
}

/// What from_text(text) throws, or "" when it parses.
std::string parse_error(const std::string& text) {
  try {
    from_text(text);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(TopologyIo, RejectsTrailingTokens) {
  EXPECT_NE(parse_error("node a extra\n"), "");
  EXPECT_NE(parse_error("node a\nnode b\nlink a b 5 junk\n"), "");
  EXPECT_NE(parse_error("node a\nnode b\nsimplex a b 5 6\n"), "");
  EXPECT_NE(parse_error("node a\nnode b\nlink a b 5junk\n"), "");
  EXPECT_NE(parse_error("topology demo extra\n"), "");
  EXPECT_NE(parse_error("node a\nnode b\nlink a b nan\n"), "");
  EXPECT_EQ(parse_error("node a # extra\n"), "");  // a comment is not one
}

TEST(TopologyIo, RejectsATopologyLineAfterNodes) {
  const std::string error = parse_error("node a\ntopology late\nnode b\n");
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  EXPECT_EQ(parse_error("# header\ntopology early\nnode a\n"), "");
}

// Topology's own invariants surface as parse errors naming the line.
TEST(TopologyIo, GraphErrorsBecomeParseErrorsWithTheLine) {
  const std::string nodes = "topology t\nnode a\nnode b\n";
  for (const auto& [text, line] : std::vector<std::pair<std::string, int>>{
           {"node a\nnode a\n", 2},
           {nodes + "link a b 5\nsimplex b a 5\n", 5},
           {nodes + "link a a 5\n", 4},
           {nodes + "simplex a b 5\nsimplex a b 7\n", 5}}) {
    try {
      from_text(text);
      ADD_FAILURE() << "accepted: " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("line " + std::to_string(line)),
                std::string::npos)
          << e.what();
    }
  }
}

/// A random topology with varied capacities, duplex and simplex links.
Topology random_topology(util::Xoshiro256& rng, int index) {
  Topology t("random-" + std::to_string(index));
  const std::size_t n = 2 + rng.uniform_index(7);
  for (std::size_t i = 0; i < n; ++i) t.add_node("r" + std::to_string(i));
  for (NodeId a = 0; a < n; ++a)
    for (NodeId b = 0; b < n; ++b) {
      if (a == b || t.find_link(a, b) || !rng.bernoulli(0.35)) continue;
      const double capacity = rng.uniform(1e3, 1e10);
      if (t.find_link(b, a) || rng.bernoulli(0.3))
        t.add_simplex_link(a, b, capacity);
      else
        t.add_duplex_link(a, b, capacity);
    }
  return t;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string text;
  for (const std::string& line : lines) text += line + "\n";
  return text;
}

/// One seeded mutation of serialized topology text: a byte flip, a token
/// dropped or duplicated in place, or a whole line dropped or duplicated.
std::string mutate(const std::string& text, util::Xoshiro256& rng) {
  if (rng.bernoulli(0.4)) {
    std::string out = text;
    const std::size_t at = rng.uniform_index(out.size());
    out[at] = static_cast<char>(out[at] ^ (1 + rng.uniform_index(255)));
    return out;
  }
  std::vector<std::string> lines = split_lines(text);
  const std::size_t at = rng.uniform_index(lines.size());
  switch (rng.uniform_index(4)) {
    case 0:
      lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(at));
      break;
    case 1:
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at),
                   lines[at]);
      break;
    default: {
      std::vector<std::string> tokens;
      std::istringstream in(lines[at]);
      for (std::string token; in >> token;) tokens.push_back(token);
      const std::size_t k = rng.uniform_index(tokens.size());
      if (rng.bernoulli(0.5))
        tokens.erase(tokens.begin() + static_cast<std::ptrdiff_t>(k));
      else
        tokens.insert(tokens.begin() + static_cast<std::ptrdiff_t>(k),
                      tokens[k]);
      std::string line;
      for (const std::string& token : tokens)
        line += (line.empty() ? "" : " ") + token;
      lines[at] = line;
    }
  }
  return join_lines(lines);
}

// Mutated serializations either parse to a topology that round-trips
// through to_text/from_text unchanged, or throw the parser's one error
// type with a line number — never another exception type.
TEST(TopologyIo, MutatedTextRoundTripsOrThrowsAParseError) {
  util::Xoshiro256 rng(0x70B0);
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (int t = 0; t < 60; ++t) {
    const std::string text = to_text(random_topology(rng, t));
    for (int m = 0; m < 50; ++m) {
      const std::string input = mutate(text, rng);
      try {
        const std::string parsed = to_text(from_text(input));
        EXPECT_EQ(to_text(from_text(parsed)), parsed) << input;
        ++accepted;
      } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("parse error at line"),
                  std::string::npos)
            << e.what();
        ++rejected;
      } catch (const std::exception& e) {
        ADD_FAILURE() << "unexpected exception: " << e.what() << "\n"
                      << input;
      }
    }
  }
  EXPECT_GT(accepted, 100u);
  EXPECT_GT(rejected, 1000u);
}

}  // namespace
}  // namespace ubac::net
