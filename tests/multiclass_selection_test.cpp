// Tests for the Section 5.4 algorithm variants: multi-class route
// selection and share-scale maximization.
#include <gtest/gtest.h>

#include <algorithm>

#include "net/shortest_path.hpp"
#include "net/topology_factory.hpp"
#include "routing/multiclass_selection.hpp"
#include "traffic/workload.hpp"
#include "util/units.hpp"

namespace ubac::routing {
namespace {

using traffic::LeakyBucket;
using units::kbps;
using units::mbps;
using units::milliseconds;

std::vector<ClassTemplate> voice_video_templates() {
  return {
      {"voice", LeakyBucket(640.0, kbps(32)), milliseconds(100), 1.0},
      {"video", LeakyBucket(16000.0, mbps(1)), milliseconds(200), 1.0},
  };
}

std::vector<traffic::Demand> two_class_demands(const net::Topology& topo,
                                               std::size_t pairs) {
  const auto base = traffic::random_pairs(topo, pairs, 31);
  std::vector<traffic::Demand> demands;
  for (const auto& d : base) {
    demands.push_back({d.src, d.dst, 0});
    demands.push_back({d.src, d.dst, 1});
  }
  return demands;
}

TEST(MulticlassSelection, RoutesBothClassesSafely) {
  const auto topo = net::mci_backbone();
  const net::ServerGraph graph(topo, 6u);
  const auto classes = scaled_class_set(voice_video_templates(), 0.12);
  const auto demands = two_class_demands(topo, 20);

  HeuristicOptions opts;
  opts.candidates_per_pair = 4;
  const auto result =
      select_routes_multiclass(graph, classes, demands, opts);
  ASSERT_TRUE(result.success);
  ASSERT_EQ(result.routes.size(), demands.size());
  for (std::size_t i = 0; i < demands.size(); ++i) {
    EXPECT_EQ(result.routes[i].front(), demands[i].src);
    EXPECT_EQ(result.routes[i].back(), demands[i].dst);
    EXPECT_TRUE(net::is_valid_path(topo, result.routes[i]));
  }
  EXPECT_TRUE(result.solution.safe());
  // Every route's bound respects its own class deadline.
  for (std::size_t i = 0; i < demands.size(); ++i)
    EXPECT_LE(result.solution.route_delay[i],
              classes.at(demands[i].class_index).deadline);
}

TEST(MulticlassSelection, FailsWhenSharesTooLarge) {
  const auto topo = net::mci_backbone();
  const net::ServerGraph graph(topo, 6u);
  const auto classes = scaled_class_set(voice_video_templates(), 0.45);
  const auto demands = two_class_demands(topo, 20);
  HeuristicOptions opts;
  opts.candidates_per_pair = 2;
  const auto result =
      select_routes_multiclass(graph, classes, demands, opts);
  EXPECT_FALSE(result.success);
  EXPECT_LT(result.failed_demand, demands.size());
}

TEST(MulticlassSelection, Validation) {
  const auto topo = net::line(3);
  const net::ServerGraph graph(topo, 6u);
  const auto classes = scaled_class_set(voice_video_templates(), 0.1);
  EXPECT_THROW(select_routes_multiclass(graph, classes, {{0, 0, 0}}),
               std::invalid_argument);
  EXPECT_THROW(select_routes_multiclass(graph, classes, {{0, 2, 2}}),
               std::invalid_argument);  // best-effort demand
  HeuristicOptions opts;
  opts.candidates_per_pair = 0;
  EXPECT_THROW(select_routes_multiclass(graph, classes, {{0, 2, 0}}, opts),
               std::invalid_argument);
}

// The two-class heuristic's options reach multi-class selection: routes
// avoid forbidden servers, and a jitter seed reorders equal-distance pairs.
TEST(MulticlassSelection, HonoursForbiddenServersAndOrderJitter) {
  const auto topo = net::mci_backbone();
  const net::ServerGraph graph(topo, 6u);
  const auto demands = two_class_demands(topo, 20);
  HeuristicOptions opts;
  opts.candidates_per_pair = 4;
  const auto classes = scaled_class_set(voice_video_templates(), 0.12);
  const auto plain = select_routes_multiclass(graph, classes, demands, opts);
  ASSERT_TRUE(plain.success);

  // Forbid both directions of the first hop of the first demand's route.
  const auto& first = plain.routes[0];
  HeuristicOptions avoiding = opts;
  avoiding.forbidden_servers = {*topo.find_link(first[0], first[1]),
                                *topo.find_link(first[1], first[0])};
  const auto detour =
      select_routes_multiclass(graph, classes, demands, avoiding);
  ASSERT_TRUE(detour.success);
  for (const auto& route : detour.server_routes)
    for (const net::ServerId bad : avoiding.forbidden_servers)
      EXPECT_EQ(std::find(route.begin(), route.end(), bad), route.end());

  // Where the selection fails, the first pair without a safe route
  // depends on the order among equal distances.
  const auto tight = scaled_class_set(voice_video_templates(), 0.45);
  HeuristicOptions jittered = opts;
  const std::size_t unjittered =
      select_routes_multiclass(graph, tight, demands, opts).failed_demand;
  bool moved = false;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    jittered.order_jitter_seed = seed;
    const auto result =
        select_routes_multiclass(graph, tight, demands, jittered);
    ASSERT_FALSE(result.success);
    moved = moved || result.failed_demand != unjittered;
  }
  EXPECT_TRUE(moved);
}

TEST(ScaledClassSet, BuildsAndValidates) {
  const auto classes = scaled_class_set(voice_video_templates(), 0.2);
  EXPECT_EQ(classes.size(), 3u);  // two real-time + best effort
  EXPECT_DOUBLE_EQ(classes.at(0).share, 0.2);
  EXPECT_DOUBLE_EQ(classes.at(1).share, 0.2);
  EXPECT_FALSE(classes.at(2).realtime);
  EXPECT_THROW(scaled_class_set({}, 0.5), std::invalid_argument);
  EXPECT_THROW(scaled_class_set(voice_video_templates(), 0.6),
               std::invalid_argument);  // total share would reach 1
}

TEST(MaximizeShareScale, FindsABoundaryScale) {
  const auto topo = net::mci_backbone();
  const net::ServerGraph graph(topo, 6u);
  const auto templates = voice_video_templates();
  const auto demands = two_class_demands(topo, 12);
  HeuristicOptions opts;
  opts.candidates_per_pair = 2;
  const auto result = maximize_share_scale(graph, templates, demands, 0.5,
                                           0.02, opts);
  ASSERT_TRUE(result.any_feasible);
  EXPECT_GT(result.max_scale, 0.0);
  EXPECT_LT(result.max_scale, 0.5);
  EXPECT_TRUE(result.best.success);
  EXPECT_GT(result.probes, 2);

  // Feasible at the maximum, infeasible a couple of steps above it.
  const auto at_max = select_routes_multiclass(
      graph, scaled_class_set(templates, result.max_scale), demands, opts);
  EXPECT_TRUE(at_max.success);
  const auto above = select_routes_multiclass(
      graph, scaled_class_set(templates, result.max_scale + 0.06), demands,
      opts);
  EXPECT_FALSE(above.success);
}

TEST(MaximizeShareScale, Validation) {
  const auto topo = net::line(3);
  const net::ServerGraph graph(topo, 6u);
  EXPECT_THROW(maximize_share_scale(graph, voice_video_templates(),
                                    {{0, 2, 0}}, 0.0),
               std::invalid_argument);
  EXPECT_THROW(maximize_share_scale(graph, {{"x",
                                             LeakyBucket(1.0, 1.0),
                                             0.1, 0.0}},
                                    {{0, 2, 0}}, 0.5),
               std::invalid_argument);
}

}  // namespace
}  // namespace ubac::routing
