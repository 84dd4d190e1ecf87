// The incremental AnalysisEngine's contract: after ANY sequence of
// add_route / remove_route / set_alpha mutations, solve() must agree with
// a cold oracle solve of the same committed set — identical feasibility
// status and per-server delays within 1e-9 — and probe/commit must be a
// pure shortcut for add_route + solve. Randomized sequences exercise the
// warm, frontier, dirty-closure, and poisoned re-solve paths.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "analysis/engine.hpp"
#include "analysis/fixed_point.hpp"
#include "analysis/multiclass.hpp"
#include "net/ksp.hpp"
#include "net/topology_factory.hpp"
#include "routing/multiclass_selection.hpp"
#include "traffic/workload.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace ubac::analysis {
namespace {

using traffic::LeakyBucket;
using units::kbps;
using units::mbps;
using units::milliseconds;

constexpr double kTol = 1e-9;
const LeakyBucket kVoice(640.0, kbps(32));

/// Random simple route between two distinct nodes (one of the 3 shortest).
net::ServerPath random_route(const net::Topology& topo,
                             const net::ServerGraph& graph,
                             util::Xoshiro256& rng) {
  for (;;) {
    const auto s =
        static_cast<net::NodeId>(rng.uniform_index(topo.node_count()));
    const auto d =
        static_cast<net::NodeId>(rng.uniform_index(topo.node_count()));
    if (s == d) continue;
    const auto paths = net::k_shortest_paths(topo, s, d, 3);
    if (paths.empty()) continue;
    return graph.map_path(paths[rng.uniform_index(paths.size())]);
  }
}

void expect_matches_oracle(AnalysisEngine& engine,
                           const net::ServerGraph& graph, double alpha,
                           Seconds deadline,
                           const std::vector<net::ServerPath>& committed,
                           std::uint64_t seed, int step) {
  const DelaySolution& incremental = engine.solve();
  const DelaySolution oracle =
      solve_two_class(graph, alpha, kVoice, deadline, committed);
  ASSERT_EQ(incremental.status, oracle.status)
      << "seed=" << seed << " step=" << step
      << " routes=" << committed.size() << " alpha=" << alpha;
  if (!oracle.safe()) return;
  ASSERT_EQ(incremental.server_delay.size(), oracle.server_delay.size());
  for (std::size_t s = 0; s < oracle.server_delay.size(); ++s)
    ASSERT_NEAR(incremental.server_delay[s], oracle.server_delay[s], kTol)
        << "seed=" << seed << " step=" << step << " server=" << s;
}

/// One randomized scenario: interleave adds (plain and probe+commit),
/// removes and alpha moves, checking the oracle after every settle.
void run_sequence(std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  const auto topo =
      net::random_connected(8 + rng.uniform_index(5), 3.0, seed * 101 + 7);
  const net::ServerGraph graph(topo, 6u);
  const Seconds deadline = milliseconds(40.0 + 40.0 * rng.uniform());
  double alpha = 0.15 + 0.35 * rng.uniform();

  AnalysisEngine engine(graph, alpha, kVoice, deadline);
  std::vector<EngineRouteId> ids;
  std::vector<net::ServerPath> committed;

  const int steps = 6 + static_cast<int>(rng.uniform_index(5));
  for (int step = 0; step < steps; ++step) {
    const std::size_t op = rng.uniform_index(8);
    if (op < 3 || ids.empty()) {
      // Plain add.
      const auto route = random_route(topo, graph, rng);
      ids.push_back(engine.add_route(route));
      committed.push_back(route);
    } else if (op < 5) {
      // Probe + commit (only legal from a clean safe state). The probe
      // must itself match the oracle for committed + candidate.
      if (!engine.solve().safe()) continue;
      const auto route = random_route(topo, graph, rng);
      const RouteProbe probe = engine.probe_route(route);
      std::vector<net::ServerPath> overlay = committed;
      overlay.push_back(route);
      const DelaySolution oracle =
          solve_two_class(graph, alpha, kVoice, deadline, overlay);
      ASSERT_EQ(probe.status, oracle.status)
          << "seed=" << seed << " step=" << step << " (probe)";
      if (!probe.safe()) continue;
      EXPECT_NEAR(probe.route_delay, oracle.route_delay.back(), kTol);
      ids.push_back(engine.commit_probe(route, probe));
      committed.push_back(route);
    } else if (op < 6) {
      // Remove a random committed route.
      const std::size_t victim = rng.uniform_index(ids.size());
      engine.remove_route(ids[victim]);
      ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(victim));
      committed.erase(committed.begin() +
                      static_cast<std::ptrdiff_t>(victim));
    } else {
      // Alpha move: raises stay warm, cuts restart the dirty closure.
      alpha = op == 6 ? std::min(0.85, alpha * (1.05 + 0.2 * rng.uniform()))
                      : std::max(0.05, alpha * (0.7 + 0.2 * rng.uniform()));
      engine.set_alpha(alpha);
    }
    expect_matches_oracle(engine, graph, alpha, deadline, committed, seed,
                          step);
  }
}

TEST(EngineEquivalence, RandomizedSequencesBatch0) {
  for (std::uint64_t seed = 0; seed < 250; ++seed) run_sequence(seed);
}
TEST(EngineEquivalence, RandomizedSequencesBatch1) {
  for (std::uint64_t seed = 250; seed < 500; ++seed) run_sequence(seed);
}
TEST(EngineEquivalence, RandomizedSequencesBatch2) {
  for (std::uint64_t seed = 500; seed < 750; ++seed) run_sequence(seed);
}
TEST(EngineEquivalence, RandomizedSequencesBatch3) {
  for (std::uint64_t seed = 750; seed < 1000; ++seed) run_sequence(seed);
}

// ---------------------------------------------------------------------------
// Cut-off probes: a cut is only ever taken where the full probe would have
// come in at or above the cutoff
// ---------------------------------------------------------------------------

void expect_same_probe(const RouteProbe& a, const RouteProbe& b) {
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.cut, b.cut);
  EXPECT_EQ(a.route_delay, b.route_delay);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.server_delta, b.server_delta);
  EXPECT_EQ(a.committed_route_delta, b.committed_route_delta);
}

/// Probe `route` (class `cls`) on a safely solved `engine` uncut and at
/// cutoffs from 0 to +inf: a probe that is not cut is the uncut probe, and
/// a cut one stopped at or above its cutoff without passing the uncut
/// delay. Counts cut and kept probes.
template <typename Engine>
void expect_cut_probes_sound(const Engine& engine, std::size_t cls,
                             const net::ServerPath& route, int& cuts,
                             int& kept) {
  const RouteProbe uncut = engine.probe(cls, route);
  EXPECT_FALSE(uncut.cut);
  const Seconds lower_bound = engine.committed_sum(cls, route);
  const Seconds full = uncut.route_delay;
  for (const Seconds cutoff :
       {0.0, lower_bound, 0.5 * full, 0.9 * full, 0.999 * full, full,
        std::nextafter(full, std::numeric_limits<Seconds>::infinity()),
        1.1 * full, std::numeric_limits<Seconds>::infinity()}) {
    SCOPED_TRACE(::testing::Message() << "cutoff/full=" << cutoff / full);
    const RouteProbe probe = engine.probe(cls, route, cutoff);
    if (!probe.cut) {
      ++kept;
      expect_same_probe(probe, uncut);
      continue;
    }
    ++cuts;
    EXPECT_GE(full, cutoff);
    EXPECT_GE(probe.route_delay, cutoff);
    EXPECT_LE(probe.route_delay, full);  // a sweep sum, never past it
    EXPECT_EQ(probe.status, FeasibilityStatus::kNoConvergence);
    EXPECT_TRUE(probe.server_delta.empty());
    EXPECT_TRUE(probe.committed_route_delta.empty());
  }
  // Reaching the cutoff is enough: a safe probe is cut at its own delay
  // and runs to the end just above it.
  if (uncut.safe()) {
    EXPECT_TRUE(engine.probe(cls, route, full).cut);
    expect_same_probe(
        engine.probe(cls, route,
                     std::nextafter(full,
                                    std::numeric_limits<Seconds>::infinity())),
        uncut);
  }
}

TEST(EngineEquivalence, CutProbeIsTheUncutProbeOrLosesToItsCutoff) {
  int cuts = 0, kept = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    util::Xoshiro256 rng(seed);
    const auto topo =
        net::random_connected(10 + rng.uniform_index(6), 3.0, seed * 31 + 5);
    const net::ServerGraph graph(topo, 6u);
    const Seconds deadline = milliseconds(40.0 + 40.0 * rng.uniform());
    AnalysisEngine engine(graph, 0.15 + 0.35 * rng.uniform(), kVoice,
                          deadline);
    const int routes = 4 + static_cast<int>(rng.uniform_index(9));
    for (int r = 0; r < routes; ++r)
      engine.add_route(random_route(topo, graph, rng));
    if (!engine.solve().safe()) continue;

    for (int p = 0; p < 6; ++p) {
      SCOPED_TRACE(::testing::Message() << "seed=" << seed << " probe=" << p);
      expect_cut_probes_sound(engine, 0, random_route(topo, graph, rng), cuts,
                              kept);
    }
  }
  EXPECT_GT(cuts, 100);
  EXPECT_GT(kept, 100);

  // The same probes under the Theorem 5 model, two and three real-time
  // classes, each probe of a random class.
  int mc_cuts = 0, mc_kept = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    util::Xoshiro256 rng(seed);
    const auto topo =
        net::random_connected(10 + rng.uniform_index(6), 3.0, seed * 37 + 11);
    const net::ServerGraph graph(topo, 6u);
    std::vector<routing::ClassTemplate> templates{
        {"voice", kVoice, milliseconds(100), 1.0},
        {"video", LeakyBucket(16000.0, mbps(1)), milliseconds(200), 1.0}};
    if (seed % 2 == 0)
      templates.push_back(
          {"data", LeakyBucket(4000.0, kbps(256)), milliseconds(150), 0.5});
    const auto classes =
        routing::scaled_class_set(templates, 0.05 + 0.15 * rng.uniform());
    MulticlassEngine engine(graph, classes);
    const int routes = 4 + static_cast<int>(rng.uniform_index(9));
    for (int r = 0; r < routes; ++r) {
      const auto route = random_route(topo, graph, rng);
      engine.add_route({route.front(), route.back(),
                        rng.uniform_index(templates.size())},
                       route);
    }
    if (!engine.solve().safe()) continue;

    for (int p = 0; p < 6; ++p) {
      SCOPED_TRACE(::testing::Message()
                   << "multiclass seed=" << seed << " probe=" << p);
      const std::size_t cls = rng.uniform_index(templates.size());
      expect_cut_probes_sound(engine, cls, random_route(topo, graph, rng),
                              mc_cuts, mc_kept);
    }
  }
  EXPECT_GT(mc_cuts, 100);
  EXPECT_GT(mc_kept, 100);
}

// ---------------------------------------------------------------------------
// Multiclass engine vs solve_multiclass oracle
// ---------------------------------------------------------------------------

void run_multiclass_sequence(std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  const auto topo = net::random_connected(8, 3.0, seed * 131 + 3);
  const net::ServerGraph graph(topo, 6u);
  const auto classes = routing::scaled_class_set(
      {{"voice", LeakyBucket(640.0, kbps(32)), milliseconds(100), 1.0},
       {"video", LeakyBucket(16000.0, mbps(1)), milliseconds(200), 1.0}},
      0.05 + 0.1 * rng.uniform());

  MulticlassEngine engine(graph, classes);
  std::vector<EngineRouteId> ids;
  std::vector<traffic::Demand> demands;
  std::vector<net::ServerPath> routes;

  const int steps = 5 + static_cast<int>(rng.uniform_index(4));
  for (int step = 0; step < steps; ++step) {
    const std::size_t op = rng.uniform_index(5);
    if (op < 3 || ids.empty()) {
      const auto route = random_route(topo, graph, rng);
      const traffic::Demand demand{route.front(), route.back(),
                                   rng.uniform_index(2)};
      ids.push_back(engine.add_route(demand, route));
      demands.push_back(demand);
      routes.push_back(route);
    } else if (op == 3) {
      if (!engine.solve().safe()) continue;
      const auto route = random_route(topo, graph, rng);
      const traffic::Demand demand{route.front(), route.back(),
                                   rng.uniform_index(2)};
      const RouteProbe probe = engine.probe_route(demand, route);
      std::vector<traffic::Demand> od = demands;
      std::vector<net::ServerPath> orr = routes;
      od.push_back(demand);
      orr.push_back(route);
      const MulticlassSolution oracle =
          solve_multiclass(graph, classes, od, orr);
      ASSERT_EQ(probe.status, oracle.status)
          << "seed=" << seed << " step=" << step << " (mc probe)";
      if (!probe.safe()) continue;
      EXPECT_NEAR(probe.route_delay, oracle.route_delay.back(), kTol);
      ids.push_back(engine.commit_probe(demand, route, probe));
      demands.push_back(demand);
      routes.push_back(route);
    } else {
      const std::size_t victim = rng.uniform_index(ids.size());
      engine.remove_route(ids[victim]);
      ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(victim));
      demands.erase(demands.begin() + static_cast<std::ptrdiff_t>(victim));
      routes.erase(routes.begin() + static_cast<std::ptrdiff_t>(victim));
    }

    const MulticlassSolution& incremental = engine.solve();
    const MulticlassSolution oracle =
        solve_multiclass(graph, classes, demands, routes);
    ASSERT_EQ(incremental.status, oracle.status)
        << "seed=" << seed << " step=" << step << " routes=" << routes.size();
    if (!oracle.safe()) continue;
    for (std::size_t i = 0; i < oracle.class_server_delay.size(); ++i)
      for (std::size_t s = 0; s < oracle.class_server_delay[i].size(); ++s)
        ASSERT_NEAR(incremental.class_server_delay[i][s],
                    oracle.class_server_delay[i][s], kTol)
            << "seed=" << seed << " step=" << step << " class=" << i
            << " server=" << s;
  }
}

TEST(EngineEquivalence, MulticlassRandomizedSequences) {
  for (std::uint64_t seed = 0; seed < 300; ++seed)
    run_multiclass_sequence(seed);
}

}  // namespace
}  // namespace ubac::analysis
