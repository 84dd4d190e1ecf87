// Tests for route selection: dependency-graph cycle checking, the SP
// baseline, the Section 5.2 heuristic, and the Section 5.3 maximizer.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <set>
#include <stdexcept>
#include <thread>

#include "analysis/bounds.hpp"
#include "net/ksp.hpp"
#include "net/shortest_path.hpp"
#include "net/topology_factory.hpp"
#include "routing/candidate_set.hpp"
#include "routing/cycle_check.hpp"
#include "routing/max_util_search.hpp"
#include "routing/route_selection.hpp"
#include "traffic/workload.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace ubac::routing {
namespace {

using traffic::LeakyBucket;
using units::kbps;
using units::milliseconds;

const LeakyBucket kVoice(640.0, kbps(32));
const Seconds kDeadline = milliseconds(100);

TEST(RouteDependencyGraph, DetectsCycles) {
  RouteDependencyGraph g(4);
  EXPECT_TRUE(g.is_acyclic());
  g.add_route({0, 1, 2});
  EXPECT_TRUE(g.is_acyclic());
  using net::ServerPath;
  EXPECT_TRUE(g.stays_acyclic(ServerPath{0, 2}));     // no new order conflict
  EXPECT_TRUE(g.stays_acyclic(ServerPath{1, 2, 3}));  // extends forward
  EXPECT_FALSE(g.stays_acyclic(ServerPath{2, 0}));    // closes 0->1->2->0
  EXPECT_FALSE(g.stays_acyclic(ServerPath{2, 3, 0})); // longer cycle
  g.add_route({2, 3});
  EXPECT_TRUE(g.is_acyclic());
  EXPECT_EQ(g.edge_count(), 3u);
  g.add_route({3, 0});
  EXPECT_FALSE(g.is_acyclic());
}

TEST(RouteDependencyGraph, DuplicateEdgesAreIdempotent) {
  RouteDependencyGraph g(3);
  g.add_route({0, 1});
  g.add_route({0, 1});
  EXPECT_EQ(g.edge_count(), 1u);
}

using Edge = std::pair<net::ServerId, net::ServerId>;

/// Plain Kahn pass over an explicit edge set.
bool kahn_acyclic(std::size_t servers, const std::set<Edge>& edges) {
  std::vector<int> in_degree(servers, 0);
  for (const auto& e : edges) ++in_degree[e.second];
  std::vector<net::ServerId> ready;
  for (net::ServerId v = 0; v < servers; ++v)
    if (in_degree[v] == 0) ready.push_back(v);
  std::size_t done = 0;
  while (!ready.empty()) {
    const net::ServerId v = ready.back();
    ready.pop_back();
    ++done;
    for (const auto& e : edges)
      if (e.first == v && --in_degree[e.second] == 0) ready.push_back(e.second);
  }
  return done == servers;
}

TEST(RouteDependencyGraph, VerdictMatchesPlainKahnOnRandomRoutes) {
  util::Xoshiro256 rng(20240607);
  std::size_t accepted = 0, rejected = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t servers = 3 + rng.uniform_index(14);
    RouteDependencyGraph g(servers);
    std::set<Edge> committed;
    for (int step = 0; step < 40; ++step) {
      // Mostly simple routes; now and then a repeated server (a cycle).
      net::ServerPath route;
      const std::size_t length = 2 + rng.uniform_index(5);
      while (route.size() < length) {
        const auto s = static_cast<net::ServerId>(rng.uniform_index(servers));
        if (rng.uniform_index(20) != 0 &&
            std::find(route.begin(), route.end(), s) != route.end())
          continue;
        route.push_back(s);
      }
      std::set<Edge> with = committed;
      for (std::size_t i = 0; i + 1 < route.size(); ++i)
        with.insert({route[i], route[i + 1]});

      const bool expected = kahn_acyclic(servers, with);
      ASSERT_EQ(g.stays_acyclic(route), expected)
          << "trial " << trial << " step " << step;
      (expected ? accepted : rejected) += 1;
      // Commit what stays acyclic, and now and then a cycle-closing route.
      if (expected || rng.uniform_index(25) == 0) {
        g.add_route(route);
        committed = std::move(with);
        ASSERT_EQ(g.is_acyclic(), kahn_acyclic(servers, committed));
        ASSERT_EQ(g.edge_count(), committed.size());
      }
    }
  }
  // Both verdicts are exercised.
  EXPECT_GT(accepted, 1000u);
  EXPECT_GT(rejected, 1000u);
}

std::vector<traffic::Demand> far_pairs(const net::Topology& topo,
                                       std::size_t count) {
  // Deterministic subset: pairs at maximum distance first.
  auto demands = traffic::all_ordered_pairs(topo);
  const auto hops = net::all_pairs_hops(topo);
  std::stable_sort(demands.begin(), demands.end(),
                   [&](const auto& a, const auto& b) {
                     return hops[a.src][a.dst] > hops[b.src][b.dst];
                   });
  demands.resize(count);
  return demands;
}

TEST(ShortestPathSelection, SucceedsAtLowUtilization) {
  const auto topo = net::mci_backbone();
  const net::ServerGraph graph(topo, 6u);
  const auto demands = traffic::all_ordered_pairs(topo);
  const auto result = select_routes_shortest_path(graph, 0.25, kVoice,
                                                  kDeadline, demands);
  ASSERT_TRUE(result.success);
  ASSERT_EQ(result.routes.size(), demands.size());
  for (std::size_t i = 0; i < demands.size(); ++i) {
    EXPECT_EQ(result.routes[i].front(), demands[i].src);
    EXPECT_EQ(result.routes[i].back(), demands[i].dst);
    EXPECT_EQ(result.routes[i],
              net::shortest_path(topo, demands[i].src, demands[i].dst).value());
  }
  EXPECT_LE(result.solution.worst_route_delay(), kDeadline);
}

TEST(ShortestPathSelection, FailsWhenSaturated) {
  const auto topo = net::mci_backbone();
  const net::ServerGraph graph(topo, 6u);
  const auto demands = traffic::all_ordered_pairs(topo);
  const auto result = select_routes_shortest_path(graph, 0.95, kVoice,
                                                  kDeadline, demands);
  EXPECT_FALSE(result.success);
}

TEST(HeuristicSelection, ProducesValidAlignedRoutes) {
  const auto topo = net::mci_backbone();
  const net::ServerGraph graph(topo, 6u);
  const auto demands = far_pairs(topo, 40);
  const auto result =
      select_routes_heuristic(graph, 0.3, kVoice, kDeadline, demands);
  ASSERT_TRUE(result.success);
  ASSERT_EQ(result.routes.size(), demands.size());
  for (std::size_t i = 0; i < demands.size(); ++i) {
    ASSERT_FALSE(result.routes[i].empty()) << "demand " << i;
    EXPECT_EQ(result.routes[i].front(), demands[i].src);
    EXPECT_EQ(result.routes[i].back(), demands[i].dst);
    EXPECT_TRUE(net::is_valid_path(topo, result.routes[i]));
    EXPECT_TRUE(net::is_simple(result.routes[i]));
    EXPECT_EQ(result.server_routes[i], graph.map_path(result.routes[i]));
  }
  EXPECT_TRUE(result.solution.safe());
}

TEST(HeuristicSelection, GivesUpOnceItsStopFlagIsRaised) {
  const auto topo = net::mci_backbone();
  const net::ServerGraph graph(topo, 6u);
  const auto demands = far_pairs(topo, 40);
  std::atomic<bool> stop{false};
  detail::set_stop_flag(&stop);
  EXPECT_FALSE(detail::stop_requested());
  EXPECT_TRUE(select_routes_heuristic(graph, 0.3, kVoice, kDeadline, demands)
                  .success);
  stop = true;
  EXPECT_TRUE(detail::stop_requested());
  const auto stopped =
      select_routes_heuristic(graph, 0.3, kVoice, kDeadline, demands);
  detail::set_stop_flag(nullptr);
  EXPECT_FALSE(stopped.success);
  EXPECT_NE(stopped.failed_demand, kNoFailedDemand);
  EXPECT_FALSE(detail::stop_requested());
}

TEST(HeuristicSelection, FailsAtSaturationWithFailedDemandIndex) {
  const auto topo = net::mci_backbone();
  const net::ServerGraph graph(topo, 6u);
  const auto demands = far_pairs(topo, 40);
  const auto result =
      select_routes_heuristic(graph, 0.95, kVoice, kDeadline, demands);
  EXPECT_FALSE(result.success);
  EXPECT_LT(result.failed_demand, demands.size());
}

TEST(HeuristicSelection, MatchesOrBeatsShortestPathFeasibility) {
  // The heart of Table 1: utilizations feasible for SP must be feasible
  // for the heuristic (it can fall back to near-shortest routes), and the
  // heuristic typically remains feasible beyond SP's maximum.
  const auto topo = net::mci_backbone();
  const net::ServerGraph graph(topo, 6u);
  const auto demands = traffic::all_ordered_pairs(topo);

  double sp_max = 0.0, heuristic_max = 0.0;
  for (double alpha = 0.28; alpha <= 0.56; alpha += 0.04) {
    if (select_routes_shortest_path(graph, alpha, kVoice, kDeadline, demands)
            .success)
      sp_max = alpha;
    if (select_routes_heuristic(graph, alpha, kVoice, kDeadline, demands)
            .success)
      heuristic_max = alpha;
  }
  EXPECT_GT(sp_max, 0.0);
  EXPECT_GE(heuristic_max, sp_max);
}

TEST(HeuristicSelection, AblationFlagsChangeBehaviorSafely) {
  const auto topo = net::mci_backbone();
  const net::ServerGraph graph(topo, 6u);
  const auto demands = far_pairs(topo, 30);
  for (const bool order : {true, false})
    for (const bool acyclic : {true, false})
      for (const bool min_delay : {true, false}) {
        HeuristicOptions opts;
        opts.order_by_distance = order;
        opts.prefer_acyclic = acyclic;
        opts.pick_min_delay = min_delay;
        const auto result = select_routes_heuristic(graph, 0.3, kVoice,
                                                    kDeadline, demands, opts);
        // Whatever the knobs, a returned success must be a verified one.
        if (result.success) {
          EXPECT_TRUE(result.solution.safe());
        }
      }
}

TEST(HeuristicSelection, Validation) {
  const auto topo = net::line(3);
  const net::ServerGraph graph(topo, 2u);
  HeuristicOptions opts;
  opts.candidates_per_pair = 0;
  EXPECT_THROW(select_routes_heuristic(graph, 0.3, kVoice, kDeadline,
                                       {{0, 2, 0}}, opts),
               std::invalid_argument);
  EXPECT_THROW(select_routes_heuristic(graph, 0.3, kVoice, kDeadline,
                                       {{0, 0, 0}}),
               std::invalid_argument);
}

TEST(MaxUtilSearch, BracketsTheMaximum) {
  const auto topo = net::mci_backbone();
  const net::ServerGraph graph(topo, 6u);
  const auto demands = far_pairs(topo, 24);
  const auto result = maximize_utilization_shortest_path(graph, kVoice,
                                                         kDeadline, demands);
  ASSERT_TRUE(result.any_feasible);
  EXPECT_GE(result.max_alpha, result.theorem4_lower - 1e-9);
  EXPECT_LE(result.max_alpha, result.theorem4_upper + 1e-9);
  EXPECT_GT(result.probes, 1);
  EXPECT_TRUE(result.best.success);
  // Feasible exactly at the reported maximum...
  EXPECT_TRUE(select_routes_shortest_path(graph, result.max_alpha, kVoice,
                                          kDeadline, demands)
                  .success);
  // ...and infeasible just above the search resolution.
  EXPECT_FALSE(select_routes_shortest_path(graph, result.max_alpha + 0.02,
                                           kVoice, kDeadline, demands)
                   .success);
}

TEST(MaxUtilSearch, HeuristicAtLeastShortestPath) {
  const auto topo = net::mci_backbone();
  const net::ServerGraph graph(topo, 6u);
  const auto demands = far_pairs(topo, 24);
  const auto sp = maximize_utilization_shortest_path(graph, kVoice, kDeadline,
                                                     demands);
  HeuristicOptions heuristic;
  heuristic.candidates_per_pair = 4;
  const auto h = maximize_utilization_heuristic(graph, kVoice, kDeadline,
                                                demands, heuristic);
  ASSERT_TRUE(sp.any_feasible);
  ASSERT_TRUE(h.any_feasible);
  EXPECT_GE(h.max_alpha, sp.max_alpha - 0.005);
}

TEST(MaxUtilSearch, HonorsExplicitInterval) {
  const auto topo = net::line(3);
  const net::ServerGraph graph(topo, 4u);
  const std::vector<traffic::Demand> demands{{0, 2, 0}};
  MaxUtilOptions opts;
  opts.search_lo = 0.05;
  opts.search_hi = 0.10;
  const auto result = maximize_utilization(
      4.0, 2, kVoice, kDeadline,
      [&](double alpha) {
        return select_routes_shortest_path(graph, alpha, kVoice, kDeadline,
                                           demands);
      },
      opts);
  EXPECT_TRUE(result.any_feasible);
  EXPECT_LE(result.max_alpha, 0.10 + 1e-12);
  EXPECT_GE(result.max_alpha, 0.05 - 1e-12);
  MaxUtilOptions bad;
  bad.resolution = 0.0;
  EXPECT_THROW(maximize_utilization(4.0, 2, kVoice, kDeadline,
                                    [](double) { return RouteSelectionResult{}; },
                                    bad),
               std::invalid_argument);
}

void expect_same_selection(const RouteSelectionResult& a,
                           const RouteSelectionResult& b) {
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.failed_demand, b.failed_demand);
  EXPECT_EQ(a.routes, b.routes);
  EXPECT_EQ(a.server_routes, b.server_routes);
  EXPECT_EQ(a.solution.status, b.solution.status);
  EXPECT_EQ(a.solution.server_delay, b.solution.server_delay);
  EXPECT_EQ(a.solution.route_delay, b.solution.route_delay);
}

/// The search and the selector give identical results whether the
/// candidates come from a caller-supplied cache or are computed inside.
/// Returns the search result without the cache.
MaxUtilResult expect_cache_is_transparent(
    const net::ServerGraph& graph, const std::vector<traffic::Demand>& demands,
    const HeuristicOptions& options) {
  std::vector<std::vector<net::NodePath>> cache;
  for (const auto& d : demands)
    cache.push_back(net::k_shortest_paths(graph.topology(), d.src, d.dst,
                                          options.candidates_per_pair));
  HeuristicOptions cached = options;
  cached.candidates = &cache;

  const auto plain = maximize_utilization_heuristic(graph, kVoice, kDeadline,
                                                    demands, options);
  const auto with_cache = maximize_utilization_heuristic(
      graph, kVoice, kDeadline, demands, cached);
  EXPECT_TRUE(plain.any_feasible);
  EXPECT_EQ(plain.max_alpha, with_cache.max_alpha);
  EXPECT_EQ(plain.probes, with_cache.probes);
  EXPECT_EQ(plain.reverify_hits, with_cache.reverify_hits);
  expect_same_selection(plain.best, with_cache.best);

  // At the found alpha and past it, where the selection fails.
  for (const double alpha : {plain.max_alpha, plain.max_alpha + 0.05}) {
    const auto a = select_routes_heuristic(graph, alpha, kVoice, kDeadline,
                                           demands, options);
    const auto b = select_routes_heuristic(graph, alpha, kVoice, kDeadline,
                                           demands, cached);
    expect_same_selection(a, b);
  }
  return plain;
}

TEST(SelectionEquivalence, CandidateCacheIsTransparentOnMci) {
  const auto topo = net::mci_backbone();
  const net::ServerGraph graph(topo, 6u);
  expect_cache_is_transparent(graph, traffic::all_ordered_pairs(topo), {});
}

TEST(SelectionEquivalence, CandidateCacheIsTransparentOnRandomTopologies) {
  for (const std::uint64_t seed : {1031u, 1047u}) {
    const auto topo = net::random_connected(30, 3.5, seed);
    const net::ServerGraph graph(topo);
    expect_cache_is_transparent(graph, traffic::all_ordered_pairs(topo), {});
  }
}

TEST(SelectionEquivalence, CandidateCacheIsTransparentWithForbiddenServers) {
  const auto topo = net::mci_backbone();
  const net::ServerGraph graph(topo, 6u);
  const auto demands = traffic::all_ordered_pairs(topo);
  // Forbid both directions of the first hop of the first demand's
  // shortest path, so some candidates are skipped.
  const auto path = *net::shortest_path(topo, demands[0].src, demands[0].dst);
  HeuristicOptions options;
  options.forbidden_servers = {*topo.find_link(path[0], path[1]),
                               *topo.find_link(path[1], path[0])};
  const auto search = expect_cache_is_transparent(graph, demands, options);
  for (const auto& route : search.best.server_routes)
    for (const net::ServerId bad : options.forbidden_servers)
      EXPECT_EQ(std::find(route.begin(), route.end(), bad), route.end());
}

// ---------------------------------------------------------------------------
// Speculative search: 0 and 2 helper threads give the same search
// ---------------------------------------------------------------------------

void expect_same_search(const MaxUtilResult& a, const MaxUtilResult& b) {
  EXPECT_EQ(a.max_alpha, b.max_alpha);
  EXPECT_EQ(a.any_feasible, b.any_feasible);
  EXPECT_EQ(a.probes, b.probes);
  EXPECT_EQ(a.reverify_hits, b.reverify_hits);
  EXPECT_EQ(a.best.solution.iterations, b.best.solution.iterations);
  expect_same_selection(a.best, b.best);
}

/// Feasible up to `threshold`. The routes and the delay vector record the
/// alpha a result was computed at, so a result from the wrong alpha shows.
/// Sleeps a little, varying with alpha, to vary the interleavings.
RouteSelectionResult threshold_selection(double alpha, double threshold) {
  std::this_thread::sleep_for(std::chrono::microseconds(
      static_cast<int>(std::fmod(alpha * 7919.0, 1.0) * 300.0)));
  RouteSelectionResult r;
  r.success = alpha <= threshold;
  r.routes = {{static_cast<net::NodeId>(alpha * 1e6), 1}};
  r.server_routes = {{static_cast<net::ServerId>(alpha * 1e7)}};
  r.solution.status = r.success ? analysis::FeasibilityStatus::kSafe
                                : analysis::FeasibilityStatus::kDeadlineViolated;
  r.solution.server_delay = {alpha};
  return r;
}

TEST(MaxUtilSearch, SpeculationMatchesSequentialOnSyntheticSelectors) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    util::Xoshiro256 rng(seed);
    const double threshold = rng.uniform(0.0, 1.0);
    const double slack = rng.uniform(0.0, 0.2);
    MaxUtilOptions options;
    options.search_lo = rng.uniform(0.0, 0.5);
    options.search_hi = rng.uniform(options.search_lo, 1.0);
    options.resolution = rng.uniform(0.001, 0.05);
    const RouteSelector selector = [threshold](double alpha) {
      return threshold_selection(alpha, threshold);
    };
    // A route set found at alpha f re-verifies up to f plus a slack that
    // varies with f, so hits and misses mix.
    const RouteReverifier reverifier =
        [slack](double alpha, const RouteSelectionResult& last) {
          const double found = last.solution.server_delay.at(0);
          analysis::DelaySolution sol;
          sol.status = alpha <= found + slack * std::fmod(found * 31.0, 1.0)
                           ? analysis::FeasibilityStatus::kSafe
                           : analysis::FeasibilityStatus::kDeadlineViolated;
          sol.server_delay = {alpha, found};
          return sol;
        };
    for (const bool reuse : {false, true}) {
      options.reuse_feasible_routes = reuse;
      const auto sequential = detail::maximize_utilization(
          4.0, 3, kVoice, kDeadline, selector, options, reverifier, 0);
      const auto speculative = detail::maximize_utilization(
          4.0, 3, kVoice, kDeadline, selector, options, reverifier, 2);
      SCOPED_TRACE(::testing::Message() << "seed=" << seed
                                        << " reuse=" << reuse);
      expect_same_search(sequential, speculative);
      EXPECT_GT(sequential.probes, 0);
    }
  }
}

TEST(MaxUtilSearch, HeuristicIdenticalAtZeroAndTwoHelpers) {
  const auto run = [](const net::ServerGraph& graph,
                      const std::vector<traffic::Demand>& demands,
                      MaxUtilOptions options, int helpers) {
    const detail::CandidateSet candidates(graph, demands, 8, nullptr);
    const HeuristicOptions heuristic;
    return detail::maximize_utilization(
        graph.server(0).fan_in, net::diameter(graph.topology()), kVoice,
        kDeadline,
        [&](double alpha) {
          return detail::select_routes_heuristic(
              graph, alpha, kVoice, kDeadline, demands, heuristic, candidates);
        },
        options,
        [&](double alpha, const RouteSelectionResult& last) {
          return analysis::solve_two_class(
              graph, alpha, kVoice, kDeadline, last.server_routes, {},
              last.solution.safe() ? &last.solution.server_delay : nullptr);
        },
        helpers);
  };
  const auto mci = net::mci_backbone();
  const net::ServerGraph mci_graph(mci, 6u);
  const auto mci_demands = traffic::all_ordered_pairs(mci);
  for (const bool reuse : {true, false}) {
    MaxUtilOptions options;
    options.reuse_feasible_routes = reuse;
    SCOPED_TRACE(::testing::Message() << "MCI reuse=" << reuse);
    const auto sequential = run(mci_graph, mci_demands, options, 0);
    EXPECT_TRUE(sequential.any_feasible);
    expect_same_search(sequential, run(mci_graph, mci_demands, options, 2));
  }
  for (const std::uint64_t seed : {1031u, 1047u}) {
    const auto topo = net::random_connected(30, 3.5, seed);
    const net::ServerGraph graph(topo);
    const auto demands = traffic::all_ordered_pairs(topo);
    SCOPED_TRACE(::testing::Message() << "random_connected seed=" << seed);
    const auto sequential = run(graph, demands, {}, 0);
    EXPECT_TRUE(sequential.any_feasible);
    expect_same_search(sequential, run(graph, demands, {}, 2));
    // The public entry point picks its helpers from the host.
    expect_same_search(sequential, maximize_utilization_heuristic(
                                       graph, kVoice, kDeadline, demands));
  }
}

// The speculative schedule on [0.1, 0.9] at resolution 0.1 with the
// selector feasible up to 0.3: the caller probes 0.1 while the helpers
// run 0.5 and the step after it on the feasible side, 0.7. The 0.5 run
// holds its verdict until 0.7 has started (when `hold` is set), so 0.7 is
// always in flight when 0.5 comes back infeasible and prunes it. The
// sequential search never evaluates 0.7.
constexpr double kPrunedAlpha = 0.7;

MaxUtilOptions pruning_interval() {
  MaxUtilOptions options;
  options.search_lo = 0.1;
  options.search_hi = 0.9;
  options.resolution = 0.1;
  return options;
}

/// Waits (bounded) until `flag` is set; true when it was.
bool wait_for(const std::atomic<bool>& flag, std::chrono::seconds limit) {
  const auto end = std::chrono::steady_clock::now() + limit;
  while (!flag.load()) {
    if (std::chrono::steady_clock::now() > end) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return true;
}

TEST(MaxUtilSearch, PrunedSlowRunEndsEarly) {
  std::atomic<bool> hold{false}, pruned_started{false}, pruned_stopped{false};
  const RouteSelector selector = [&](double alpha) {
    if (alpha == kPrunedAlpha) {
      pruned_started = true;
      // Far slower than the whole search unless cancelled.
      pruned_stopped = [] {
        const auto end =
            std::chrono::steady_clock::now() + std::chrono::seconds(60);
        while (std::chrono::steady_clock::now() < end) {
          if (detail::stop_requested()) return true;
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
        return false;
      }();
    } else if (alpha == 0.5 && hold) {
      wait_for(pruned_started, std::chrono::seconds(10));
    }
    return threshold_selection(alpha, 0.3);
  };
  const auto sequential = detail::maximize_utilization(
      4.0, 3, kVoice, kDeadline, selector, pruning_interval(), {}, 0);
  EXPECT_FALSE(pruned_started.load());

  hold = true;
  const auto start = std::chrono::steady_clock::now();
  const auto speculative = detail::maximize_utilization(
      4.0, 3, kVoice, kDeadline, selector, pruning_interval(), {}, 2);
  const std::chrono::duration<double> took =
      std::chrono::steady_clock::now() - start;
  EXPECT_TRUE(pruned_started.load());
  EXPECT_TRUE(pruned_stopped.load());
  EXPECT_LT(took.count(), 30.0);
  expect_same_search(sequential, speculative);
}

TEST(MaxUtilSearch, ThrowAtConsumedAlphaPropagates) {
  // 0.1 runs on the caller; 0.5 on a helper (then consumed).
  for (const double bad : {0.1, 0.5}) {
    const RouteSelector selector = [bad](double alpha) {
      if (alpha == bad) throw std::runtime_error("selector failed");
      return threshold_selection(alpha, 0.3);
    };
    for (const int helpers : {0, 2}) {
      SCOPED_TRACE(::testing::Message() << "bad=" << bad
                                        << " helpers=" << helpers);
      EXPECT_THROW(detail::maximize_utilization(4.0, 3, kVoice, kDeadline,
                                                selector, pruning_interval(),
                                                {}, helpers),
                   std::runtime_error);
    }
  }
}

TEST(MaxUtilSearch, ThrowAtNeverConsumedAlphaIsDiscarded) {
  std::atomic<bool> hold{false}, pruned_started{false};
  const RouteSelector selector = [&](double alpha) {
    if (alpha == kPrunedAlpha) {
      pruned_started = true;
      throw std::runtime_error("speculative run failed");
    }
    if (alpha == 0.5 && hold) wait_for(pruned_started, std::chrono::seconds(10));
    return threshold_selection(alpha, 0.3);
  };
  const auto sequential = detail::maximize_utilization(
      4.0, 3, kVoice, kDeadline, selector, pruning_interval(), {}, 0);
  EXPECT_FALSE(pruned_started.load());
  hold = true;
  MaxUtilResult speculative;
  EXPECT_NO_THROW(speculative = detail::maximize_utilization(
                      4.0, 3, kVoice, kDeadline, selector, pruning_interval(),
                      {}, 2));
  EXPECT_TRUE(pruned_started.load());
  expect_same_search(sequential, speculative);
}

}  // namespace
}  // namespace ubac::routing
