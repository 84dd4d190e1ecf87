// The candidate set built in parallel chunks on the search's helper pool
// against the serial build: identical arenas, and a bad demand rethrown
// on the calling thread as the serial build would throw it.
#include "routing/candidate_set.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "config/configurator.hpp"
#include "net/ksp.hpp"
#include "net/topology_factory.hpp"
#include "routing/max_util_search.hpp"
#include "traffic/workload.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

namespace ubac::routing::detail {
namespace {

const traffic::LeakyBucket kVoice(640.0, units::kbps(32));
const Seconds kDeadline = units::milliseconds(100);

TEST(CandidateSet, ArenasIdenticalAtZeroAndTwoHelpers) {
  util::ThreadPool pool(2);
  const auto mci = net::mci_backbone();
  const auto random = net::random_connected(30, 3.5, 1031);
  for (const net::Topology* topo : {&mci, &random}) {
    const net::ServerGraph graph(*topo, 6u);
    const auto all = traffic::all_ordered_pairs(*topo);
    // Fewer demands than one chunk, a ragged last chunk, and every pair.
    for (const std::size_t n : {std::size_t{0}, std::size_t{5},
                                std::size_t{37}, all.size()}) {
      const std::vector<traffic::Demand> demands(all.begin(),
                                                 all.begin() + n);
      for (const std::size_t k : {1u, 3u, 8u}) {
        SCOPED_TRACE(::testing::Message() << "routers=" << topo->node_count()
                                          << " demands=" << n << " k=" << k);
        const CandidateSet serial(graph, demands, k, nullptr);
        EXPECT_EQ(serial, CandidateSet(graph, demands, k, nullptr, &pool));
        CandidateSet::Cache cache;
        for (const auto& d : demands)
          cache.push_back(net::k_shortest_paths(*topo, d.src, d.dst, k));
        EXPECT_EQ(serial, CandidateSet(graph, demands, k, &cache, &pool));
        for (std::size_t d = 0; d < n; ++d)
          ASSERT_EQ(serial.count(d), cache[d].size());
      }
    }
  }
}

/// Every ordered pair of a 30-router graph with demand `at` replaced.
std::vector<traffic::Demand> with_bad_demand(const net::Topology& topo,
                                             std::size_t at,
                                             traffic::Demand bad) {
  auto demands = traffic::all_ordered_pairs(topo);
  demands.at(at) = bad;
  return demands;
}

TEST(CandidateSet, FirstBadDemandInOrderIsRethrownOnTheCaller) {
  util::ThreadPool pool(2);
  const auto topo = net::random_connected(30, 3.5, 1047);
  const net::ServerGraph graph(topo);
  const traffic::Demand loop{3, 3, 0};
  const traffic::Demand unknown{4, 999, 0};
  // Demands in different chunks: whichever comes first in demand order
  // decides the exception, whichever thread builds it.
  auto demands = with_bad_demand(topo, 700, loop);
  demands.at(200) = unknown;
  for (util::ThreadPool* helpers : {static_cast<util::ThreadPool*>(nullptr),
                                    &pool}) {
    EXPECT_THROW(CandidateSet(graph, demands, 8, nullptr, helpers),
                 std::out_of_range);
    std::swap(demands.at(200), demands.at(700));
    EXPECT_THROW(CandidateSet(graph, demands, 8, nullptr, helpers),
                 std::invalid_argument);
    std::swap(demands.at(200), demands.at(700));
  }
  // The pool is idle and usable again.
  const auto good = traffic::all_ordered_pairs(topo);
  EXPECT_EQ(CandidateSet(graph, good, 8, nullptr),
            CandidateSet(graph, good, 8, nullptr, &pool));
}

TEST(CandidateSet, BadDemandThrowsFromTheSearchAndTheConfigurator) {
  const auto topo = net::random_connected(30, 3.5, 1047);
  const net::ServerGraph graph(topo);
  const config::Configurator configurator(graph, kVoice, kDeadline);
  for (const std::size_t at : {std::size_t{0}, std::size_t{600}}) {
    SCOPED_TRACE(::testing::Message() << "bad demand at " << at);
    const auto loop = with_bad_demand(topo, at, {5, 5, 0});
    EXPECT_THROW(maximize_utilization_heuristic(graph, kVoice, kDeadline, loop),
                 std::invalid_argument);
    EXPECT_THROW(configurator.maximize(loop), std::invalid_argument);
    const auto unknown = with_bad_demand(topo, at, {999, 5, 0});
    EXPECT_THROW(
        maximize_utilization_heuristic(graph, kVoice, kDeadline, unknown),
        std::out_of_range);
    EXPECT_THROW(configurator.maximize(unknown), std::out_of_range);
  }
}

}  // namespace
}  // namespace ubac::routing::detail
