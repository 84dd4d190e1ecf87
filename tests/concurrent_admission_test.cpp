// Concurrency test suite for the atomic admission controller: conservation
// and high-watermark invariants under multi-threaded churn, deterministic
// interleavings around the last slot of a hop, rollback restoration, and
// double-release races. Built (and run in CI) under ThreadSanitizer via
// -DUBAC_SANITIZE=thread.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <barrier>
#include <set>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "admission/controller.hpp"
#include "admission/sequential_controller.hpp"
#include "admission/telemetry.hpp"
#include "telemetry/metrics.hpp"
#include "net/shortest_path.hpp"
#include "net/topology_factory.hpp"
#include "traffic/workload.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

namespace ubac::admission {
namespace {

using traffic::ClassSet;
using traffic::LeakyBucket;
using units::kbps;
using units::milliseconds;

const LeakyBucket kVoice(640.0, kbps(32));

/// MCI backbone with shortest-path routes for every ordered pair; the
/// share is small so concurrent churn actually saturates links and
/// exercises the rollback path.
struct MciFixture {
  net::Topology topo = net::mci_backbone();
  net::ServerGraph graph{topo, 6u};
  ClassSet classes = ClassSet::two_class(kVoice, milliseconds(100), 0.05);
  std::vector<traffic::Demand> demands = traffic::all_ordered_pairs(topo);
  RoutingTable table;

  MciFixture() {
    std::vector<net::ServerPath> routes;
    for (const auto& d : demands)
      routes.push_back(
          graph.map_path(net::shortest_path(topo, d.src, d.dst).value()));
    table = RoutingTable(demands, routes);
  }
};

struct WorkerTally {
  std::vector<traffic::FlowId> held;  ///< flows still registered at the end
  std::size_t admitted = 0;
  std::size_t util_rejected = 0;
  std::size_t released = 0;
};

// T threads x K randomized admit/release iterations, then two invariants:
//  1. Conservation: every reserved_rate(server, class) equals exactly the
//     sum of rates of currently-registered flows crossing that hop.
//  2. Safety: the high watermark of every counter never exceeded alpha*C.
TEST(ConcurrentAdmission, ConservationAndHighWatermarkUnderChurn) {
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kItersPerThread = 12'500;  // 100k ops total

  MciFixture f;
  AdmissionController ctl(f.graph, f.classes, f.table);
  std::vector<WorkerTally> tallies(kThreads);

  util::ThreadPool pool(kThreads);
  pool.parallel_for(kThreads, [&](std::size_t t) {
    util::Xoshiro256 rng(0xC0FFEE + t);
    WorkerTally& tally = tallies[t];
    for (std::size_t k = 0; k < kItersPerThread; ++k) {
      const bool do_release =
          !tally.held.empty() && rng.bernoulli(0.45);
      if (do_release) {
        const auto pos = rng.uniform_index(tally.held.size());
        const traffic::FlowId id = tally.held[pos];
        ASSERT_TRUE(ctl.release(id)) << "own flow vanished";
        tally.held[pos] = tally.held.back();
        tally.held.pop_back();
        ++tally.released;
      } else {
        const auto& d = f.demands[rng.uniform_index(f.demands.size())];
        const auto decision = ctl.request(d.src, d.dst, d.class_index);
        if (decision.admitted()) {
          tally.held.push_back(decision.flow_id);
          ++tally.admitted;
        } else {
          ASSERT_EQ(decision.outcome,
                    AdmissionOutcome::kUtilizationExceeded);
          ++tally.util_rejected;
        }
      }
    }
  });

  // Rollback must have been exercised: the small share saturates links.
  std::size_t total_rejected = 0, total_held = 0;
  for (const auto& tally : tallies) {
    total_rejected += tally.util_rejected;
    total_held += tally.held.size();
  }
  EXPECT_GT(total_rejected, 0u) << "share too generous, nothing saturated";
  EXPECT_EQ(ctl.active_flows(), total_held);

  // Conservation: rebuild the per-server registered-rate sum from the
  // surviving flows and compare exactly (fixed-point counters cancel
  // exactly, so no tolerance is needed).
  std::vector<std::size_t> crossing(f.graph.size(), 0);
  for (const auto& tally : tallies)
    for (const traffic::FlowId id : tally.held) {
      const auto flow = ctl.find_flow(id);
      ASSERT_TRUE(flow.has_value());
      for (const net::ServerId s : *flow->route) ++crossing[s];
    }
  for (net::ServerId s = 0; s < f.graph.size(); ++s) {
    EXPECT_DOUBLE_EQ(ctl.reserved_rate(s, 0),
                     static_cast<double>(crossing[s]) * kVoice.rate)
        << "server " << s;
    // Safety: the counter never held more than alpha*C, not even
    // transiently between racing CAS loops.
    const BitsPerSecond cap = 0.05 * f.graph.server(s).capacity;
    EXPECT_LE(ctl.peak_reserved_rate(s, 0), cap) << "server " << s;
    EXPECT_GE(ctl.peak_reserved_rate(s, 0), ctl.reserved_rate(s, 0));
  }

  // Releasing every survivor returns the controller to pristine state.
  for (const auto& tally : tallies)
    for (const traffic::FlowId id : tally.held) ASSERT_TRUE(ctl.release(id));
  EXPECT_EQ(ctl.active_flows(), 0u);
  for (net::ServerId s = 0; s < f.graph.size(); ++s)
    EXPECT_DOUBLE_EQ(ctl.reserved_rate(s, 0), 0.0);
}

// Two flows racing for the last slot on a shared hop: exactly one
// kAdmitted and one kUtilizationExceeded, every round.
TEST(ConcurrentAdmission, LastSlotRaceYieldsExactlyOneAdmit) {
  net::Topology topo = net::line(3);
  net::ServerGraph graph(topo, 6u);
  // alpha*C/rho = 0.32 * 100e6 / 32e3 = 1000 slots on the link.
  const auto classes = ClassSet::two_class(kVoice, milliseconds(100), 0.32);
  RoutingTable table;
  table.set({0, 1, 0}, graph.map_path({0, 1}));
  AdmissionController ctl(graph, classes, table);

  for (int i = 0; i < 999; ++i) ASSERT_TRUE(ctl.request(0, 1, 0).admitted());

  for (int round = 0; round < 200; ++round) {
    std::barrier sync(2);
    std::array<AdmissionDecision, 2> decisions;
    std::array<std::thread, 2> racers;
    for (int r = 0; r < 2; ++r)
      racers[r] = std::thread([&, r] {
        sync.arrive_and_wait();
        decisions[r] = ctl.request(0, 1, 0);
      });
    for (auto& th : racers) th.join();

    const int admits = decisions[0].admitted() + decisions[1].admitted();
    ASSERT_EQ(admits, 1) << "round " << round;
    const auto& loser = decisions[decisions[0].admitted() ? 1 : 0];
    ASSERT_EQ(loser.outcome, AdmissionOutcome::kUtilizationExceeded);
    ASSERT_EQ(loser.blocking_hop, 0u);
    ASSERT_EQ(ctl.active_flows(), 1000u);
    // Put the slot back for the next round.
    const auto& winner = decisions[decisions[0].admitted() ? 0 : 1];
    ASSERT_TRUE(ctl.release(winner.flow_id));
  }
  EXPECT_DOUBLE_EQ(ctl.peak_reserved_rate(graph.map_path({0, 1})[0], 0),
                   1000.0 * kVoice.rate);
}

// A request that saturates mid-route must restore every earlier hop to
// its prior reservation (conservation-neutral rollback).
TEST(ConcurrentAdmission, RollbackRestoresEarlierHops) {
  net::Topology topo = net::line(4);
  net::ServerGraph graph(topo, 6u);
  const auto classes = ClassSet::two_class(kVoice, milliseconds(100), 0.32);
  RoutingTable table;
  table.set({0, 3, 0}, graph.map_path({0, 1, 2, 3}));
  table.set({0, 1, 0}, graph.map_path({0, 1}));
  table.set({2, 3, 0}, graph.map_path({2, 3}));
  AdmissionController ctl(graph, classes, table);
  const auto route = table.lookup(0, 3, 0).value();  // [s01, s12, s23]

  // Give the first hop a non-zero baseline, then fill the last hop.
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(ctl.request(0, 1, 0).admitted());
  for (int i = 0; i < 1000; ++i)
    ASSERT_TRUE(ctl.request(2, 3, 0).admitted());

  const BitsPerSecond before_hop0 = ctl.reserved_rate(route[0], 0);
  const BitsPerSecond before_hop1 = ctl.reserved_rate(route[1], 0);
  const std::size_t before_active = ctl.active_flows();

  const auto decision = ctl.request(0, 3, 0);
  EXPECT_EQ(decision.outcome, AdmissionOutcome::kUtilizationExceeded);
  EXPECT_EQ(decision.blocking_hop, 2u);

  EXPECT_DOUBLE_EQ(ctl.reserved_rate(route[0], 0), before_hop0);
  EXPECT_DOUBLE_EQ(ctl.reserved_rate(route[1], 0), before_hop1);
  EXPECT_EQ(ctl.active_flows(), before_active);
  // The transient reservation on hops 0..1 may have raised their peak,
  // but never past the cap.
  EXPECT_LE(ctl.peak_reserved_rate(route[0], 0),
            0.32 * graph.server(route[0]).capacity);
}

// Two threads racing to release the same flow: exactly one succeeds.
TEST(ConcurrentAdmission, DoubleReleaseRaceExactlyOneSucceeds) {
  net::Topology topo = net::line(3);
  net::ServerGraph graph(topo, 6u);
  const auto classes = ClassSet::two_class(kVoice, milliseconds(100), 0.32);
  RoutingTable table;
  table.set({0, 2, 0}, graph.map_path({0, 1, 2}));
  AdmissionController ctl(graph, classes, table);

  for (int round = 0; round < 200; ++round) {
    const auto decision = ctl.request(0, 2, 0);
    ASSERT_TRUE(decision.admitted());
    std::barrier sync(2);
    std::atomic<int> successes{0};
    std::array<std::thread, 2> racers;
    for (int r = 0; r < 2; ++r)
      racers[r] = std::thread([&] {
        sync.arrive_and_wait();
        if (ctl.release(decision.flow_id)) successes.fetch_add(1);
      });
    for (auto& th : racers) th.join();
    ASSERT_EQ(successes.load(), 1) << "round " << round;
    ASSERT_EQ(ctl.active_flows(), 0u);
  }
  for (net::ServerId s = 0; s < graph.size(); ++s)
    EXPECT_DOUBLE_EQ(ctl.reserved_rate(s, 0), 0.0);
}

// -- Batch admission semantics ----------------------------------------------

// admit_batch(k demands) must be indistinguishable from k request() calls
// made in the same order on an identical controller: same outcomes, same
// flow ids, same final ledger.
TEST(ConcurrentAdmission, BatchEqualsSequentialSingleThreaded) {
  MciFixture f;
  AdmissionController batched(f.graph, f.classes, f.table);
  AdmissionController sequential(f.graph, f.classes, f.table);

  util::Xoshiro256 rng(0xBA7C4);
  constexpr std::size_t kBatch = 16;
  std::vector<traffic::Demand> wave;
  std::vector<AdmissionDecision> decisions(kBatch);
  for (int round = 0; round < 400; ++round) {
    wave.clear();
    for (std::size_t i = 0; i < kBatch; ++i)
      wave.push_back(f.demands[rng.uniform_index(f.demands.size())]);

    const std::size_t admitted = batched.admit_batch(
        std::span<const traffic::Demand>(wave),
        std::span<AdmissionDecision>(decisions));

    std::size_t expect_admitted = 0;
    for (std::size_t i = 0; i < kBatch; ++i) {
      const auto ref =
          sequential.request(wave[i].src, wave[i].dst, wave[i].class_index);
      ASSERT_EQ(decisions[i].outcome, ref.outcome)
          << "round " << round << " slot " << i;
      if (ref.admitted()) {
        ++expect_admitted;
        ASSERT_EQ(decisions[i].flow_id, ref.flow_id);
      } else {
        ASSERT_EQ(decisions[i].blocking_hop, ref.blocking_hop);
      }
    }
    ASSERT_EQ(admitted, expect_admitted);
    ASSERT_EQ(batched.active_flows(), sequential.active_flows());
  }
  for (net::ServerId s = 0; s < f.graph.size(); ++s)
    ASSERT_EQ(batched.reserved_units(s, 0), sequential.reserved_units(s, 0))
        << "server " << s;
}

// Deterministic mid-batch saturation: capacity fits m < k flows, so one
// batch of k identical demands admits exactly the first m and rejects the
// suffix — the not-yet-committed tail rolls back without disturbing the
// committed prefix.
TEST(ConcurrentAdmission, MidBatchSaturationCommitsPrefixRejectsSuffix) {
  net::Topology topo = net::line(3);
  net::ServerGraph graph(topo, 6u);
  // alpha*C/rho = 0.32 * 100e6 / 32e3 = 1000 slots on the link.
  const auto classes = ClassSet::two_class(kVoice, milliseconds(100), 0.32);
  RoutingTable table;
  table.set({0, 1, 0}, graph.map_path({0, 1}));
  AdmissionController ctl(graph, classes, table);

  // Leave exactly 7 slots, then offer a batch of 16.
  for (int i = 0; i < 993; ++i) ASSERT_TRUE(ctl.request(0, 1, 0).admitted());
  const traffic::RateUnits before = ctl.reserved_units(graph.map_path({0, 1})[0], 0);

  std::vector<traffic::Demand> wave(16, traffic::Demand{0, 1, 0});
  std::vector<AdmissionDecision> decisions(wave.size());
  const std::size_t admitted = ctl.admit_batch(
      std::span<const traffic::Demand>(wave),
      std::span<AdmissionDecision>(decisions));

  ASSERT_EQ(admitted, 7u);
  for (std::size_t i = 0; i < wave.size(); ++i) {
    if (i < 7) {
      ASSERT_TRUE(decisions[i].admitted()) << "slot " << i;
      ASSERT_NE(decisions[i].flow_id, 0u);
    } else {
      ASSERT_EQ(decisions[i].outcome, AdmissionOutcome::kUtilizationExceeded)
          << "slot " << i;
      ASSERT_EQ(decisions[i].blocking_hop, 0u);
    }
  }
  ASSERT_EQ(ctl.active_flows(), 1000u);
  // Ledger: prefix committed, suffix fully rolled back — exact in units.
  const net::ServerId link = graph.map_path({0, 1})[0];
  ASSERT_EQ(ctl.reserved_units(link, 0),
            before + 7 * traffic::quantize_demand_up(kVoice.rate));
  EXPECT_DOUBLE_EQ(ctl.reserved_rate(link, 0), 1000.0 * kVoice.rate);
  // Every admitted slot is individually releasable.
  for (std::size_t i = 0; i < 7; ++i)
    ASSERT_TRUE(ctl.release(decisions[i].flow_id));
  EXPECT_DOUBLE_EQ(ctl.reserved_rate(link, 0), 993.0 * kVoice.rate);
}

// Two threads racing whole batches for the same finite link: the pool
// never over-admits, the ledger conserves, and the peak never passes the
// cap — regardless of how the two batches interleave mid-flight.
TEST(ConcurrentAdmission, RacingBatchesNeverOverAdmit) {
  net::Topology topo = net::line(3);
  net::ServerGraph graph(topo, 6u);
  const auto classes = ClassSet::two_class(kVoice, milliseconds(100), 0.32);
  RoutingTable table;
  table.set({0, 1, 0}, graph.map_path({0, 1}));
  const net::ServerId link = graph.map_path({0, 1})[0];
  const BitsPerSecond cap = 0.32 * graph.server(link).capacity;

  for (int round = 0; round < 50; ++round) {
    AdmissionController ctl(graph, classes, table);
    constexpr std::size_t kPerThread = 600;  // 1200 offered vs 1000 slots
    std::vector<traffic::Demand> wave(kPerThread, traffic::Demand{0, 1, 0});
    std::array<std::vector<AdmissionDecision>, 2> decisions{
        std::vector<AdmissionDecision>(kPerThread),
        std::vector<AdmissionDecision>(kPerThread)};
    std::array<std::size_t, 2> admitted{};
    std::barrier sync(2);
    std::array<std::thread, 2> racers;
    for (int r = 0; r < 2; ++r)
      racers[r] = std::thread([&, r] {
        sync.arrive_and_wait();
        admitted[r] = ctl.admit_batch(
            std::span<const traffic::Demand>(wave),
            std::span<AdmissionDecision>(decisions[r]));
      });
    for (auto& th : racers) th.join();

    ASSERT_EQ(admitted[0] + admitted[1], 1000u) << "round " << round;
    ASSERT_EQ(ctl.active_flows(), 1000u);
    EXPECT_DOUBLE_EQ(ctl.reserved_rate(link, 0), 1000.0 * kVoice.rate);
    ASSERT_LE(ctl.peak_reserved_rate(link, 0), cap);

    // Every admitted decision carries a distinct, releasable flow id.
    std::size_t released = 0;
    for (const auto& side : decisions)
      for (const auto& d : side)
        if (d.admitted()) {
          ASSERT_TRUE(ctl.release(d.flow_id));
          ++released;
        }
    ASSERT_EQ(released, 1000u);
    ASSERT_EQ(ctl.active_flows(), 0u);
  }
}

// 8 threads mixing whole-batch admits, single admits, single releases and
// release_batch over the MCI backbone: the same conservation and
// high-watermark invariants as the single-op churn test must hold.
TEST(ConcurrentAdmission, ConservationUnderMixedBatchAndSingleChurn) {
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kItersPerThread = 3'000;
  constexpr std::size_t kBatch = 8;

  MciFixture f;
  AdmissionController ctl(f.graph, f.classes, f.table);
  std::vector<WorkerTally> tallies(kThreads);

  util::ThreadPool pool(kThreads);
  pool.parallel_for(kThreads, [&](std::size_t t) {
    util::Xoshiro256 rng(0xBEEF00 + t);
    WorkerTally& tally = tallies[t];
    std::vector<traffic::Demand> wave;
    std::vector<AdmissionDecision> decisions(kBatch);
    std::vector<traffic::FlowId> drop;
    for (std::size_t k = 0; k < kItersPerThread; ++k) {
      const bool prefer_batch = rng.bernoulli(0.5);
      if (!tally.held.empty() && rng.bernoulli(0.40)) {
        if (tally.held.size() >= kBatch && rng.bernoulli(0.5)) {
          // Bulk release the tail of our held set.
          drop.assign(tally.held.end() - kBatch, tally.held.end());
          tally.held.resize(tally.held.size() - kBatch);
          ASSERT_EQ(ctl.release_batch(drop), kBatch);
          tally.released += kBatch;
        } else {
          const auto pos = rng.uniform_index(tally.held.size());
          ASSERT_TRUE(ctl.release(tally.held[pos]));
          tally.held[pos] = tally.held.back();
          tally.held.pop_back();
          ++tally.released;
        }
      } else if (prefer_batch) {
        // Whole-batch admit of random demands.
        wave.clear();
        for (std::size_t i = 0; i < kBatch; ++i)
          wave.push_back(f.demands[rng.uniform_index(f.demands.size())]);
        ctl.admit_batch(std::span<const traffic::Demand>(wave),
                        std::span<AdmissionDecision>(decisions));
        for (const auto& d : decisions) {
          if (d.admitted()) {
            tally.held.push_back(d.flow_id);
            ++tally.admitted;
          } else {
            ASSERT_EQ(d.outcome, AdmissionOutcome::kUtilizationExceeded);
            ++tally.util_rejected;
          }
        }
      } else {
        const auto& d = f.demands[rng.uniform_index(f.demands.size())];
        const auto decision = ctl.request(d.src, d.dst, d.class_index);
        if (decision.admitted()) {
          tally.held.push_back(decision.flow_id);
          ++tally.admitted;
        } else {
          ++tally.util_rejected;
        }
      }
    }
  });

  std::size_t total_rejected = 0, total_held = 0;
  for (const auto& tally : tallies) {
    total_rejected += tally.util_rejected;
    total_held += tally.held.size();
  }
  EXPECT_GT(total_rejected, 0u) << "share too generous, nothing saturated";
  EXPECT_EQ(ctl.active_flows(), total_held);

  std::vector<std::size_t> crossing(f.graph.size(), 0);
  for (const auto& tally : tallies)
    for (const traffic::FlowId id : tally.held) {
      const auto flow = ctl.find_flow(id);
      ASSERT_TRUE(flow.has_value());
      for (const net::ServerId s : *flow->route) ++crossing[s];
    }
  const traffic::RateUnits rho = traffic::quantize_demand_up(kVoice.rate);
  for (net::ServerId s = 0; s < f.graph.size(); ++s) {
    ASSERT_EQ(ctl.reserved_units(s, 0), crossing[s] * rho) << "server " << s;
    ASSERT_LE(ctl.peak_reserved_rate(s, 0),
              0.05 * f.graph.server(s).capacity)
        << "server " << s;
  }

  // Drain everything through release_batch and verify pristine state.
  std::vector<traffic::FlowId> survivors;
  for (const auto& tally : tallies)
    survivors.insert(survivors.end(), tally.held.begin(), tally.held.end());
  ASSERT_EQ(ctl.release_batch(survivors), survivors.size());
  EXPECT_EQ(ctl.active_flows(), 0u);
  for (net::ServerId s = 0; s < f.graph.size(); ++s)
    ASSERT_EQ(ctl.reserved_units(s, 0), 0u);
}

// -- Registry lanes ------------------------------------------------------------

/// Lane bits of a flow id (the top 16 bits; lanes 0..15 are issued).
std::uint64_t lane_bits(traffic::FlowId id) { return id >> 48; }

/// One-link rig: 1000 voice flows fit the 0-1 hop at alpha = 0.32.
struct LineRig {
  net::Topology topo = net::line(3);
  net::ServerGraph graph{topo, 6u};
  ClassSet classes = ClassSet::two_class(kVoice, milliseconds(100), 0.32);
  RoutingTable table;
  LineRig() { table.set({0, 2, 0}, graph.map_path({0, 1, 2})); }
};

// A flow admitted on one thread (its lane) and released on another: the
// release finds the owning lane from the id and the ledger drains to 0.
TEST(ConcurrentAdmission, CrossThreadReleaseDrainsLedger) {
  LineRig rig;
  AdmissionController ctl(rig.graph, rig.classes, rig.table);
  // The main thread takes lane 0 first, so the admitting thread below is
  // on a lane of its own and every release crosses lanes.
  ASSERT_TRUE(ctl.request(0, 2, 0).admitted());

  std::vector<traffic::FlowId> ids;
  std::thread admitter([&] {
    for (int i = 0; i < 600; ++i) {
      const auto decision = ctl.request(0, 2, 0);
      ASSERT_TRUE(decision.admitted());
      ids.push_back(decision.flow_id);
    }
  });
  admitter.join();
  ASSERT_EQ(ids.size(), 600u);
  for (const traffic::FlowId id : ids) ASSERT_EQ(lane_bits(id), 1u);

  std::thread releaser([&] {
    // Half one at a time, half as one batch.
    for (std::size_t i = 0; i < 300; ++i) {
      ASSERT_TRUE(ctl.find_flow(ids[i]).has_value());
      ASSERT_TRUE(ctl.release(ids[i]));
    }
    ASSERT_EQ(ctl.release_batch(std::span<const traffic::FlowId>(ids).subspan(
                  300)),
              300u);
    ASSERT_EQ(ctl.active_flows(), 1u);
    ASSERT_TRUE(ctl.release(1));  // the main thread's flow, lane 0
  });
  releaser.join();

  EXPECT_EQ(ctl.active_flows(), 0u);
  for (net::ServerId s = 0; s < rig.graph.size(); ++s)
    EXPECT_EQ(ctl.reserved_units(s, 0), 0u) << "server " << s;
}

// More threads than lanes: the 17th and later threads alive at once share
// lanes. Ids must stay unique, the ledger exact, and every counter 0 after
// a drain. Every worker stays alive until all have finished, because a
// thread hands its lane back when it exits.
TEST(ConcurrentAdmission, SharedLanesPast16ThreadsKeepIdsUniqueAndLedgerExact) {
  constexpr std::size_t kThreads = 24;
  constexpr std::size_t kItersPerThread = 4'000;

  MciFixture f;
  AdmissionController ctl(f.graph, f.classes, f.table);
  std::vector<WorkerTally> tallies(kThreads);
  std::vector<std::vector<traffic::FlowId>> issued(kThreads);

  std::barrier start(static_cast<std::ptrdiff_t>(kThreads));
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t)
    workers.emplace_back([&, t] {
      start.arrive_and_wait();
      [&] {
        util::Xoshiro256 rng(0x5A4ED + t);
        WorkerTally& tally = tallies[t];
        for (std::size_t k = 0; k < kItersPerThread; ++k) {
          if (!tally.held.empty() && rng.bernoulli(0.45)) {
            const auto pos = rng.uniform_index(tally.held.size());
            ASSERT_TRUE(ctl.release(tally.held[pos]));
            tally.held[pos] = tally.held.back();
            tally.held.pop_back();
          } else {
            const auto& d = f.demands[rng.uniform_index(f.demands.size())];
            const auto decision = ctl.request(d.src, d.dst, d.class_index);
            if (!decision.admitted()) continue;
            tally.held.push_back(decision.flow_id);
            issued[t].push_back(decision.flow_id);
          }
        }
      }();
      start.arrive_and_wait();
    });
  for (auto& w : workers) w.join();

  std::vector<traffic::FlowId> all;
  std::set<std::uint64_t> lanes;
  for (const auto& ids : issued)
    for (const traffic::FlowId id : ids) {
      all.push_back(id);
      lanes.insert(lane_bits(id));
    }
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end())
      << "a flow id was issued twice";
  EXPECT_EQ(lanes.size(), 16u) << "24 admitting threads claim every lane";
  EXPECT_LT(*lanes.rbegin(), 16u);

  std::size_t total_held = 0;
  std::vector<std::size_t> crossing(f.graph.size(), 0);
  for (const auto& tally : tallies)
    for (const traffic::FlowId id : tally.held) {
      ++total_held;
      const auto flow = ctl.find_flow(id);
      ASSERT_TRUE(flow.has_value());
      for (const net::ServerId s : *flow->route) ++crossing[s];
    }
  EXPECT_EQ(ctl.active_flows(), total_held);
  const traffic::RateUnits rho = traffic::quantize_demand_up(kVoice.rate);
  for (net::ServerId s = 0; s < f.graph.size(); ++s) {
    ASSERT_EQ(ctl.reserved_units(s, 0), crossing[s] * rho) << "server " << s;
    ASSERT_LE(ctl.peak_reserved_rate(s, 0),
              0.05 * f.graph.server(s).capacity)
        << "server " << s;
  }

  for (const auto& tally : tallies)
    ASSERT_EQ(ctl.release_batch(tally.held), tally.held.size());
  EXPECT_EQ(ctl.active_flows(), 0u);
  for (net::ServerId s = 0; s < f.graph.size(); ++s)
    ASSERT_EQ(ctl.reserved_units(s, 0), 0u) << "server " << s;
}

// Ids whose lane bits name no lane were never issued: release() and
// find_flow() refuse them, release_batch() counts them as unknown, and the
// ledger is untouched.
TEST(ConcurrentAdmission, IdsWithOutOfRangeLaneBitsAreUnknown) {
  LineRig rig;
  AdmissionController ctl(rig.graph, rig.classes, rig.table);
  telemetry::MetricsRegistry registry;
  ControllerTelemetry instruments(registry, "concurrent");
  ctl.attach_telemetry(&instruments);

  const auto held = ctl.request(0, 2, 0);
  ASSERT_TRUE(held.admitted());
  ASSERT_EQ(held.flow_id, 1u);
  const traffic::RateUnits before = ctl.reserved_units(0, 0);

  const std::vector<traffic::FlowId> bad{
      (traffic::FlowId{16} << 48) | 1,      // first lane past the last
      (traffic::FlowId{0xFFFF} << 48) | 1,  // all lane bits set
      traffic::FlowId{1} << 52,
      ~traffic::FlowId{0}};
  for (const traffic::FlowId id : bad) {
    EXPECT_FALSE(ctl.release(id)) << id;
    EXPECT_FALSE(ctl.find_flow(id).has_value()) << id;
  }
  EXPECT_EQ(instruments.unknown_releases->value(), bad.size());
  EXPECT_EQ(ctl.reserved_units(0, 0), before);

  std::vector<traffic::FlowId> mixed = bad;
  mixed.push_back(held.flow_id);
  EXPECT_EQ(ctl.release_batch(mixed), 1u);
  EXPECT_EQ(instruments.unknown_releases->value(), 2 * bad.size());
  EXPECT_EQ(instruments.releases->value(), 1u);
  EXPECT_EQ(ctl.active_flows(), 0u);
  for (net::ServerId s = 0; s < rig.graph.size(); ++s)
    EXPECT_EQ(ctl.reserved_units(s, 0), 0u) << "server " << s;
}

// Every issued id is an exact JSON number (below 2^53), whichever lane and
// whichever call — request() or admit_batch() — issued it.
TEST(ConcurrentAdmission, EveryIssuedIdIsBelow2To53) {
  constexpr std::size_t kThreads = 20;
  LineRig rig;
  AdmissionController ctl(rig.graph, rig.classes, rig.table);
  std::vector<std::vector<traffic::FlowId>> issued(kThreads);
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t)
    workers.emplace_back([&, t] {
      const std::vector<traffic::Demand> wave(4, traffic::Demand{0, 2, 0});
      std::vector<AdmissionDecision> decisions(wave.size());
      for (int i = 0; i < 10; ++i) {
        const auto single = ctl.request(0, 2, 0);
        if (single.admitted()) issued[t].push_back(single.flow_id);
        ctl.admit_batch(wave, decisions);
        for (const auto& d : decisions)
          if (d.admitted()) issued[t].push_back(d.flow_id);
      }
    });
  for (auto& w : workers) w.join();

  std::size_t count = 0;
  for (const auto& ids : issued)
    for (const traffic::FlowId id : ids) {
      ++count;
      ASSERT_LT(id, traffic::FlowId{1} << 53);
      ASSERT_EQ(static_cast<traffic::FlowId>(static_cast<double>(id)), id);
    }
  EXPECT_EQ(count, 1000u);  // 20 x 50 offers, exactly the link's 1000 slots
  EXPECT_EQ(ctl.active_flows(), 1000u);
}

// One thread alternating between two controllers holds lane 0 on both, so
// each controller's ids still follow its own oracle's 1, 2, 3...
TEST(ConcurrentAdmission, AlternatingControllersOnOneThreadMatchOracleIds) {
  const auto topo = net::line(4);
  const net::ServerGraph graph(topo, 6u);
  const auto classes = ClassSet::two_class(kVoice, milliseconds(100), 0.002);
  RoutingTable table;
  table.set({0, 3, 0}, graph.map_path({0, 1, 2, 3}));
  table.set({1, 3, 0}, graph.map_path({1, 2, 3}));
  table.set({2, 3, 0}, graph.map_path({2, 3}));
  const std::vector<traffic::Demand> demands{{0, 3, 0}, {1, 3, 0}, {2, 3, 0}};

  std::array<std::unique_ptr<AdmissionController>, 2> ctl;
  std::array<std::unique_ptr<SequentialAdmissionController>, 2> oracle;
  std::array<std::vector<traffic::FlowId>, 2> active;
  for (std::size_t c = 0; c < 2; ++c) {
    ctl[c] = std::make_unique<AdmissionController>(graph, classes, table);
    oracle[c] =
        std::make_unique<SequentialAdmissionController>(graph, classes, table);
  }
  util::Xoshiro256 rng(0xA17E);
  std::size_t admitted = 0;
  for (int step = 0; step < 2000; ++step) {
    const std::size_t c = step % 2;
    if (!active[c].empty() && rng.bernoulli(0.4)) {
      const auto pos = rng.uniform_index(active[c].size());
      const traffic::FlowId id = active[c][pos];
      active[c][pos] = active[c].back();
      active[c].pop_back();
      ASSERT_TRUE(ctl[c]->release(id));
      ASSERT_TRUE(oracle[c]->release(id));
    } else {
      const auto& d = demands[rng.uniform_index(demands.size())];
      const auto got = ctl[c]->request(d.src, d.dst, d.class_index);
      const auto want = oracle[c]->request(d.src, d.dst, d.class_index);
      ASSERT_EQ(got.outcome, want.outcome) << "step " << step;
      if (!want.admitted()) continue;
      ASSERT_EQ(got.flow_id, want.flow_id) << "step " << step;
      active[c].push_back(got.flow_id);
      ++admitted;
    }
  }
  EXPECT_GT(admitted, 100u);
}

// A routing table whose node ids are too sparse for the dense route index
// is refused at construction rather than served from a slower path.
TEST(ConcurrentAdmission, RejectsNodeIdsTooSparseForTheDenseIndex) {
  LineRig rig;
  RoutingTable sparse = rig.table;
  sparse.set({0, 1u << 20, 0}, rig.graph.map_path({0, 1}));
  EXPECT_THROW(AdmissionController(rig.graph, rig.classes, sparse),
               std::invalid_argument);
}

}  // namespace
}  // namespace ubac::admission
