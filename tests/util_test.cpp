// Tests for src/util: rng, stats, histogram, table, csv, cli, thread pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <latch>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/histogram.hpp"
#include "util/lane_claims.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

namespace ubac {
namespace {

TEST(Units, Conversions) {
  EXPECT_DOUBLE_EQ(units::milliseconds(100), 0.1);
  EXPECT_DOUBLE_EQ(units::kbps(32), 32000.0);
  EXPECT_DOUBLE_EQ(units::mbps(100), 100e6);
  EXPECT_DOUBLE_EQ(units::bytes(80), 640.0);
  EXPECT_DOUBLE_EQ(units::to_ms(0.1), 100.0);
}

TEST(Rng, DeterministicForSeed) {
  util::Xoshiro256 a(42), b(42), c(43);
  bool any_diff = false;
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next();
    EXPECT_EQ(va, b.next());
    if (va != c.next()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Rng, UniformInUnitInterval) {
  util::Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIndexBounds) {
  util::Xoshiro256 rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_index(5));
  EXPECT_EQ(seen.size(), 5u);  // all values hit
  EXPECT_THROW(rng.uniform_index(0), std::invalid_argument);
}

TEST(Rng, UniformIntInclusiveRange) {
  util::Xoshiro256 rng(11);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
  }
  EXPECT_THROW(rng.uniform_int(2, 1), std::invalid_argument);
}

TEST(Rng, ExponentialMean) {
  util::Xoshiro256 rng(1234);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / n, 2.0, 0.05);
  EXPECT_THROW(rng.exponential(0.0), std::invalid_argument);
}

TEST(Rng, ShufflePermutes) {
  util::Xoshiro256 rng(5);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  EXPECT_TRUE(std::is_permutation(v.begin(), v.end(), sorted.begin()));
}

TEST(OnlineStats, MatchesDirectComputation) {
  util::OnlineStats s;
  const std::vector<double> xs{1.0, 2.0, 4.0, 8.0, 16.0};
  double sum = 0.0;
  for (double x : xs) {
    s.add(x);
    sum += x;
  }
  const double mean = sum / xs.size();
  double var = 0.0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= (xs.size() - 1);
  EXPECT_DOUBLE_EQ(s.mean(), mean);
  EXPECT_NEAR(s.variance(), var, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 16.0);
  EXPECT_EQ(s.count(), 5u);
}

TEST(OnlineStats, MergeEqualsSequential) {
  util::OnlineStats a, b, all;
  for (int i = 0; i < 50; ++i) {
    const double x = std::sin(i) * 10.0;
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Samples, QuantilesExact) {
  util::Samples s;
  for (int i = 100; i >= 1; --i) s.add(i);  // 1..100, reverse insertion
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 100.0);
  EXPECT_NEAR(s.quantile(0.5), 50.5, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  EXPECT_THROW(s.quantile(1.5), std::invalid_argument);
  util::Samples empty;
  EXPECT_THROW(empty.quantile(0.5), std::logic_error);
}

TEST(Histogram, BinningAndOverflow) {
  util::Histogram h(0.0, 10.0, 10);
  h.add(-1.0);
  h.add(0.0);
  h.add(9.999);
  h.add(10.0);
  h.add(5.5);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(9), 1u);
  EXPECT_EQ(h.count(5), 1u);
  EXPECT_EQ(h.total(), 5u);
  EXPECT_DOUBLE_EQ(h.bin_lo(5), 5.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(5), 6.0);
  EXPECT_FALSE(h.render().empty());
  EXPECT_THROW(util::Histogram(0.0, 0.0, 4), std::invalid_argument);
  EXPECT_THROW(util::Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(Samples, QuantileSingleSample) {
  util::Samples s;
  s.add(7.5);
  // Every quantile of a one-element sample set is that element.
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 7.5);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 7.5);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 7.5);
  EXPECT_DOUBLE_EQ(s.min(), 7.5);
  EXPECT_DOUBLE_EQ(s.max(), 7.5);
  EXPECT_DOUBLE_EQ(s.mean(), 7.5);
}

TEST(Samples, QuantileAllEqualSamples) {
  util::Samples s;
  for (int i = 0; i < 25; ++i) s.add(3.0);
  for (const double q : {0.0, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0})
    EXPECT_DOUBLE_EQ(s.quantile(q), 3.0);
}

TEST(Samples, QuantileInterpolatesBetweenTwoSamples) {
  util::Samples s;
  s.add(10.0);
  s.add(20.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.25), 12.5);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 15.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 20.0);
  // Boundary q values must not read past either end.
  EXPECT_THROW(s.quantile(-0.001), std::invalid_argument);
  EXPECT_THROW(s.quantile(1.001), std::invalid_argument);
}

TEST(Samples, EmptyAccessorsAreDefined) {
  util::Samples s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(OnlineStats, EmptyAccessorsAreDefined) {
  util::OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
  EXPECT_DOUBLE_EQ(s.sum(), 0.0);
}

TEST(OnlineStats, SingleSampleHasZeroVariance) {
  util::OnlineStats s;
  s.add(-4.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), -4.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), -4.0);
  EXPECT_DOUBLE_EQ(s.max(), -4.0);
}

TEST(OnlineStats, MergeWithEmptyIsIdentity) {
  util::OnlineStats a, empty;
  a.add(1.0);
  a.add(3.0);
  a.merge(empty);  // no-op
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  empty.merge(a);  // copies
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
  EXPECT_DOUBLE_EQ(empty.min(), 1.0);
  EXPECT_DOUBLE_EQ(empty.max(), 3.0);
}

TEST(Histogram, BucketBoundaryValuesLandInTheUpperBin) {
  // [lo, hi) semantics: a bin's lower edge belongs to it, its upper edge
  // to the next bin; hi itself overflows.
  util::Histogram h(0.0, 4.0, 4);
  h.add(0.0);
  h.add(1.0);
  h.add(2.0);
  h.add(3.0);
  h.add(4.0);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(1), 1u);
  EXPECT_EQ(h.count(2), 1u);
  EXPECT_EQ(h.count(3), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.underflow(), 0u);
  EXPECT_EQ(h.total(), 5u);
}

TEST(Histogram, SingleSampleAndAllEqualStayInOneBin) {
  util::Histogram h(0.0, 1.0, 10);
  h.add(0.55);
  EXPECT_EQ(h.total(), 1u);
  EXPECT_EQ(h.count(5), 1u);
  for (int i = 0; i < 99; ++i) h.add(0.55);
  EXPECT_EQ(h.count(5), 100u);
  for (std::size_t b = 0; b < h.bin_count(); ++b)
    if (b != 5) EXPECT_EQ(h.count(b), 0u);
}

TEST(TextTable, RendersAlignedColumns) {
  util::TextTable t({"name", "value"});
  t.add_row({"alpha", "0.45"});
  t.add_row({"beta", "12"});
  const std::string out = t.render();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("0.45"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
  EXPECT_THROW(t.add_row({"too", "many", "cells"}), std::invalid_argument);
}

TEST(TextTable, Formatters) {
  EXPECT_EQ(util::TextTable::fmt(0.4512, 2), "0.45");
  EXPECT_EQ(util::TextTable::fmt_percent(0.45, 0), "45%");
  EXPECT_EQ(util::TextTable::fmt_ms(0.1, 1), "100.0 ms");
}

TEST(Csv, EscapesSpecialCells) {
  const std::string path = testing::TempDir() + "/ubac_csv_test.csv";
  {
    util::CsvWriter w(path);
    w.write_row({"a", "b,c", "d\"e"});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,\"b,c\",\"d\"\"e\"");
}

TEST(Cli, ParsesOptionsAndFlags) {
  const char* argv[] = {"prog", "--alpha=0.3", "--count=7", "--verbose",
                        "positional"};
  util::ArgParser args(5, argv);
  args.describe("alpha", "utilization")
      .describe("count", "n")
      .describe("verbose", "flag");
  EXPECT_NO_THROW(args.validate());
  EXPECT_DOUBLE_EQ(args.get_double("alpha", 0.0), 0.3);
  EXPECT_EQ(args.get_long("count", 0), 7);
  EXPECT_TRUE(args.get_bool("verbose", false));
  EXPECT_FALSE(args.get_bool("quiet", false));
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "positional");
}

TEST(Cli, RejectsUnknownOptions) {
  const char* argv[] = {"prog", "--tpyo=1"};
  util::ArgParser args(2, argv);
  args.describe("typo", "correctly spelled");
  EXPECT_THROW(args.validate(), std::invalid_argument);
}

TEST(Cli, ParsesWholeNumericTokens) {
  const char* argv[] = {"prog", "--n=-42", "--x=1.5e-3", "--y=7"};
  util::ArgParser args(4, argv);
  EXPECT_EQ(args.get_long("n", 0), -42);
  EXPECT_DOUBLE_EQ(args.get_double("x", 0.0), 1.5e-3);
  EXPECT_DOUBLE_EQ(args.get_double("y", 0.0), 7.0);
  EXPECT_EQ(args.get_long("absent", 9), 9);
}

/// The message of the std::invalid_argument `fn` throws ("" when none).
template <class Fn>
std::string invalid_argument_message(Fn&& fn) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(Cli, RejectsMalformedIntegers) {
  const char* argv[] = {"prog", "--threads=abc", "--ops=12x", "--pairs=",
                        "--seed=99999999999999999999", "--port= 80",
                        "--flows=1.5"};
  util::ArgParser args(7, argv);
  for (const char* key : {"threads", "ops", "pairs", "seed", "port", "flows"}) {
    const std::string message =
        invalid_argument_message([&] { args.get_long(key, 0); });
    EXPECT_NE(message.find(std::string("--") + key), std::string::npos)
        << key << ": " << message;
  }
  EXPECT_NE(invalid_argument_message([&] { args.get_long("seed", 0); })
                .find("out of range"),
            std::string::npos);
}

TEST(Cli, RejectsMalformedDoubles) {
  const char* argv[] = {"prog", "--deadline-ms=1x", "--alpha=", "--burst=abc",
                        "--rate-kbps=1e999", "--sampling=nan",
                        "--horizon-s=inf"};
  util::ArgParser args(7, argv);
  for (const char* key : {"deadline-ms", "alpha", "burst", "rate-kbps",
                          "sampling", "horizon-s"}) {
    const std::string message =
        invalid_argument_message([&] { args.get_double(key, 0.0); });
    EXPECT_NE(message.find(std::string("--") + key), std::string::npos)
        << key << ": " << message;
  }
  EXPECT_NE(invalid_argument_message([&] { args.get_double("rate-kbps", 0.0); })
                .find("out of range"),
            std::string::npos);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  util::ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(100, [&](std::size_t i) { hits[i]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, WaitIdleBlocksUntilDone) {
  util::ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 10; ++i)
    pool.submit([&done] { done++; });
  pool.wait_idle();
  EXPECT_EQ(done.load(), 10);
}

// The first kLanes threads alive at once each claim a lane of their own,
// exclusively; later threads get a shared claim: own() hashes them onto
// the claimed lanes, own_exclusive() sends them all to the overflow lane
// kLanes. Every thread stays alive until all have claimed, because a
// thread hands its lane back when it exits.
TEST(LaneClaims, FirstThreadsOwnTheirLanesLaterOnesOverflow) {
  constexpr std::size_t kThreads = util::LaneClaims::kLanes + 4;
  util::LaneClaims claims;
  std::vector<util::LaneClaims::Cache> caches(kThreads);
  std::vector<std::uint32_t> lane(kThreads), exclusive_lane(kThreads);
  std::atomic<std::size_t> claimed{0};
  std::latch done(1);
  std::vector<std::thread> threads;
  // One thread at a time, so claim order is thread order.
  for (std::size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      lane[i] = claims.own(caches[i]);
      exclusive_lane[i] = claims.own_exclusive(caches[i]);
      // The cached claim answers the same again.
      EXPECT_EQ(claims.own(caches[i]), lane[i]);
      claimed.fetch_add(1);
      claimed.notify_all();
      done.wait();
    });
    for (std::size_t n = i; n != i + 1; n = claimed.load()) claimed.wait(n);
  }
  // The claims as the live threads hold them (exit resets their caches).
  const std::vector<util::LaneClaims::Cache> held = caches;
  done.count_down();
  for (auto& thread : threads) thread.join();

  for (std::size_t i = 0; i < kThreads; ++i) {
    const bool owns = i < util::LaneClaims::kLanes;
    EXPECT_EQ(held[i].exclusive, owns) << i;
    ASSERT_LT(lane[i], util::LaneClaims::kLanes) << i;
    if (owns) {
      EXPECT_EQ(lane[i], i);
      EXPECT_EQ(exclusive_lane[i], i);
    } else {
      EXPECT_EQ(exclusive_lane[i], util::LaneClaims::kLanes) << i;
    }
  }
  // A second owner starts over: this thread is first there.
  util::LaneClaims other;
  util::LaneClaims::Cache cache;
  EXPECT_EQ(other.own_exclusive(cache), 0u);
  EXPECT_TRUE(cache.exclusive);
}

// Threads started in waves, each wave joined before the next starts, hand
// their lanes back at exit: every wave claims the same low lanes again,
// exclusively, and nothing stays claimed between waves.
TEST(LaneClaims, WavesOfThreadsReuseTheLanesTheirPredecessorsHandedBack) {
  constexpr std::size_t kWaves = 10;
  constexpr std::size_t kPerWave = 4;
  util::LaneClaims claims;
  for (std::size_t wave = 0; wave < kWaves; ++wave) {
    std::vector<std::uint32_t> lanes(kPerWave);
    std::latch claimed(kPerWave);
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < kPerWave; ++i)
      threads.emplace_back([&, i] {
        thread_local util::LaneClaims::Cache cache;
        lanes[i] = claims.own_exclusive(cache);
        claimed.arrive_and_wait();  // all four hold a lane at once
      });
    for (auto& thread : threads) thread.join();
    std::sort(lanes.begin(), lanes.end());
    EXPECT_EQ(lanes, (std::vector<std::uint32_t>{0, 1, 2, 3})) << wave;
    EXPECT_EQ(claims.claimed(), 0u) << wave;
  }
}

// A thread that still writes after its claims were handed back (from a
// thread-local destructor that runs later) gets a shared claim, never the
// lane it gave up; and an owner destroyed while a thread holds one of its
// lanes leaves that thread's exit harmless.
TEST(LaneClaims, WritesAfterTheHandbackShareAndOwnersMayDieFirst) {
  struct LateWriter {
    util::LaneClaims* claims = nullptr;
    util::LaneClaims::Cache* cache = nullptr;
    std::uint32_t* lane = nullptr;
    ~LateWriter() {
      if (claims != nullptr) *lane = claims->own_exclusive(*cache);
    }
  };
  util::LaneClaims claims;
  std::uint32_t first = 99, late = 99;
  std::thread([&] {
    thread_local util::LaneClaims::Cache cache;
    // Constructed before the thread's first claim, so destroyed after
    // the claims are handed back.
    thread_local LateWriter writer;
    writer.claims = &claims;
    writer.cache = &cache;
    writer.lane = &late;
    first = claims.own_exclusive(cache);
  }).join();
  EXPECT_EQ(first, 0u);
  EXPECT_EQ(late, util::LaneClaims::kLanes);
  EXPECT_EQ(claims.claimed(), 0u);

  auto doomed = std::make_unique<util::LaneClaims>();
  std::latch held(1), gone(1);
  std::uint32_t lane = 99;
  std::thread holder([&] {
    thread_local util::LaneClaims::Cache cache;
    lane = doomed->own_exclusive(cache);
    held.count_down();
    gone.wait();  // exits after its owner was destroyed
  });
  held.wait();
  doomed.reset();
  gone.count_down();
  holder.join();
  EXPECT_EQ(lane, 0u);
}

}  // namespace
}  // namespace ubac
