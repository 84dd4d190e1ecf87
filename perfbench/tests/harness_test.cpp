// Unit tests of the benchmark harness: the percentile rule, set-up
// timing, failure accounting, schedule determinism, latency histograms and
// the result line.

#include <gtest/gtest.h>

#include <set>

#include "harness.hpp"

namespace perfbench {
namespace {

TEST(PercentileRule, SamplesBeyondUsesNearestRank) {
  EXPECT_EQ(samples_beyond(100, 9000), 10u);
  EXPECT_EQ(samples_beyond(99, 9000), 9u);
  EXPECT_EQ(samples_beyond(1000, 9900), 10u);
  EXPECT_EQ(samples_beyond(999, 9900), 9u);
  EXPECT_EQ(samples_beyond(0, 5000), 0u);
}

TEST(PercentileRule, PicksHighestPercentileWithTenBeyond) {
  EXPECT_EQ(tail_percentile(19, 9990), 0u);     // p50 leaves 9
  EXPECT_EQ(tail_percentile(20, 9990), 5000u);  // p50 leaves 10
  EXPECT_EQ(tail_percentile(99, 9990), 5000u);  // p90 leaves 9
  EXPECT_EQ(tail_percentile(100, 9990), 9000u);
  EXPECT_EQ(tail_percentile(999, 9990), 9000u);
  EXPECT_EQ(tail_percentile(1000, 9990), 9900u);
  EXPECT_EQ(tail_percentile(10000, 9990), 9990u);
}

TEST(PercentileRule, CapLimitsThePick) {
  EXPECT_EQ(tail_percentile(1'000'000, 9900), 9900u);
  EXPECT_EQ(tail_percentile(1'000'000, 9000), 9000u);
  EXPECT_EQ(tail_percentile(150, 9900), 9000u);
}

TEST(PercentileRule, NearestRankValues) {
  std::vector<int> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT_EQ(percentile(v, 5000), 50);
  EXPECT_EQ(percentile(v, 9000), 90);
  EXPECT_EQ(percentile(v, 9900), 99);
  std::vector<int> one{7};
  EXPECT_EQ(percentile(one, 9900), 7);
  EXPECT_EQ(percentile_label(9900), "p99");
  EXPECT_EQ(percentile_label(9990), "p99.9");
}

TEST(FailureAccounting, CountsAttemptsAndFailures) {
  Checks c;
  EXPECT_FALSE(c.correct());  // nothing attempted
  EXPECT_EQ(c.failed_ratio(), 0.0);
  c.attempt(98);
  c.expect(true, "fine");
  c.fail(0, "nothing failed");
  EXPECT_TRUE(c.correct());
  EXPECT_EQ(c.attempted(), 99u);
  EXPECT_TRUE(c.failures().empty());
  c.expect(false, "broken");
  EXPECT_FALSE(c.correct());
  EXPECT_EQ(c.attempted(), 100u);
  EXPECT_EQ(c.failed(), 1u);
  EXPECT_DOUBLE_EQ(c.failed_ratio(), 0.01);
  c.fail(3, "three more");
  EXPECT_EQ(c.failed(), 4u);
  ASSERT_EQ(c.failures().size(), 2u);
  EXPECT_EQ(c.failures()[1], "three more (x3)");
}

TEST(SetupTimer, WarmsUpThenTimesBetweenMinAndMax) {
  SetupTimer slow;  // 0.3 s set-ups: one warms, then exactly kMinSetups
  while (slow.another()) slow.record(0.3);
  EXPECT_EQ(slow.timed().size(), SetupTimer::kMinSetups);

  SetupTimer fast;  // 1 ms set-ups: 250 warm, then the kMaxSetups cap
  std::size_t runs = 0;
  while (fast.another()) {
    fast.record(0.001);
    ++runs;
  }
  EXPECT_EQ(fast.timed().size(), SetupTimer::kMaxSetups);
  EXPECT_GE(runs, SetupTimer::kMaxSetups + 250);
}

TEST(ResultLine, CarriesChecksAndEveryDigit) {
  Checks c;
  c.attempt(5);
  c.fail(1, "x");
  const std::string line =
      result_json(c, {{"ops_per_s", 1234567.890123, "1/s"}, {"q", 0.1, "r"}});
  EXPECT_EQ(line,
            "{\"correct\": false, \"attempted\": 5, \"failed\": 1, "
            "\"metrics\": {\"ops_per_s\": {\"value\": 1234567.890123, "
            "\"unit\": \"1/s\"}, \"q\": {\"value\": 0.1, "
            "\"unit\": \"r\"}}}");
}

TEST(ChurnSchedule, SameSeedSameScheduleOtherSeedDiffers) {
  const auto a = make_churn_schedule(7, 342, 500.0, 4000);
  const auto b = make_churn_schedule(7, 342, 500.0, 4000);
  const auto c = make_churn_schedule(8, 342, 500.0, 4000);
  EXPECT_EQ(a.ops, b.ops);
  EXPECT_EQ(a.slots, b.slots);
  EXPECT_NE(a.ops, c.ops);
  EXPECT_EQ(derive_seed(7, 1), derive_seed(7, 1));
  EXPECT_NE(derive_seed(7, 1), derive_seed(7, 2));
  EXPECT_NE(derive_seed(7, 1), derive_seed(8, 1));
}

TEST(ChurnSchedule, ReplaysBackToBackWithoutSlotClashes) {
  const auto s = make_churn_schedule(3, 342, 500.0, 4000);
  ASSERT_EQ(s.ops.size(), 8000u);
  std::vector<int> live(s.slots, 0);
  std::uint64_t arrivals = 0, releases_found = 0, releases_empty = 0;
  for (int replay = 0; replay < 3; ++replay)
    for (const std::uint32_t op : s.ops) {
      ASSERT_LT(op_slot(op), s.slots);
      int& slot = live[op_slot(op)];
      if (is_release(op)) {
        if (slot) {
          ++releases_found;
        } else {
          // Only the first replay meets departures of flows that arrived
          // "before" it.
          EXPECT_EQ(replay, 0);
          ++releases_empty;
        }
        slot = 0;
      } else {
        ASSERT_LT(op_demand(op), 342u);
        ASSERT_EQ(slot, 0) << "arrival into a live slot";
        slot = 1;
        ++arrivals;
      }
    }
  EXPECT_EQ(arrivals, 3 * s.arrivals);
  EXPECT_GT(releases_empty, 0u);  // the load does wrap the cycle
  // About erlangs flows are live at once; slots stay near twice that.
  const std::uint32_t peak = peak_live_flows(s);
  EXPECT_GT(peak, 400u);
  EXPECT_LT(peak, 650u);
  EXPECT_LT(s.slots, 3 * peak);
}

TEST(OverloadSchedule, DeterministicPerSeed) {
  const auto a = make_overload_schedule(5, 342, 1024, 64);
  const auto b = make_overload_schedule(5, 342, 1024, 64);
  const auto c = make_overload_schedule(6, 342, 1024, 64);
  EXPECT_EQ(a.offers, b.offers);
  EXPECT_EQ(a.picks, b.picks);
  EXPECT_NE(a.offers, c.offers);
  std::set<std::uint32_t> seen(a.offers.begin(), a.offers.end());
  EXPECT_GT(seen.size(), 300u);
  EXPECT_LT(*seen.rbegin(), 342u);
}

TEST(TickHistogram, ExactBelowTheLinearRangeThenWithin1Percent) {
  for (std::uint64_t v : {0ull, 1ull, 517ull, 1023ull}) {
    TickHistogram h;
    h.record(v);
    EXPECT_EQ(h.percentile(5000), static_cast<double>(v));
  }
  std::size_t last = 0;
  for (std::uint64_t v = 1024; v < (std::uint64_t{1} << 40); v = v * 3 / 2) {
    const std::size_t i = TickHistogram::index(v);
    ASSERT_LT(i, TickHistogram::kBuckets);
    EXPECT_GE(i, last);
    last = i;
    EXPECT_LE(TickHistogram::lower(i), v);
    EXPECT_LT(v, TickHistogram::lower(i) + TickHistogram::width(i));
    TickHistogram h;
    h.record(v);
    EXPECT_NEAR(h.percentile(9900), static_cast<double>(v), v / 128.0);
  }
  EXPECT_EQ(TickHistogram::index(~std::uint64_t{0}),
            TickHistogram::kBuckets - 1);
}

TEST(TickHistogram, NearestRankOverMergedSamples) {
  TickHistogram a, b;
  for (std::uint64_t v = 1; v <= 50; ++v) a.record(v);
  for (std::uint64_t v = 51; v <= 100; ++v) b.record(v);
  a.merge(b);
  EXPECT_EQ(a.total(), 100u);
  EXPECT_EQ(a.percentile(5000), 50.0);
  EXPECT_EQ(a.percentile(9000), 90.0);
  EXPECT_EQ(a.percentile(9900), 99.0);
  EXPECT_EQ(TickHistogram().percentile(5000), 0.0);
}

}  // namespace
}  // namespace perfbench
