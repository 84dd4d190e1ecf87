// Tests for src/telemetry/: instrument exactness under concurrent
// updates, event-tracer retention, exporter round trips, and the
// end-to-end wiring into the admission controllers, the fixed-point
// solver, and the packet simulator.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <latch>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "admission/controller.hpp"
#include "admission/sequential_controller.hpp"
#include "admission/telemetry.hpp"
#include "analysis/fixed_point.hpp"
#include "net/shortest_path.hpp"
#include "net/topology_factory.hpp"
#include "sim/network_sim.hpp"
#include "traffic/workload.hpp"
#include "telemetry/envelope.hpp"
#include "telemetry/event_trace.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/metrics.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace ubac::telemetry {
namespace {

constexpr std::size_t kThreads = 8;

// ---------------------------------------------------------------------------
// Instruments.

TEST(TelemetryCounter, ExactUnderConcurrentUpdates) {
  Counter counter;
  constexpr std::uint64_t kPerThread = 100'000;
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t)
    workers.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.add();
    });
  for (auto& w : workers) w.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
}

TEST(TelemetryCounter, AddWithIncrement) {
  Counter counter;
  counter.add(5);
  counter.add(7);
  EXPECT_EQ(counter.value(), 12u);
}

TEST(TelemetryGauge, LastSetWins) {
  Gauge gauge;
  EXPECT_EQ(gauge.value(), 0.0);
  gauge.set(3.25);
  gauge.set(-1.5);
  EXPECT_EQ(gauge.value(), -1.5);
}

TEST(TelemetryGauge, ConcurrentSetLeavesOneWrittenValue) {
  Gauge gauge;
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t)
    workers.emplace_back([&, t] {
      for (int i = 0; i < 10'000; ++i)
        gauge.set(static_cast<double>(t + 1));
    });
  for (auto& w : workers) w.join();
  const double v = gauge.value();
  EXPECT_GE(v, 1.0);
  EXPECT_LE(v, static_cast<double>(kThreads));
}

TEST(TelemetryHistogram, LeBucketSemantics) {
  // Bucket i counts samples <= bounds[i]; above-last goes to +Inf.
  LatencyHistogram hist({1.0, 2.0, 4.0});
  for (const double v : {0.5, 1.0, 1.5, 2.0, 4.0, 5.0}) hist.record(v);
  EXPECT_EQ(hist.count(), 6u);
  EXPECT_DOUBLE_EQ(hist.sum(), 14.0);
  const auto counts = hist.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);  // 0.5, 1.0 (boundary is inclusive)
  EXPECT_EQ(counts[1], 2u);  // 1.5, 2.0
  EXPECT_EQ(counts[2], 1u);  // 4.0
  EXPECT_EQ(counts[3], 1u);  // 5.0 -> +Inf
}

TEST(TelemetryHistogram, ExactUnderConcurrentUpdates) {
  LatencyHistogram hist({1.0, 10.0, 100.0});
  constexpr std::uint64_t kPerThread = 50'000;
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t)
    workers.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerThread; ++i)
        hist.record(static_cast<double>(i % 3));  // 0, 1, 2, 0, 1, 2, ...
    });
  for (auto& w : workers) w.join();
  EXPECT_EQ(hist.count(), kThreads * kPerThread);
  // Per thread, i % 3 over [0, 50000) yields 16667 zeros, 16667 ones and
  // 16666 twos. Sums of small integers are exact in double regardless of
  // the interleaving.
  EXPECT_DOUBLE_EQ(hist.sum(),
                   static_cast<double>(kThreads * (16'667 + 2 * 16'666)));
  const auto counts = hist.bucket_counts();
  EXPECT_EQ(counts[0], kThreads * (16'667 + 16'667));  // values 0 and 1
  EXPECT_EQ(counts[1], kThreads * 16'666u);            // value 2
  EXPECT_EQ(counts[2], 0u);
  EXPECT_EQ(counts[3], 0u);
}

TEST(TelemetryHistogram, QuantileInterpolatesAndHandlesEmpty) {
  LatencyHistogram hist({1.0, 2.0, 4.0});
  EXPECT_EQ(hist.quantile(0.5), 0.0);  // empty
  for (int i = 0; i < 100; ++i) hist.record(0.5);  // all in (0, 1]
  // All mass in the first bucket: quantiles stay within it.
  EXPECT_GT(hist.quantile(0.5), 0.0);
  EXPECT_LE(hist.quantile(0.5), 1.0);
  EXPECT_LE(hist.quantile(0.99), 1.0);
}

TEST(TelemetryHistogram, RejectsBadBounds) {
  EXPECT_THROW(LatencyHistogram({}), std::invalid_argument);
  EXPECT_THROW(LatencyHistogram({1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(LatencyHistogram({2.0, 1.0}), std::invalid_argument);
}

TEST(TelemetryHistogram, ExponentialBoundsSpanGeometrically) {
  const auto bounds = LatencyHistogram::exponential_bounds(1e-6, 1.0, 7);
  ASSERT_EQ(bounds.size(), 7u);
  EXPECT_NEAR(bounds.front(), 1e-6, 1e-12);
  EXPECT_NEAR(bounds.back(), 1.0, 1e-9);
  for (std::size_t i = 1; i < bounds.size(); ++i)
    EXPECT_GT(bounds[i], bounds[i - 1]);
}

// ---------------------------------------------------------------------------
// Registry.

TEST(MetricsRegistry, GetOrCreateReturnsTheSameInstrument) {
  MetricsRegistry registry;
  Counter& a = registry.counter("ubac_test_total", "help");
  Counter& b = registry.counter("ubac_test_total", "help");
  EXPECT_EQ(&a, &b);
  Counter& labeled =
      registry.counter("ubac_test_total", "help", {{"k", "v"}});
  EXPECT_NE(&a, &labeled);
  // Same labels -> same series again.
  EXPECT_EQ(&labeled,
            &registry.counter("ubac_test_total", "help", {{"k", "v"}}));
}

TEST(MetricsRegistry, KindMismatchThrows) {
  MetricsRegistry registry;
  registry.counter("ubac_test_total", "help");
  EXPECT_THROW(registry.gauge("ubac_test_total", "help"), std::logic_error);
  EXPECT_THROW(registry.histogram("ubac_test_total", "help", {1.0}),
               std::logic_error);
}

TEST(MetricsRegistry, SnapshotFindsSeriesByNameAndLabels) {
  MetricsRegistry registry;
  registry.counter("ubac_a_total", "help", {{"class", "0"}}).add(3);
  registry.gauge("ubac_b", "help").set(2.5);
  const auto snapshot = registry.snapshot();
  const auto* a = snapshot.find("ubac_a_total", {{"class", "0"}});
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->value, 3.0);
  const auto* b = snapshot.find("ubac_b");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->value, 2.5);
  EXPECT_EQ(snapshot.find("ubac_a_total", {{"class", "1"}}), nullptr);
  EXPECT_EQ(snapshot.find("missing"), nullptr);
}

TEST(MetricsRegistry, ConcurrentRegistrationAndUpdates) {
  MetricsRegistry registry;
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t)
    workers.emplace_back([&] {
      for (int i = 0; i < 1'000; ++i)
        registry.counter("ubac_shared_total", "help").add();
    });
  for (auto& w : workers) w.join();
  EXPECT_EQ(registry.counter("ubac_shared_total", "help").value(),
            kThreads * 1'000u);
}

// ---------------------------------------------------------------------------
// Event tracer.

TEST(EventTracer, RetainsTheMostRecentEventsAtFullSampling) {
  EventTracer tracer(8, 1.0);
  EXPECT_EQ(tracer.capacity(), 8u);
  for (std::uint64_t i = 0; i < 20; ++i) {
    TraceEvent ev;
    ev.kind = TraceEventKind::kAdmit;
    ev.flow_id = i;
    ev.timestamp_ns = static_cast<std::int64_t>(i + 1);
    tracer.record(ev);
  }
  EXPECT_EQ(tracer.recorded(), 20u);
  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 8u);  // exactly the last `capacity` events
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, 12u + i);      // oldest first
    EXPECT_EQ(events[i].flow_id, 12u + i);  // payload matches seq
  }
}

TEST(EventTracer, CapacityRoundsUpToAPowerOfTwo) {
  EXPECT_EQ(EventTracer(5, 1.0).capacity(), 8u);
  EXPECT_EQ(EventTracer(1, 1.0).capacity(), 1u);
  EXPECT_EQ(EventTracer(64, 1.0).capacity(), 64u);
}

TEST(EventTracer, QuiescentSnapshotIsExactAfterConcurrentWriters) {
  EventTracer tracer(256, 1.0);
  constexpr std::uint64_t kPerThread = 1'000;
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t)
    workers.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        TraceEvent ev;
        ev.kind = TraceEventKind::kRelease;
        ev.flow_id = t * kPerThread + i;
        ev.timestamp_ns = 1;  // keep the clock out of the hot loop
        tracer.record(ev);
      }
    });
  for (auto& w : workers) w.join();
  EXPECT_EQ(tracer.recorded(), kThreads * kPerThread);
  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), tracer.capacity());
  // At quiescence the ring holds exactly the last `capacity` seqs.
  std::set<std::uint64_t> seqs;
  for (const auto& ev : events) seqs.insert(ev.seq);
  EXPECT_EQ(seqs.size(), tracer.capacity());
  EXPECT_EQ(*seqs.begin(), kThreads * kPerThread - tracer.capacity());
  EXPECT_EQ(*seqs.rbegin(), kThreads * kPerThread - 1);
}

TEST(EventTracer, SamplingZeroRecordsNothing) {
  EventTracer tracer(16, 0.0);
  for (int i = 0; i < 100; ++i)
    if (tracer.should_sample()) tracer.record({});
  EXPECT_EQ(tracer.recorded(), 0u);
  EXPECT_EQ(tracer.sampled_out(), 100u);
  EXPECT_TRUE(tracer.snapshot().empty());
}

TEST(EventTracer, SamplingOutsideTheUnitIntervalIsRefused) {
  for (const double sampling : {-0.5, 1.7, std::nan("")})
    EXPECT_THROW(EventTracer(16, sampling), std::invalid_argument) << sampling;
  EXPECT_NO_THROW(EventTracer(16, 0.0));
  EXPECT_NO_THROW(EventTracer(16, 1.0));
}

// Every sampled-out call is counted when it happens, so once the writers
// have joined sampled_out() is exact, misses after a thread's last
// sampled event included.
TEST(EventTracer, SampledOutIsExactAfterTheWritersExit) {
  constexpr std::size_t kThreads = 100;
  constexpr std::uint64_t kCalls = 50;
  EventTracer tracer(64, 0.001);
  std::atomic<std::uint64_t> hits{0};
  std::vector<std::thread> writers;
  for (std::size_t t = 0; t < kThreads; ++t)
    writers.emplace_back([&] {
      for (std::uint64_t i = 0; i < kCalls; ++i)
        if (tracer.should_sample()) hits.fetch_add(1);
    });
  for (auto& w : writers) w.join();
  EXPECT_EQ(tracer.sampled_out(), kThreads * kCalls - hits.load());
}

TEST(EventTracer, SamplingKeepsRoughlyTheRequestedFraction) {
  EventTracer tracer(16, 0.25);
  int kept = 0;
  for (int i = 0; i < 20'000; ++i)
    if (tracer.should_sample()) ++kept;
  EXPECT_NEAR(static_cast<double>(kept) / 20'000.0, 0.25, 0.03);
}

TEST(EventTracer, JsonAndCsvCarryTheEvents) {
  EventTracer tracer(8, 1.0);
  TraceEvent ev;
  ev.kind = TraceEventKind::kReject;
  ev.flow_id = 42;
  ev.class_index = 1;
  ev.src = 3;
  ev.dst = 7;
  ev.blocking_hop = 2;
  ev.utilization = 0.875;
  ev.reason = "utilization-exceeded";
  ev.timestamp_ns = 123;
  tracer.record(ev);
  const std::string json = tracer.to_json();
  EXPECT_NE(json.find("\"reject\""), std::string::npos);
  EXPECT_NE(json.find("utilization-exceeded"), std::string::npos);
  EXPECT_NE(json.find("42"), std::string::npos);

  const std::string path =
      ::testing::TempDir() + "/ubac_trace_test.csv";
  {
    util::CsvWriter csv(path);
    tracer.write_csv(csv);
  }
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  EXPECT_NE(text.str().find("reject"), std::string::npos);
  EXPECT_NE(text.str().find("0.875"), std::string::npos);
  std::remove(path.c_str());
}

// 24 writers on 16 lanes, each held alive until all have recorded, so
// none can hand its lane on to a later one: the 8 that claim last share
// the overflow lane. The merged quiescent snapshot is
// still exactly the last `capacity` seqs, oldest first, each once, with
// every writer's own events in its record order.
TEST(EventTracer, SharedLanesKeepTheLastCapacitySeqsExact) {
  constexpr std::size_t kWriters = 24;
  constexpr std::uint64_t kPerThread = 2'000;
  EventTracer tracer(256, 1.0);
  std::latch all_done(kWriters);
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kWriters; ++t)
    workers.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        TraceEvent ev;
        ev.flow_id = t * kPerThread + i;
        ev.timestamp_ns = 1;
        tracer.record(ev);
      }
      all_done.arrive_and_wait();
    });
  for (auto& w : workers) w.join();
  EXPECT_EQ(tracer.overflow_recorded(),
            (kWriters - util::LaneClaims::kLanes) * kPerThread);
  const std::uint64_t total = kWriters * kPerThread;
  EXPECT_EQ(tracer.recorded(), total);
  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), tracer.capacity());
  std::vector<std::uint64_t> last_of(kWriters, 0);
  std::vector<bool> seen(kWriters, false);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, total - tracer.capacity() + i);
    const std::size_t writer = events[i].flow_id / kPerThread;
    ASSERT_LT(writer, kWriters);
    if (seen[writer]) {
      EXPECT_GT(events[i].flow_id, last_of[writer]);
    }
    seen[writer] = true;
    last_of[writer] = events[i].flow_id;
  }
}

// A thread alternating two tracers re-finds its lane in each; seqs,
// retained events and counts stay per tracer.
TEST(EventTracer, AlternatingTracersOnOneThreadStayIndependent) {
  EventTracer a(8, 1.0);
  EventTracer b(8, 1.0);
  for (std::uint64_t i = 0; i < 20; ++i) {
    TraceEvent ev;
    ev.timestamp_ns = 1;
    ev.flow_id = 1000 + i;
    a.record(ev);
    ev.flow_id = 2000 + i;
    b.record(ev);
  }
  // A second thread takes its own lane in `a` only.
  std::thread other([&] {
    TraceEvent ev;
    ev.timestamp_ns = 1;
    for (std::uint64_t i = 0; i < 4; ++i) {
      ev.flow_id = 3000 + i;
      a.record(ev);
    }
  });
  other.join();
  EXPECT_EQ(a.recorded(), 24u);
  EXPECT_EQ(b.recorded(), 20u);

  const auto from_a = a.snapshot();
  ASSERT_EQ(from_a.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(from_a[i].seq, 16u + i);
    EXPECT_EQ(from_a[i].flow_id, i < 4 ? 1016u + i : 3000u + (i - 4));
  }
  const auto from_b = b.snapshot();
  ASSERT_EQ(from_b.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(from_b[i].seq, 12u + i);
    EXPECT_EQ(from_b[i].flow_id, 2012u + i);
  }
}

TEST(EventTracer, UnwrittenTracerHasAnEmptySnapshot) {
  const EventTracer tracer(64, 1.0);
  EXPECT_EQ(tracer.recorded(), 0u);
  EXPECT_TRUE(tracer.snapshot().empty());
  EXPECT_EQ(tracer.to_json(), "[]");
}

// ---------------------------------------------------------------------------
// Exporters: all three formats must carry the same values.

/// Value of one non-comment Prometheus line, e.g. series
/// `ubac_x_total{k="v"}`. Returns NaN when the series is absent.
double prom_value(const std::string& text, const std::string& series) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const auto space = line.rfind(' ');
    if (space == std::string::npos) continue;
    if (line.substr(0, space) == series)
      return std::stod(line.substr(space + 1));
  }
  return std::nan("");
}

MetricsRegistry& round_trip_registry(MetricsRegistry& registry) {
  registry.counter("ubac_rt_total", "counter", {{"class", "0"}}).add(42);
  registry.gauge("ubac_rt_util", "gauge").set(0.625);
  auto& hist = registry.histogram("ubac_rt_seconds", "hist", {1.0, 2.0});
  hist.record(0.5);
  hist.record(1.5);
  hist.record(9.0);
  return registry;
}

TEST(Exporters, PrometheusCarriesExactValues) {
  MetricsRegistry registry;
  const auto snapshot = round_trip_registry(registry).snapshot();
  const std::string text = to_prometheus(snapshot);
  EXPECT_NE(text.find("# TYPE ubac_rt_total counter"), std::string::npos);
  EXPECT_NE(text.find("# TYPE ubac_rt_util gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE ubac_rt_seconds histogram"), std::string::npos);
  EXPECT_EQ(prom_value(text, "ubac_rt_total{class=\"0\"}"), 42.0);
  EXPECT_EQ(prom_value(text, "ubac_rt_util"), 0.625);
  // Cumulative le buckets.
  EXPECT_EQ(prom_value(text, "ubac_rt_seconds_bucket{le=\"1\"}"), 1.0);
  EXPECT_EQ(prom_value(text, "ubac_rt_seconds_bucket{le=\"2\"}"), 2.0);
  EXPECT_EQ(prom_value(text, "ubac_rt_seconds_bucket{le=\"+Inf\"}"), 3.0);
  EXPECT_EQ(prom_value(text, "ubac_rt_seconds_sum"), 11.0);
  EXPECT_EQ(prom_value(text, "ubac_rt_seconds_count"), 3.0);
}

TEST(Exporters, PrometheusEscapesLabelValues) {
  MetricsRegistry registry;
  registry
      .counter("ubac_esc_total", "escaping",
               {{"path", "C:\\tmp\\\"x\"\nend"}})
      .add(1);
  const std::string text = to_prometheus(registry.snapshot());
  // 0.0.4 exposition format: backslash, quote, and newline are escaped
  // inside the quoted label value.
  EXPECT_NE(
      text.find(
          "ubac_esc_total{path=\"C:\\\\tmp\\\\\\\"x\\\"\\nend\"} 1"),
      std::string::npos)
      << text;
  // No literal newline may survive inside a sample line.
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("ubac_esc_total", 0) == 0)
      EXPECT_NE(line.find("end\"} 1"), std::string::npos) << line;
  }
}

TEST(Exporters, JsonEscapesLabelValues) {
  MetricsRegistry registry;
  registry.counter("ubac_esc_total", "escaping", {{"k", "a\"b\\c\nd"}}).add(1);
  const std::string json = to_json(registry.snapshot());
  EXPECT_NE(json.find("\"a\\\"b\\\\c\\nd\""), std::string::npos) << json;
  EXPECT_EQ(json.find('\n'), std::string::npos);
}

TEST(Exporters, JsonCarriesTheSameValues) {
  MetricsRegistry registry;
  const auto snapshot = round_trip_registry(registry).snapshot();
  const std::string json = to_json(snapshot);
  EXPECT_NE(json.find("\"ubac_rt_total\""), std::string::npos);
  EXPECT_NE(json.find("42"), std::string::npos);
  EXPECT_NE(json.find("0.625"), std::string::npos);
  EXPECT_NE(json.find("\"ubac_rt_seconds\""), std::string::npos);
  EXPECT_NE(json.find("11"), std::string::npos);  // histogram sum
}

TEST(Exporters, CsvCarriesTheSameValues) {
  MetricsRegistry registry;
  const auto snapshot = round_trip_registry(registry).snapshot();
  const std::string path = ::testing::TempDir() + "/ubac_metrics_test.csv";
  {
    util::CsvWriter csv(path);
    write_csv(snapshot, csv);
  }
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "name,type,labels,le,value");
  bool counter_row = false, gauge_row = false, sum_row = false;
  while (std::getline(in, line)) {
    if (line.find("ubac_rt_total") != std::string::npos &&
        line.find(",42") != std::string::npos)
      counter_row = true;
    if (line.find("ubac_rt_util") != std::string::npos &&
        line.find("0.625") != std::string::npos)
      gauge_row = true;
    if (line.find("ubac_rt_seconds_sum") != std::string::npos &&
        line.find("11") != std::string::npos)
      sum_row = true;
  }
  EXPECT_TRUE(counter_row);
  EXPECT_TRUE(gauge_row);
  EXPECT_TRUE(sum_row);
  std::remove(path.c_str());
}

TEST(Exporters, WriteFileRoundTripsAndThrowsOnBadPath) {
  const std::string path = ::testing::TempDir() + "/ubac_write_file_test.txt";
  write_file(path, "hello\n");
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "hello");
  std::remove(path.c_str());
  EXPECT_THROW(write_file("/no/such/dir/ubac.txt", "x"), std::runtime_error);
}

// ---------------------------------------------------------------------------
// End-to-end wiring.

struct Scenario {
  net::Topology topo = net::mci_backbone();
  net::ServerGraph graph{topo, 6u};
  std::vector<traffic::Demand> demands = traffic::all_ordered_pairs(topo);
  std::vector<net::ServerPath> routes;
  traffic::ClassSet classes = traffic::ClassSet::two_class(
      traffic::LeakyBucket(640.0, units::kbps(32)),
      units::milliseconds(100), 0.32);

  Scenario() {
    for (const auto& d : demands)
      routes.push_back(
          graph.map_path(net::shortest_path(topo, d.src, d.dst).value()));
  }
  admission::RoutingTable table() const { return {demands, routes}; }
};

TEST(ControllerTelemetry, CountsEveryDecisionAndRelease) {
  Scenario s;
  MetricsRegistry registry;
  EventTracer tracer(1 << 14, 1.0);
  admission::AdmissionController ctl(s.graph, s.classes, s.table());
  admission::ControllerTelemetry telemetry(registry, "concurrent", &tracer,
                                           /*latency_sample_every=*/1);
  ctl.attach_telemetry(&telemetry);

  std::size_t admitted = 0, rejected = 0;
  std::vector<traffic::FlowId> flows;
  for (int round = 0; round < 3'000; ++round) {
    const auto& d = s.demands[static_cast<std::size_t>(round) %
                              s.demands.size()];
    const auto decision = ctl.request(d.src, d.dst, d.class_index);
    if (decision.admitted()) {
      ++admitted;
      flows.push_back(decision.flow_id);
    } else {
      ++rejected;
    }
  }
  for (const auto id : flows) EXPECT_TRUE(ctl.release(id));
  EXPECT_FALSE(ctl.release(~0ull));  // unknown id

  using admission::AdmissionOutcome;
  EXPECT_EQ(telemetry.decision(AdmissionOutcome::kAdmitted).value(),
            admitted);
  EXPECT_EQ(
      telemetry.decision(AdmissionOutcome::kUtilizationExceeded).value(),
      rejected);
  EXPECT_EQ(telemetry.releases->value(), flows.size());
  EXPECT_EQ(telemetry.unknown_releases->value(), 1u);
  // latency_sample_every=1: every decision is timed.
  EXPECT_EQ(telemetry.decision_latency->count(), admitted + rejected);
  // sampling=1.0 and capacity > events: nothing may be lost.
  EXPECT_EQ(tracer.recorded(),
            admitted + rejected + flows.size() + 1);

  // Trace kinds partition the same way the counters do.
  std::size_t admits = 0, rejects = 0, releases = 0;
  for (const auto& ev : tracer.snapshot()) {
    if (ev.kind == TraceEventKind::kAdmit) ++admits;
    if (ev.kind == TraceEventKind::kReject) ++rejects;
    if (ev.kind == TraceEventKind::kRelease) ++releases;
  }
  EXPECT_EQ(admits, admitted);
  EXPECT_EQ(rejects, rejected);
  EXPECT_EQ(releases, flows.size() + 1);
}

TEST(ControllerTelemetry, CountsStayExactUnderConcurrentChurn) {
  Scenario s;
  MetricsRegistry registry;
  admission::AdmissionController ctl(s.graph, s.classes, s.table());
  admission::ControllerTelemetry telemetry(registry, "concurrent");
  ctl.attach_telemetry(&telemetry);

  constexpr std::size_t kOps = 20'000;
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t)
    workers.emplace_back([&, t] {
      for (std::size_t k = 0; k < kOps; ++k) {
        const auto& d =
            s.demands[(t * kOps + k) % s.demands.size()];
        ctl.request(d.src, d.dst, d.class_index);
      }
    });
  for (auto& w : workers) w.join();

  using admission::AdmissionOutcome;
  std::uint64_t decisions = 0;
  for (const auto outcome :
       {AdmissionOutcome::kAdmitted, AdmissionOutcome::kNoRoute,
        AdmissionOutcome::kUtilizationExceeded, AdmissionOutcome::kBadClass})
    decisions += telemetry.decision(outcome).value();
  EXPECT_EQ(decisions, kThreads * kOps);
  EXPECT_EQ(telemetry.decision(AdmissionOutcome::kAdmitted).value(),
            ctl.active_flows());
}

TEST(ControllerTelemetry, UtilizationGaugesMatchTheController) {
  Scenario s;
  MetricsRegistry registry;
  admission::AdmissionController ctl(s.graph, s.classes, s.table());
  admission::ControllerTelemetry telemetry(registry, "concurrent");
  ctl.attach_telemetry(&telemetry);
  for (int i = 0; i < 500; ++i) {
    const auto& d = s.demands[static_cast<std::size_t>(i) % s.demands.size()];
    ctl.request(d.src, d.dst, d.class_index);
  }
  admission::update_utilization_gauges(registry, "concurrent", ctl);
  const auto snapshot = registry.snapshot();

  const auto* active = snapshot.find("ubac_admission_active_flows",
                                     {{"controller", "concurrent"}});
  ASSERT_NE(active, nullptr);
  EXPECT_EQ(active->value, static_cast<double>(ctl.active_flows()));

  std::size_t checked = 0;
  for (net::ServerId server = 0; server < ctl.server_count(); ++server) {
    const auto* util = snapshot.find(
        "ubac_admission_class_utilization",
        {{"controller", "concurrent"},
         {"server", std::to_string(server)},
         {"class", "0"}});
    if (util == nullptr) continue;
    EXPECT_DOUBLE_EQ(util->value, ctl.class_utilization(server, 0));
    if (util->value > 0.0) ++checked;
  }
  EXPECT_GT(checked, 0u);  // at least one loaded server was exported
}

// A traced decision carries the worst per-hop utilization of its route,
// bit-identical to class_utilization() over the route's servers, also
// against a live share that apply_shares() moved.
TEST(ControllerTelemetry, TracedUtilizationIsTheRoutesWorstHop) {
  Scenario s;
  MetricsRegistry registry;
  EventTracer tracer(1, 1.0);
  admission::AdmissionController ctl(s.graph, s.classes, s.table());
  admission::ControllerTelemetry telemetry(registry, "concurrent", &tracer);
  ctl.attach_telemetry(&telemetry);

  std::size_t rejects = 0;
  for (int round = 0; round < 20'000; ++round) {
    if (round == 10'000) {
      const admission::ShareUpdate shrink{0, 0.2};
      ctl.apply_shares({&shrink, 1});
    }
    const std::size_t i = static_cast<std::size_t>(round) % s.demands.size();
    const auto& d = s.demands[i];
    const auto decision = ctl.request(d.src, d.dst, d.class_index);
    rejects += !decision.admitted();
    double worst = 0.0;
    for (const net::ServerId server : s.routes[i])
      worst = std::max(worst, ctl.class_utilization(server, d.class_index));
    const auto events = tracer.snapshot();
    ASSERT_EQ(events.size(), 1u);  // a rollback copies the decision's value
    EXPECT_EQ(events[0].utilization, worst) << "round " << round;
  }
  EXPECT_GT(rejects, 0u);
}

// The same check on a line whose links differ in capacity, so each hop's
// utilization must be read against that hop's own server capacity.
TEST(ControllerTelemetry, TracedUtilizationReadsEachHopsOwnCapacity) {
  net::Topology topo("line");
  const net::NodeId a = topo.add_node("a"), b = topo.add_node("b"),
                    c = topo.add_node("c"), d = topo.add_node("d");
  topo.add_duplex_link(a, b, units::mbps(10));
  topo.add_duplex_link(b, c, units::mbps(1));
  topo.add_duplex_link(c, d, units::mbps(4));
  const net::ServerGraph graph(topo, 2u);
  // Single-hop demands load some hops of the three-hop routes more than
  // others, so the hops of a route differ in reserved rate.
  const std::vector<traffic::Demand> demands = {
      {a, d, 0}, {d, a, 0}, {c, d, 0}, {a, b, 0}, {b, a, 0}, {d, c, 0}};
  std::vector<net::ServerPath> routes;
  for (const auto& dm : demands)
    routes.push_back(
        graph.map_path(net::shortest_path(topo, dm.src, dm.dst).value()));
  const traffic::ClassSet classes = traffic::ClassSet::two_class(
      traffic::LeakyBucket(640.0, units::kbps(32)), units::milliseconds(100),
      0.32);
  MetricsRegistry registry;
  EventTracer tracer(1, 1.0);
  admission::AdmissionController ctl(graph, classes, {demands, routes});
  admission::ControllerTelemetry telemetry(registry, "concurrent", &tracer);
  ctl.attach_telemetry(&telemetry);

  std::size_t rejects = 0;
  for (std::size_t round = 0; round < 2'000; ++round) {
    const std::size_t i = round % demands.size();
    const auto& dm = demands[i];
    rejects += !ctl.request(dm.src, dm.dst, dm.class_index).admitted();
    double worst = 0.0;
    for (const net::ServerId server : routes[i])
      worst = std::max(worst, ctl.class_utilization(server, dm.class_index));
    const auto events = tracer.snapshot();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].utilization, worst) << "round " << round;
  }
  EXPECT_GT(rejects, 0u);
}

TEST(ControllerTelemetry, SequentialControllerReportsTheSameInstruments) {
  Scenario s;
  MetricsRegistry registry;
  EventTracer tracer(1 << 12, 1.0);
  admission::SequentialAdmissionController ctl(s.graph, s.classes, s.table());
  admission::ControllerTelemetry telemetry(registry, "sequential", &tracer);
  ctl.attach_telemetry(&telemetry);

  std::size_t admitted = 0, rejected = 0;
  traffic::FlowId last = 0;
  for (int i = 0; i < 2'000; ++i) {
    const auto& d = s.demands[static_cast<std::size_t>(i) % s.demands.size()];
    const auto decision = ctl.request(d.src, d.dst, d.class_index);
    if (decision.admitted()) {
      ++admitted;
      last = decision.flow_id;
    } else {
      ++rejected;
    }
  }
  EXPECT_TRUE(ctl.release(last));

  using admission::AdmissionOutcome;
  EXPECT_EQ(telemetry.decision(AdmissionOutcome::kAdmitted).value(),
            admitted);
  EXPECT_EQ(
      telemetry.decision(AdmissionOutcome::kUtilizationExceeded).value(),
      rejected);
  EXPECT_EQ(telemetry.releases->value(), 1u);
  EXPECT_EQ(tracer.recorded(), admitted + rejected + 1);

  admission::update_utilization_gauges(registry, "sequential", ctl);
  const auto snap = registry.snapshot();
  const auto* active = snap.find("ubac_admission_active_flows",
                                 {{"controller", "sequential"}});
  ASSERT_NE(active, nullptr);
  EXPECT_EQ(active->value, static_cast<double>(ctl.active_flows()));
}

TEST(SolverTelemetry, FixedPointRecordsIterationsAndOutcome) {
  Scenario s;
  MetricsRegistry registry;
  analysis::FixedPointOptions options;
  options.metrics = &registry;
  const auto solution = analysis::solve_two_class(
      s.graph, 0.32, traffic::LeakyBucket(640.0, units::kbps(32)),
      units::milliseconds(100), s.routes, options);

  const auto snapshot = registry.snapshot();
  const auto* solves = snapshot.find(
      "ubac_analysis_fixed_point_solves_total",
      {{"status", analysis::to_string(solution.status)}});
  ASSERT_NE(solves, nullptr);
  EXPECT_EQ(solves->value, 1.0);
  const auto* iterations =
      snapshot.find("ubac_analysis_fixed_point_iterations");
  ASSERT_NE(iterations, nullptr);
  EXPECT_EQ(iterations->histogram.count, 1u);
  EXPECT_EQ(iterations->histogram.sum,
            static_cast<double>(solution.iterations));
  const auto* residual =
      snapshot.find("ubac_analysis_fixed_point_residual_seconds");
  ASSERT_NE(residual, nullptr);
  EXPECT_GE(residual->histogram.count, 1u);
}

// Instrumentation overhead on the admission hot path. Interleaved
// best-of-N single-threaded churn, instrumented vs not, same RNG stream.
// The instrumented path adds roughly one striped relaxed fetch_add per
// decision plus a thread-local sampling decrement and a 1-in-16 clock
// read — ~15 ns on the dev container against a ~150 ns uncontended
// decision (~10%; well under 5% once real multi-core contention makes the
// baseline decision itself slower). The assert uses a generous margin so
// scheduler noise on shared CI runners cannot flake it; the measured
// ratio is printed for the record.
TEST(ControllerTelemetry, OverheadOnTheHotPathIsBounded) {
  Scenario s;
  constexpr std::size_t kOps = 150'000;
  // Base and instrumented runs alternate in pairs (the order flips every
  // pair), and the bound applies to the median of the per-pair ratios, so
  // a burst of load from other processes skews a pair or two, not the
  // verdict.
  constexpr int kPairs = 25;

  const auto churn = [&](admission::AdmissionController& ctl) {
    util::Xoshiro256 rng(0xBEEF);
    std::vector<traffic::FlowId> held;
    for (std::size_t k = 0; k < kOps; ++k) {
      if (!held.empty() && rng.bernoulli(0.4)) {
        const auto pos = rng.uniform_index(held.size());
        ctl.release(held[pos]);
        held[pos] = held.back();
        held.pop_back();
      } else {
        const auto& d = s.demands[rng.uniform_index(s.demands.size())];
        const auto decision = ctl.request(d.src, d.dst, d.class_index);
        if (decision.admitted()) held.push_back(decision.flow_id);
      }
    }
  };
  const auto timed_run = [&](bool instrumented) {
    MetricsRegistry registry;
    EventTracer tracer(8192, 0.01);
    admission::AdmissionController ctl(s.graph, s.classes, s.table());
    admission::ControllerTelemetry telemetry(registry, "concurrent",
                                             &tracer);
    if (instrumented) ctl.attach_telemetry(&telemetry);
    const auto start = std::chrono::steady_clock::now();
    churn(ctl);
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - start;
    return wall.count();
  };

  timed_run(false);  // warm-up, both variants
  timed_run(true);
  std::vector<double> ratios;
  double base_total = 0.0, instrumented_total = 0.0;
  for (int pair = 0; pair < kPairs; ++pair) {
    double base = 0.0, instrumented = 0.0;
    if (pair % 2 == 0) {
      base = timed_run(false);
      instrumented = timed_run(true);
    } else {
      instrumented = timed_run(true);
      base = timed_run(false);
    }
    base_total += base;
    instrumented_total += instrumented;
    ratios.push_back(instrumented / base);
  }
  std::sort(ratios.begin(), ratios.end());
  const double ratio = ratios[ratios.size() / 2];
  std::printf("telemetry overhead: %.3fs -> %.3fs over %d pairs, median "
              "pair ratio %+.1f%% (range %+.1f%% .. %+.1f%%)\n",
              base_total, instrumented_total, kPairs, (ratio - 1.0) * 100.0,
              (ratios.front() - 1.0) * 100.0, (ratios.back() - 1.0) * 100.0);
  EXPECT_LT(ratio, 1.25);
}

TEST(SimTelemetry, DeliveredCounterAndPeriodicSamples) {
  const auto topo = net::line(2);
  const net::ServerGraph graph(topo, 6u);
  const auto classes = traffic::ClassSet::two_class(
      traffic::LeakyBucket(640.0, units::kbps(32)),
      units::milliseconds(100), 0.3);
  sim::NetworkSim sim(graph, classes);
  sim::SourceConfig src;
  src.model = sim::SourceModel::kGreedy;
  src.packet_size = 640.0;
  src.stop = sim::to_sim_time(1.0);
  sim.add_flow(graph.map_path({0, 1}), 0, src);

  MetricsRegistry registry;
  EventTracer tracer(1 << 10, 1.0);
  sim::NetworkSim::TelemetryConfig config;
  config.metrics = &registry;
  config.tracer = &tracer;
  config.sample_period = 0.1;
  sim.attach_telemetry(config);
  const auto results = sim.run(1.0);

  const auto snap = registry.snapshot();
  const auto* delivered = snap.find("ubac_sim_packets_delivered_total");
  ASSERT_NE(delivered, nullptr);
  EXPECT_EQ(delivered->value,
            static_cast<double>(results.packets_delivered));

  // Samples at 0.1 s over a 1.0 s horizon: 9 interior sample points.
  std::size_t samples = 0;
  for (const auto& ev : tracer.snapshot())
    if (ev.kind == TraceEventKind::kSample) ++samples;
  EXPECT_EQ(samples, 9u);
}

// ---------------------------------------------------------------------------
// Lanes handed back at thread exit.

// Ten waves of four threads churn through one controller, tracer,
// installed recorder and registry, each wave joined before the next
// starts, and each thread leaving a few flows for the main thread to
// release. Every wave reuses the lanes the previous one handed back, so at
// most five lanes are ever claimed (four workers and the draining main
// thread), nothing reaches the tracer's overflow lane, and the counts and
// the recorder come out exact.
TEST(LaneHandback, TenWavesOfFourThreadsStayOnFiveLanes) {
  constexpr std::size_t kWaves = 10;
  constexpr std::size_t kPerWave = 4;
  constexpr std::size_t kOps = 2'000;
  constexpr std::size_t kLeft = 8;  // flows a thread leaves registered
  Scenario s;
  MetricsRegistry registry;
  EventTracer tracer(1 << 12, 1.0);
  ArrivalRecorder::Options options;
  options.capacity = 4096;
  ArrivalRecorder recorder(options);
  ArrivalRecorder::install(&recorder);
  admission::AdmissionController ctl(s.graph, s.classes, s.table());
  admission::ControllerTelemetry telemetry(registry, "waves", &tracer);
  ctl.attach_telemetry(&telemetry);

  std::vector<traffic::FlowId> issued, held;
  std::uint64_t decisions = 0, releases = 0, rollbacks = 0;
  for (std::size_t wave = 0; wave < kWaves; ++wave) {
    std::vector<std::vector<traffic::FlowId>> admitted(kPerWave),
        kept(kPerWave);
    std::vector<std::uint64_t> decided(kPerWave, 0), released(kPerWave, 0),
        rolled_back(kPerWave, 0);
    std::latch finished(kPerWave);
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < kPerWave; ++t)
      workers.emplace_back([&, t] {
        util::Xoshiro256 rng(0xC0FFEE + wave * kPerWave + t);
        for (std::size_t k = 0; k < kOps; ++k) {
          if (!kept[t].empty() && rng.bernoulli(0.45)) {
            const auto pos = rng.uniform_index(kept[t].size());
            released[t] += ctl.release(kept[t][pos]);
            kept[t][pos] = kept[t].back();
            kept[t].pop_back();
            continue;
          }
          const auto& d = s.demands[rng.uniform_index(s.demands.size())];
          const auto decision = ctl.request(d.src, d.dst, d.class_index);
          ++decided[t];
          if (decision.admitted()) {
            admitted[t].push_back(decision.flow_id);
            kept[t].push_back(decision.flow_id);
          }
          rolled_back[t] +=
              !decision.admitted() && decision.blocking_hop > 0;
        }
        for (; kept[t].size() > kLeft; kept[t].pop_back())
          released[t] += ctl.release(kept[t].back());
        // The wave's threads hold their lanes at once: none exits before
        // all have claimed.
        finished.arrive_and_wait();
      });
    for (auto& w : workers) w.join();
    for (std::size_t t = 0; t < kPerWave; ++t) {
      decisions += decided[t];
      releases += released[t];
      rollbacks += rolled_back[t];
      issued.insert(issued.end(), admitted[t].begin(), admitted[t].end());
      held.insert(held.end(), kept[t].begin(), kept[t].end());
    }
    EXPECT_EQ(recorder.regions_in_use(), kPerWave) << "wave " << wave;
  }
  // The main thread releases what the waves left registered.
  for (const traffic::FlowId id : held) EXPECT_TRUE(ctl.release(id));
  releases += held.size();
  ArrivalRecorder::install(nullptr);

  std::set<std::uint64_t> lanes;
  for (const traffic::FlowId id : issued) lanes.insert(id >> 48);
  EXPECT_EQ(lanes, (std::set<std::uint64_t>{0, 1, 2, 3}));
  std::sort(issued.begin(), issued.end());
  EXPECT_EQ(std::adjacent_find(issued.begin(), issued.end()), issued.end())
      << "a flow id was issued twice";

  EXPECT_LE(tracer.lanes_used(), kPerWave + 1);
  EXPECT_EQ(tracer.overflow_recorded(), 0u);
  // A reject that rolled hops back records a second event.
  EXPECT_EQ(tracer.recorded(), decisions + releases + rollbacks);

  using admission::AdmissionOutcome;
  std::uint64_t counted = 0;
  for (const auto* c : telemetry.decisions) counted += c->value();
  EXPECT_EQ(counted, decisions);
  EXPECT_EQ(telemetry.decision(AdmissionOutcome::kAdmitted).value(),
            issued.size());
  EXPECT_EQ(telemetry.releases->value(), releases);
  EXPECT_EQ(telemetry.unknown_releases->value(), 0u);
  EXPECT_EQ(ctl.active_flows(), 0u);

  EXPECT_EQ(recorder.dropped_registrations(), 0u);
  EXPECT_EQ(recorder.flow_count(), 0u);
}

// 24 writers alive at once: the first 16 own a stripe each and update it
// with plain loads and stores, the rest share the overflow stripe through
// read-modify-writes. The histogram has twelve buckets, so each stripe
// spans two cache lines. Once the writers have exited, every count,
// bucket and sum is exact.
TEST(LaneHandback, OwnedAndSharedStripesAreExactAfterTheWritersExit) {
  constexpr std::size_t kWriters = 24;
  constexpr std::uint64_t kPerWriter = 24'000;
  std::vector<double> bounds;  // 1, 2, 4, ..., 1024, then +Inf
  for (int k = 0; k <= 10; ++k) bounds.push_back(std::ldexp(1.0, k));
  Counter counter;
  LatencyHistogram hist(bounds);
  std::vector<std::size_t> stripe(kWriters);
  std::latch all_claimed(kWriters);
  std::vector<std::thread> writers;
  for (std::size_t w = 0; w < kWriters; ++w)
    writers.emplace_back([&, w] {
      stripe[w] = detail::stripe_index();
      all_claimed.arrive_and_wait();
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        counter.add(w + 1);
        // 2^0 .. 2^11: 2^k lands in bucket k, 2^11 in +Inf.
        hist.record(std::ldexp(1.0, static_cast<int>(i % 12)));
      }
    });
  for (auto& w : writers) w.join();

  std::set<std::size_t> owned;
  std::size_t shared = 0;
  for (const std::size_t s : stripe) {
    if (s == detail::kOwnedStripes)
      ++shared;
    else
      EXPECT_TRUE(owned.insert(s).second) << "stripe " << s << " owned twice";
  }
  // This process's main thread may hold a stripe of its own.
  EXPECT_GE(owned.size(), detail::kOwnedStripes - 1);
  EXPECT_GE(shared, kWriters - detail::kOwnedStripes);

  EXPECT_EQ(counter.value(), kPerWriter * kWriters * (kWriters + 1) / 2);
  EXPECT_EQ(hist.count(), kWriters * kPerWriter);
  const auto counts = hist.bucket_counts();
  ASSERT_EQ(counts.size(), 12u);
  for (std::size_t b = 0; b < counts.size(); ++b)
    EXPECT_EQ(counts[b], kWriters * kPerWriter / 12) << "bucket " << b;
  // Sums of powers of two up to 2^11 are exact in a double.
  EXPECT_EQ(hist.sum(), static_cast<double>(kWriters * (kPerWriter / 12) *
                                            ((1u << 12) - 1)));
}

}  // namespace
}  // namespace ubac::telemetry
