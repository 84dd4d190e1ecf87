// Tests for the span tracer: runtime gating, nested recording, ring
// retention, lanes (dense, reused across waves, shared past the 16th
// live thread), open-span (flight-recorder) visibility, thread-pool task
// hooks, and the Chrome trace-event exporter.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <latch>
#include <regex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/event_trace.hpp"
#include "telemetry/span.hpp"
#include "util/lane_claims.hpp"
#include "util/thread_pool.hpp"

namespace ubac::telemetry {
namespace {

/// Installs `recorder` for the test body and always uninstalls it, so a
/// failing assertion cannot leave tracing on for later tests.
class ScopedInstall {
 public:
  explicit ScopedInstall(SpanRecorder& recorder) {
    SpanRecorder::install(&recorder);
  }
  ~ScopedInstall() { SpanRecorder::install(nullptr); }
};

TEST(SpanRecorder, DisabledByDefaultAndZeroCostToUse) {
  ASSERT_EQ(SpanRecorder::active(), nullptr);
  {
    UBAC_SPAN("noop", "test");
    UBAC_SPAN_ARG("noop_arg", "test", "x", 1.5);
    ScopedSpan span("manual", "test");
    EXPECT_FALSE(span.active());
    span.set_arg("ignored", 2.0);  // must be a no-op, not a crash
  }
}

TEST(SpanRecorder, RecordsNestedSpansInnermostFirst) {
  SpanRecorder recorder(64);
  {
    ScopedInstall install(recorder);
    ASSERT_EQ(SpanRecorder::active(), &recorder);
    {
      UBAC_SPAN("outer", "test");
      { UBAC_SPAN_ARG("inner", "test", "depth", 2); }
    }
  }
  const auto spans = recorder.snapshot();
  ASSERT_EQ(spans.size(), 2u);
  // The inner span completes (and is retained) first.
  EXPECT_STREQ(spans[0].name, "inner");
  EXPECT_STREQ(spans[1].name, "outer");
  EXPECT_STREQ(spans[0].category, "test");
  EXPECT_EQ(spans[0].thread, spans[1].thread);
  ASSERT_NE(spans[0].arg_key, nullptr);
  EXPECT_STREQ(spans[0].arg_key, "depth");
  EXPECT_EQ(spans[0].arg_value, 2.0);
  EXPECT_GE(spans[0].duration_ns, 0);
  // The outer span encloses the inner one.
  EXPECT_LE(spans[1].start_ns, spans[0].start_ns);
  EXPECT_GE(spans[1].start_ns + spans[1].duration_ns,
            spans[0].start_ns + spans[0].duration_ns);
  EXPECT_EQ(recorder.recorded(), 2u);
}

TEST(SpanRecorder, SetArgReplacesTheInnermostArgument) {
  SpanRecorder recorder(64);
  {
    ScopedInstall install(recorder);
    UBAC_SPAN_ARG("solve", "test", "warm", 0.0);
    SpanRecorder::active()->set_arg("warm", 1.0);
  }
  const auto spans = recorder.snapshot();
  ASSERT_EQ(spans.size(), 1u);
  ASSERT_NE(spans[0].arg_key, nullptr);
  EXPECT_STREQ(spans[0].arg_key, "warm");
  EXPECT_EQ(spans[0].arg_value, 1.0);
}

TEST(SpanRecorder, RingRetainsTheMostRecentSpans) {
  SpanRecorder recorder(4);  // already a power of two
  EXPECT_EQ(recorder.capacity(), 4u);
  {
    ScopedInstall install(recorder);
    for (int i = 0; i < 10; ++i) { UBAC_SPAN("span", "test"); }
  }
  EXPECT_EQ(recorder.recorded(), 10u);
  const auto spans = recorder.snapshot();
  ASSERT_EQ(spans.size(), 4u);
  // Oldest first, and only the last capacity() claims survive.
  for (std::size_t i = 0; i < spans.size(); ++i)
    EXPECT_EQ(spans[i].seq, 6u + i);
}

// Three threads alive together each record on a lane of their own, the
// three lowest.
TEST(SpanRecorder, ThreadsGetDenseIds) {
  SpanRecorder recorder(256);
  {
    ScopedInstall install(recorder);
    std::latch all_open(3);
    std::vector<std::thread> threads;
    for (int t = 0; t < 3; ++t)
      threads.emplace_back([&] {
        UBAC_SPAN("worker", "test");
        all_open.arrive_and_wait();
      });
    for (auto& th : threads) th.join();
  }
  EXPECT_EQ(recorder.lanes_used(), 3u);
  std::set<std::uint32_t> lanes;
  for (const auto& span : recorder.snapshot()) {
    EXPECT_LT(span.thread, 3u);
    lanes.insert(span.thread);
  }
  EXPECT_EQ(lanes.size(), 3u);
}

// Twenty waves of a two-worker pool under one recorder: each wave's
// workers hand their lanes back when the pool joins them, so the next
// wave records on the same lanes, and the trace names at most three (the
// main thread's and two workers').
TEST(SpanRecorder, PoolWavesReuseTheirLanes) {
  constexpr int kWaves = 20;
  constexpr std::size_t kTasks = 8;
  SpanRecorder recorder(1 << 10);
  {
    ScopedInstall install(recorder);
    for (int wave = 0; wave < kWaves; ++wave) {
      UBAC_SPAN("wave", "test");
      util::ThreadPool pool(2);
      pool.parallel_for(kTasks, [](std::size_t) { UBAC_SPAN("task", "test"); });
    }
  }
  // Each task is a task span inside its pool.task span.
  EXPECT_EQ(recorder.recorded(), kWaves * (1 + 2 * kTasks));
  EXPECT_LE(recorder.lanes_used(), 3u);
  ChromeTraceWriter writer;
  writer.add_spans(recorder, /*pid=*/1, "pipeline");
  const std::string json = writer.to_json();
  const std::regex thread_name(R"("pid":1,"tid":\d+,"name":"thread_name")");
  const auto names = static_cast<std::size_t>(std::distance(
      std::sregex_iterator(json.begin(), json.end(), thread_name),
      std::sregex_iterator()));
  EXPECT_GE(names, 1u);
  EXPECT_LE(names, 3u) << json.substr(0, 2000);
}

// Twenty threads alive at once, so four share the overflow lane, each
// opening an outer span and many inner ones: every inner span lies in the
// window its own thread saw around it and inside that thread's outer
// span, on the same lane, and nothing stays open.
TEST(SpanRecorder, SpansNestPerThreadOnTheSharedLane) {
  constexpr std::size_t kThreads = 20;
  constexpr std::size_t kRounds = 50;
  SpanRecorder recorder(1 << 12);
  std::vector<std::vector<std::int64_t>> before(
      kThreads, std::vector<std::int64_t>(kRounds)),
      after = before;
  {
    ScopedInstall install(recorder);
    std::latch all_open(kThreads);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t)
      threads.emplace_back([&, t] {
        UBAC_SPAN_ARG("outer", "test", "thread", t);
        all_open.arrive_and_wait();
        for (std::size_t r = 0; r < kRounds; ++r) {
          before[t][r] = SpanRecorder::now_ns();
          { UBAC_SPAN_ARG("inner", "test", "span", t * kRounds + r); }
          after[t][r] = SpanRecorder::now_ns();
        }
      });
    for (auto& th : threads) th.join();
  }
  EXPECT_TRUE(recorder.open_spans().empty());
  EXPECT_EQ(recorder.lanes_used(), util::LaneClaims::kLanes + 1);

  const auto spans = recorder.snapshot();
  ASSERT_EQ(spans.size(), kThreads * (1 + kRounds));
  std::vector<const SpanEvent*> outer(kThreads, nullptr);
  for (const SpanEvent& s : spans)
    if (std::string(s.name) == "outer") {
      const auto t = static_cast<std::size_t>(s.arg_value);
      ASSERT_LT(t, kThreads);
      EXPECT_EQ(outer[t], nullptr) << "thread " << t;
      outer[t] = &s;
    }
  std::size_t shared = 0;
  std::set<std::size_t> seen;
  for (const SpanEvent& s : spans) {
    if (std::string(s.name) != "inner") continue;
    const auto id = static_cast<std::size_t>(s.arg_value);
    ASSERT_TRUE(seen.insert(id).second) << "span " << id << " twice";
    const std::size_t t = id / kRounds, r = id % kRounds;
    ASSERT_LT(t, kThreads);
    ASSERT_NE(outer[t], nullptr) << "thread " << t;
    EXPECT_GE(s.start_ns, before[t][r]) << "span " << id;
    EXPECT_LE(s.start_ns + s.duration_ns, after[t][r]) << "span " << id;
    EXPECT_GE(s.start_ns, outer[t]->start_ns) << "span " << id;
    EXPECT_LE(s.start_ns + s.duration_ns,
              outer[t]->start_ns + outer[t]->duration_ns)
        << "span " << id;
    EXPECT_EQ(s.thread, outer[t]->thread) << "span " << id;
    shared += s.thread == util::LaneClaims::kLanes;
  }
  EXPECT_EQ(seen.size(), kThreads * kRounds);
  EXPECT_EQ(shared, (kThreads - util::LaneClaims::kLanes) * kRounds);
}

TEST(SpanRecorder, OpenSpansAreVisibleUntilClosed) {
  SpanRecorder recorder(64);
  ScopedInstall install(recorder);
  recorder.begin("held", "test", "k", 7.0);
  const auto open = recorder.open_spans();
  ASSERT_EQ(open.size(), 1u);
  EXPECT_STREQ(open[0].name, "held");
  EXPECT_STREQ(open[0].arg_key, "k");
  EXPECT_EQ(open[0].arg_value, 7.0);
  recorder.end();
  EXPECT_TRUE(recorder.open_spans().empty());
  EXPECT_EQ(recorder.snapshot().size(), 1u);
}

TEST(SpanRecorder, ThreadPoolTasksAreTraced) {
  SpanRecorder recorder(256);
  std::atomic<int> ran{0};
  {
    ScopedInstall install(recorder);
    util::ThreadPool pool(2);
    pool.parallel_for(8, [&](std::size_t) { ++ran; });
  }
  EXPECT_EQ(ran.load(), 8);
  std::size_t pool_spans = 0;
  for (const auto& span : recorder.snapshot())
    if (std::string(span.name) == "pool.task") ++pool_spans;
  EXPECT_EQ(pool_spans, 8u);
}

TEST(ChromeTraceWriter, WritesLoadableTraceEventJson) {
  SpanRecorder recorder(64);
  {
    ScopedInstall install(recorder);
    UBAC_SPAN_ARG("config.commit", "config", "alpha", 0.3);
  }
  ChromeTraceWriter writer;
  writer.add_spans(recorder, /*pid=*/1, "pipeline");
  writer.add_instant_event("admit", "admission", 1, 9999, 12.5,
                           "{\"flow\":3}");
  const std::string json = writer.to_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // complete span
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);  // process name
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);  // instant
  EXPECT_NE(json.find("config.commit"), std::string::npos);
  EXPECT_NE(json.find("\"alpha\":0.3"), std::string::npos);

  const std::string path = ::testing::TempDir() + "/ubac_span_test.json";
  writer.write(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
}

TEST(ChromeTraceWriter, BridgesEventTracerAsInstantEvents) {
  EventTracer tracer(64);
  TraceEvent ev;
  ev.kind = TraceEventKind::kReject;
  ev.flow_id = 42;
  ev.utilization = 0.9;
  ev.reason = "saturated";
  tracer.record(ev);

  ChromeTraceWriter writer;
  writer.add_tracer_events(tracer, /*epoch_ns=*/0, /*pid=*/1, /*tid=*/7,
                           "admission events");
  const std::string json = writer.to_json();
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("reject"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":7"), std::string::npos);
}

}  // namespace
}  // namespace ubac::telemetry
