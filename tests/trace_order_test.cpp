// Tests for the EventTracer's record order: events are ordered by the
// wall-clock stamp record() takes, never by the caller's timestamp_ns,
// and a snapshot numbers what it retains densely, ending at
// recorded() - 1. The JSON trace and the flight dump carry those
// snapshot seqs.
#include <gtest/gtest.h>

#include <cstdint>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/event_trace.hpp"
#include "telemetry/flight.hpp"

namespace ubac::telemetry {
namespace {

// A sim-time sample and an alert, stamped with tiny caller timestamps and
// recorded after a joined thread's wall-clock admission events, come
// after those events: their own clock domains never decide order.
TEST(TraceOrder, ForeignClockEventsRecordedLaterSnapshotLater) {
  EventTracer tracer(64, 1.0);
  std::thread admitter([&] {
    for (std::uint64_t i = 0; i < 10; ++i) {
      TraceEvent ev;
      ev.kind = TraceEventKind::kAdmit;
      ev.flow_id = i;
      tracer.record(ev);  // timestamp_ns 0: filled with the record stamp
    }
  });
  admitter.join();
  TraceEvent sample;
  sample.kind = TraceEventKind::kSample;
  sample.timestamp_ns = 5;  // sim clock
  tracer.record(sample);
  TraceEvent alert;
  alert.kind = TraceEventKind::kAlert;
  alert.timestamp_ns = 1;
  tracer.record(alert);

  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 12u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(events[i].kind, TraceEventKind::kAdmit);
    EXPECT_EQ(events[i].flow_id, i);
    EXPECT_GT(events[i].timestamp_ns, 5);
  }
  EXPECT_EQ(events[10].kind, TraceEventKind::kSample);
  EXPECT_EQ(events[10].timestamp_ns, 5);
  EXPECT_EQ(events[11].kind, TraceEventKind::kAlert);
  EXPECT_EQ(events[11].timestamp_ns, 1);
  for (std::size_t i = 0; i < events.size(); ++i) EXPECT_EQ(events[i].seq, i);
}

// Four writers with real stamps: the quiescent snapshot is the newest
// `capacity` events, seqs dense up to recorded() - 1, in stamp order
// (their filled-in timestamps never decrease) and in each writer's own
// record order.
TEST(TraceOrder, StampedWritersGetDenseSeqsInPerWriterOrder) {
  constexpr std::size_t kWriters = 4;
  constexpr std::uint64_t kPerWriter = 5'000;
  EventTracer tracer(1024, 1.0);
  std::vector<std::thread> writers;
  for (std::size_t w = 0; w < kWriters; ++w)
    writers.emplace_back([&, w] {
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        TraceEvent ev;
        ev.flow_id = w * kPerWriter + i;
        tracer.record(ev);
      }
    });
  for (auto& w : writers) w.join();

  const std::uint64_t total = kWriters * kPerWriter;
  EXPECT_EQ(tracer.recorded(), total);
  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), tracer.capacity());
  std::vector<std::uint64_t> last(kWriters, 0);
  std::vector<bool> seen(kWriters, false);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, total - tracer.capacity() + i);
    if (i > 0) {
      EXPECT_GE(events[i].timestamp_ns, events[i - 1].timestamp_ns);
    }
    const std::size_t w = events[i].flow_id / kPerWriter;
    ASSERT_LT(w, kWriters);
    if (seen[w]) {
      EXPECT_GT(events[i].flow_id, last[w]);
    }
    seen[w] = true;
    last[w] = events[i].flow_id;
  }
  // A writer with any event among the newest has all its later ones
  // there too, so its last retained event is the last it recorded.
  for (std::size_t w = 0; w < kWriters; ++w)
    if (seen[w]) {
      EXPECT_EQ(last[w], w * kPerWriter + kPerWriter - 1);
    }
}

// 24 writers, each held alive until all have recorded, so none can hand
// its lane on to a later one: the first 16 to claim own a lane each, the
// other 8 share the overflow lane. At quiescence the snapshot
// is still exactly the newest `capacity` events. Each writer notes the
// clock before every record(), a lower bound on that event's record
// stamp, so an event left out of the snapshot must have been recorded no
// later than the oldest one kept.
TEST(TraceOrder, OverflowLaneKeepsTheNewestCapacityExact) {
  constexpr std::size_t kWriters = 24;
  constexpr std::uint64_t kPerWriter = 2'000;
  EventTracer tracer(256, 1.0);
  std::vector<std::vector<std::int64_t>> before(
      kWriters, std::vector<std::int64_t>(kPerWriter));
  std::latch all_done(kWriters);
  std::vector<std::thread> writers;
  for (std::size_t w = 0; w < kWriters; ++w)
    writers.emplace_back([&, w] {
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        TraceEvent ev;
        ev.flow_id = w * kPerWriter + i;
        before[w][i] = EventTracer::now_ns();
        tracer.record(ev);
      }
      all_done.arrive_and_wait();
    });
  for (auto& w : writers) w.join();

  EXPECT_EQ(tracer.overflow_recorded(),
            (kWriters - util::LaneClaims::kLanes) * kPerWriter);
  const std::uint64_t total = kWriters * kPerWriter;
  EXPECT_EQ(tracer.recorded(), total);
  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), tracer.capacity());
  const std::int64_t oldest_kept = events.front().timestamp_ns;
  // first[w]: index of writer w's oldest retained event (kPerWriter: none).
  std::vector<std::uint64_t> first(kWriters, kPerWriter);
  std::vector<std::uint64_t> next(kWriters, 0);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, total - tracer.capacity() + i);
    if (i > 0) {
      EXPECT_GE(events[i].timestamp_ns, events[i - 1].timestamp_ns);
    }
    const std::size_t w = events[i].flow_id / kPerWriter;
    ASSERT_LT(w, kWriters);
    const std::uint64_t k = events[i].flow_id % kPerWriter;
    EXPECT_GE(events[i].timestamp_ns, before[w][k]);
    if (first[w] == kPerWriter) first[w] = k;
    EXPECT_EQ(k, first[w] + next[w]++) << "writer " << w << " lost an event";
  }
  for (std::size_t w = 0; w < kWriters; ++w) {
    // A writer's retained events are its newest ones...
    if (first[w] < kPerWriter) {
      EXPECT_EQ(first[w] + next[w], kPerWriter) << "writer " << w;
    }
    // ...and the one before them started no later than the oldest kept.
    if (first[w] > 0) {
      EXPECT_LE(before[w][first[w] - 1], oldest_kept) << "writer " << w;
    }
  }
}

// The same 24 writers held alive together: each records one event, then
// waits until all have, so 16 own a lane and 8 certainly share the
// overflow lane (writers that ran one after another would hand their
// lanes on instead). The snapshot is still exactly the newest `capacity`.
TEST(TraceOrder, OverflowLaneOfLiveWritersKeepsTheNewestCapacityExact) {
  constexpr std::size_t kWriters = 24;
  constexpr std::uint64_t kPerWriter = 2'000;
  EventTracer tracer(256, 1.0);
  std::vector<std::vector<std::int64_t>> before(
      kWriters, std::vector<std::int64_t>(kPerWriter));
  std::latch all_recording(kWriters);
  std::vector<std::thread> writers;
  for (std::size_t w = 0; w < kWriters; ++w)
    writers.emplace_back([&, w] {
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        TraceEvent ev;
        ev.flow_id = w * kPerWriter + i;
        before[w][i] = EventTracer::now_ns();
        tracer.record(ev);
        if (i == 0) all_recording.arrive_and_wait();
      }
    });
  for (auto& w : writers) w.join();

  EXPECT_EQ(tracer.overflow_recorded(),
            (kWriters - util::LaneClaims::kLanes) * kPerWriter);
  const std::uint64_t total = kWriters * kPerWriter;
  EXPECT_EQ(tracer.recorded(), total);
  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), tracer.capacity());
  const std::int64_t oldest_kept = events.front().timestamp_ns;
  std::vector<std::uint64_t> first(kWriters, kPerWriter);
  std::vector<std::uint64_t> next(kWriters, 0);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, total - tracer.capacity() + i);
    if (i > 0) {
      EXPECT_GE(events[i].timestamp_ns, events[i - 1].timestamp_ns);
    }
    const std::size_t w = events[i].flow_id / kPerWriter;
    ASSERT_LT(w, kWriters);
    const std::uint64_t k = events[i].flow_id % kPerWriter;
    EXPECT_GE(events[i].timestamp_ns, before[w][k]);
    if (first[w] == kPerWriter) first[w] = k;
    EXPECT_EQ(k, first[w] + next[w]++) << "writer " << w << " lost an event";
  }
  for (std::size_t w = 0; w < kWriters; ++w) {
    if (first[w] < kPerWriter) {
      EXPECT_EQ(first[w] + next[w], kPerWriter) << "writer " << w;
    }
    if (first[w] > 0) {
      EXPECT_LE(before[w][first[w] - 1], oldest_kept) << "writer " << w;
    }
  }
}

TEST(TraceOrder, JsonAndFlightDumpShowTheSnapshotSeqs) {
  EventTracer tracer(8, 1.0);
  for (std::uint64_t i = 0; i < 20; ++i) {
    TraceEvent ev;
    ev.flow_id = 100 + i;
    ev.timestamp_ns = 7;
    tracer.record(ev);
  }
  const std::string json = tracer.to_json();
  const std::string dump =
      FlightSnapshot::capture(&tracer, nullptr, 8).to_text();
  for (std::uint64_t seq = 12; seq < 20; ++seq) {
    const std::string flow = std::to_string(100 + seq);
    EXPECT_NE(json.find("{\"seq\":" + std::to_string(seq) +
                        ",\"kind\":\"admit\",\"t_ns\":7,\"flow\":" + flow),
              std::string::npos)
        << json;
    EXPECT_NE(dump.find("[" + std::to_string(seq) + "] admit flow=" + flow),
              std::string::npos)
        << dump;
  }
  EXPECT_EQ(json.find("\"seq\":11,"), std::string::npos);
  EXPECT_EQ(json.find("\"seq\":20,"), std::string::npos);
  EXPECT_EQ(dump.find("[11]"), std::string::npos);
}

}  // namespace
}  // namespace ubac::telemetry
