// Tests for the demand conformance plane, layer by layer:
//  * ArrivalRecorder — multi-scale window sums on the 2^-10 grid,
//    slot lifecycle (admit/release/re-admit), bounded-capacity drops,
//    and round-down granularity.
//  * ConformanceMonitor — the estimator's one-sided guarantee: traffic
//    that satisfies the declared A[s,t] <= T + rho*(t-s) exactly is
//    never flagged, while factor-scaled offenders are flagged precisely,
//    worst margin first, with released violators retained frozen.
//  * misdeclaration_rule — the full alert lifecycle: violation instant,
//    hysteresis fire with kMisdeclaring actions carrying flow ids,
//    flight snapshot, window drain, clear instant, resolve.
//  * ReconfigurationActuator — a firing misdeclaration rule searches
//    alpha downward and the ledger entry records the offending flows.
//  * PacedLoadDriver — wall-clock churn with hash-seeded misdeclaration:
//    zero false positives (hard), every mature live offender detected.
//  * NetworkSim — the delivery-side feed scores a CBR flow conformant
//    in the sim clock domain.
//  * Churn test (run under TSan in CI): 8 admit/record/release threads
//    racing a collector running collect() + check().
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "admission/controller.hpp"
#include "admission/load_driver.hpp"
#include "analysis/engine.hpp"
#include "net/shortest_path.hpp"
#include "net/topology_factory.hpp"
#include "reconfig/actuator.hpp"
#include "sim/network_sim.hpp"
#include "telemetry/alerts.hpp"
#include "telemetry/conformance.hpp"
#include "telemetry/envelope.hpp"
#include "telemetry/event_trace.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/timeseries.hpp"
#include "traffic/workload.hpp"
#include "util/units.hpp"

namespace ubac {
namespace {

using admission::AdmissionController;
using telemetry::ArrivalRecorder;
using telemetry::ConformanceMonitor;
using telemetry::FlowConformance;
using traffic::ClassSet;
using traffic::LeakyBucket;
using units::kbps;
using units::milliseconds;

const LeakyBucket kVoice(640.0, kbps(32));
const Seconds kDeadline = milliseconds(100.0);
constexpr std::int64_t kNsPerSec = 1'000'000'000;

/// Greedy token-bucket emitter on a synthetic clock: every feed() the
/// bucket refills at `rate` (capped at `burst`) and drains whole 2^-10
/// granules into the recorder, so the emitted stream satisfies
/// A[s,t] <= burst + rate*(t-s) exactly — the conformant worst case.
/// Scale both parameters to model a misdeclaring flow.
struct GreedyFeeder {
  traffic::FlowId id;
  double burst;
  double rate;
  double tokens;
  std::int64_t last_ns;

  GreedyFeeder(traffic::FlowId id, double burst, double rate, std::int64_t t0)
      : id(id), burst(burst), rate(rate), tokens(burst), last_ns(t0) {}

  void feed(ArrivalRecorder& recorder, std::int64_t t_ns) {
    const double dt = static_cast<double>(t_ns - last_ns) * 1e-9;
    last_ns = t_ns;
    if (dt > 0.0) tokens = std::min(burst, tokens + rate * dt);
    const double emit = std::floor(tokens * 1024.0) / 1024.0;
    if (emit <= 0.0) return;
    recorder.record(id, emit, t_ns);
    tokens -= emit;
  }
};

// ---------------------------------------------------------------------------
// ArrivalRecorder: window sums and slot lifecycle
// ---------------------------------------------------------------------------

TEST(Envelope, WindowsTrackMultiScaleArrivals) {
  ArrivalRecorder recorder;
  const std::int64_t t0 = 10 * kNsPerSec;

  recorder.on_admit(7, 2);
  EXPECT_EQ(recorder.flow_count(), 1u);
  recorder.record(7, 1000.0, t0);
  recorder.record(7, 500.0, t0 + kNsPerSec / 2);

  std::vector<ArrivalRecorder::FlowWindows> out;
  recorder.collect(t0 + kNsPerSec / 2, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].flow_id, 7u);
  EXPECT_EQ(out[0].class_index, 2u);
  EXPECT_DOUBLE_EQ(out[0].total_bits, 1500.0);
  // 500 ms apart: the 10 ms and 100 ms windows hold only the newer
  // arrival, the 1 s and 10 s windows hold both.
  EXPECT_DOUBLE_EQ(out[0].window_bits[0], 500.0);
  EXPECT_DOUBLE_EQ(out[0].window_bits[1], 500.0);
  EXPECT_DOUBLE_EQ(out[0].window_bits[2], 1500.0);
  EXPECT_DOUBLE_EQ(out[0].window_bits[3], 1500.0);

  recorder.on_release(7);
  EXPECT_EQ(recorder.flow_count(), 0u);
  out.clear();
  recorder.collect(t0 + kNsPerSec, out);
  EXPECT_TRUE(out.empty());
  // Records for a released id are dropped, not resurrected.
  recorder.record(7, 640.0, t0 + kNsPerSec);
  EXPECT_EQ(recorder.dropped_records(), 1u);
}

TEST(Envelope, RegistrationLimitsAndGranularity) {
  ArrivalRecorder::Options options;
  options.capacity = 4;
  ArrivalRecorder small(options);
  for (traffic::FlowId id = 100; id < 164; ++id) small.on_admit(id, 0);
  EXPECT_LE(small.flow_count(), 4u);
  EXPECT_GE(small.dropped_registrations(), 60u);

  ArrivalRecorder recorder;
  recorder.on_admit(5, 1);
  recorder.on_admit(5, 1);  // re-admit is a no-op
  EXPECT_EQ(recorder.flow_count(), 1u);

  // Arrivals round DOWN to 2^-10 bit granules (undercount, never over).
  const std::int64_t t0 = kNsPerSec;
  recorder.record(5, 0.0005, t0);  // below one granule: nothing lands
  recorder.record(5, 1.3, t0);
  std::vector<ArrivalRecorder::FlowWindows> out;
  recorder.collect(t0, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].total_bits, std::floor(1.3 * 1024.0) / 1024.0);
  EXPECT_LE(out[0].total_bits, 1.3);
}

// A released flow whose arrivals filled every bucket of every scale hands
// its slot to a new id: the new flow's windows start at zero, so exactly
// declared traffic on it is never flagged even though the previous
// occupant offered 3x its bucket into the same slot.
TEST(Envelope, ReclaimedSlotStartsTheNewFlowAtZero) {
  ArrivalRecorder::Options options;
  options.capacity = 2;
  ArrivalRecorder recorder(options);
  ConformanceMonitor monitor(recorder);
  monitor.set_class_envelope(0, kVoice);

  const std::int64_t t0 = kNsPerSec;
  constexpr std::int64_t kStepNs = 5'000'000;
  recorder.on_admit(1, 0);
  recorder.on_admit(2, 0);  // holds the other slot
  GreedyFeeder heavy(1, 3.0 * kVoice.burst, 3.0 * kVoice.rate, t0);
  std::int64_t t = t0;
  for (int i = 0; i < 2400; ++i) heavy.feed(recorder, t += kStepNs);
  monitor.check(t);
  ASSERT_EQ(monitor.violating_count(), 1u);

  recorder.on_release(1);
  recorder.on_admit(3, 0);  // the only free slot is flow 1's
  EXPECT_EQ(recorder.flow_count(), 2u);
  EXPECT_EQ(recorder.dropped_registrations(), 0u);
  std::vector<ArrivalRecorder::FlowWindows> out;
  recorder.collect(t, out);
  ASSERT_EQ(out.size(), 2u);
  for (const auto& fw : out) {
    EXPECT_NE(fw.flow_id, 1u);
    EXPECT_EQ(fw.registered_ns, 0);
    EXPECT_EQ(fw.total_bits, 0.0);
    for (double bits : fw.window_bits) EXPECT_EQ(bits, 0.0);
  }

  GreedyFeeder exact(3, kVoice.burst, kVoice.rate, t);
  for (int i = 0; i < 2400; ++i) {
    exact.feed(recorder, t += kStepNs);
    if (i % 100 == 0) monitor.check(t);
  }
  monitor.check(t);
  bool scored = false;
  for (const auto& flow : monitor.flows()) {
    if (flow.flow_id != 3) continue;
    scored = true;
    EXPECT_FALSE(flow.violating);
    EXPECT_GE(flow.worst_margin, 0.0);
  }
  EXPECT_TRUE(scored);
}

// Eight threads churn private id ranges; at quiescence flow_count() is
// exactly the registrations left standing, and collect() agrees.
TEST(Envelope, FlowCountIsExactAfterConcurrentChurn) {
  constexpr std::size_t kThreads = 8;
  constexpr traffic::FlowId kIdsPerThread = 4'000;
  ArrivalRecorder::Options options;
  options.capacity = 1 << 16;
  ArrivalRecorder recorder(options);
  std::vector<std::thread> writers;
  for (std::size_t w = 0; w < kThreads; ++w)
    writers.emplace_back([&recorder, w] {
      const traffic::FlowId base = w * kIdsPerThread;
      for (traffic::FlowId i = 0; i < kIdsPerThread; ++i) {
        recorder.on_admit(base + i, 0);
        // Keep every third id; release the rest one step behind.
        if (i > 0 && (i - 1) % 3 != 0) recorder.on_release(base + i - 1);
      }
    });
  for (auto& thread : writers) thread.join();
  ASSERT_EQ(recorder.dropped_registrations(), 0u);
  // Per thread: ids with i % 3 == 0 stay, and so does the last id.
  std::size_t kept = 0;
  for (traffic::FlowId i = 0; i < kIdsPerThread; ++i)
    if (i % 3 == 0 || i + 1 == kIdsPerThread) ++kept;
  const std::size_t expected = kThreads * kept;
  EXPECT_EQ(recorder.flow_count(), expected);
  std::vector<ArrivalRecorder::FlowWindows> out;
  recorder.collect(kNsPerSec, out);
  EXPECT_EQ(out.size(), expected);
}

// ---------------------------------------------------------------------------
// ArrivalRecorder: key-only claims
// ---------------------------------------------------------------------------

// A key holds the class in its top byte and id + 1 below: an id or a
// class that does not fit is a counted drop, not a registration.
TEST(EnvelopeClaims, IdOrClassPastTheKeyIsDropped) {
  constexpr traffic::FlowId kTooLarge = (traffic::FlowId{1} << 56) - 1;
  ArrivalRecorder recorder;
  recorder.on_admit(kTooLarge, 0);
  EXPECT_EQ(recorder.dropped_registrations(), 1u);
  recorder.on_admit(5, 256);
  EXPECT_EQ(recorder.dropped_registrations(), 2u);
  EXPECT_EQ(recorder.flow_count(), 0u);
  std::vector<ArrivalRecorder::FlowWindows> out;
  recorder.collect(kNsPerSec, out);
  EXPECT_TRUE(out.empty());
  recorder.record(kTooLarge, 640.0, kNsPerSec);
  EXPECT_EQ(recorder.dropped_records(), 1u);

  // The largest id and class that fit register normally.
  recorder.on_admit(kTooLarge - 1, 255);
  EXPECT_EQ(recorder.dropped_registrations(), 2u);
  recorder.collect(kNsPerSec, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].flow_id, kTooLarge - 1);
  EXPECT_EQ(out[0].class_index, 255u);
}

// Ids shaped like the admission controller's (lane << 48 | sequence, up
// to lane 15) round-trip their id and class through collect(), recorded
// into or not.
TEST(EnvelopeClaims, ControllerIdsRoundTripThroughCollect) {
  struct Case {
    traffic::FlowId id;
    std::uint32_t class_index;
  };
  const std::vector<Case> cases = {
      {(traffic::FlowId{15} << 48) | ((traffic::FlowId{1} << 48) - 1), 1},
      {(traffic::FlowId{15} << 48) | 1, 0},
      {(traffic::FlowId{7} << 48) | 123'456'789, 3},
      {1, 200},
      {0, 255}};
  ArrivalRecorder recorder;
  for (const Case& c : cases) recorder.on_admit(c.id, c.class_index);
  for (std::size_t i = 0; i < cases.size(); i += 2)
    recorder.record(cases[i].id, 64.0 * static_cast<double>(i + 1),
                    kNsPerSec);
  EXPECT_EQ(recorder.dropped_registrations(), 0u);
  EXPECT_EQ(recorder.flow_count(), cases.size());

  std::vector<ArrivalRecorder::FlowWindows> out;
  recorder.collect(kNsPerSec, out);
  ASSERT_EQ(out.size(), cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto it = std::find_if(out.begin(), out.end(), [&](const auto& fw) {
      return fw.flow_id == cases[i].id;
    });
    ASSERT_NE(it, out.end()) << cases[i].id;
    EXPECT_EQ(it->class_index, cases[i].class_index);
    EXPECT_EQ(it->total_bits, i % 2 == 0 ? 64.0 * (i + 1) : 0.0);
  }
  for (const Case& c : cases) recorder.on_release(c.id);
  EXPECT_EQ(recorder.flow_count(), 0u);
}

// The claim writes only the key, so the previous occupant's windows stay
// in the payload until the new occupant records. collect() must not
// attribute them to the new flow in the meantime, at any window position.
TEST(EnvelopeClaims, ReclaimedSlotWithoutRecordsReportsZeroWindows) {
  ArrivalRecorder::Options options;
  options.capacity = 2;
  ArrivalRecorder recorder(options);
  recorder.on_admit(1, 0);
  recorder.on_admit(2, 0);
  std::int64_t t = kNsPerSec;
  for (int i = 0; i < 4000; ++i) recorder.record(1, 640.0, t += 5'000'000);
  recorder.on_release(1);
  recorder.on_admit(3, 1);  // the only free slot is flow 1's
  recorder.record(3, 0.0, t);  // nothing lands: still no windows

  for (const std::int64_t now : {t, t + kNsPerSec, t + 20 * kNsPerSec}) {
    std::vector<ArrivalRecorder::FlowWindows> out;
    recorder.collect(now, out);
    ASSERT_EQ(out.size(), 2u);
    for (const auto& fw : out) {
      EXPECT_NE(fw.flow_id, 1u);
      EXPECT_EQ(fw.registered_ns, 0);
      EXPECT_EQ(fw.total_bits, 0.0);
      for (double bits : fw.window_bits) EXPECT_EQ(bits, 0.0);
    }
  }

  // Its first record scrubs the old windows: only its own bits show.
  recorder.record(3, 64.0, t + kNsPerSec);
  std::vector<ArrivalRecorder::FlowWindows> out;
  recorder.collect(t + kNsPerSec, out);
  const auto it = std::find_if(out.begin(), out.end(),
                               [](const auto& fw) { return fw.flow_id == 3; });
  ASSERT_NE(it, out.end());
  EXPECT_EQ(it->class_index, 1u);
  EXPECT_EQ(it->registered_ns, t + kNsPerSec);
  EXPECT_EQ(it->total_bits, 64.0);
  for (double bits : it->window_bits) EXPECT_EQ(bits, 64.0);
}

// Writers cycle flows through a 16-slot table (admit, a few records,
// release), so slots are reclaimed constantly, while a collector reads.
// Each flow records a signature only it uses — bits that are a multiple
// of id + 1, at times that start at its own first-record time — so any
// previous occupant's data showing under a key would break a check.
TEST(EnvelopeClaims, ConcurrentReuseNeverSurfacesAPreviousOccupant) {
  constexpr std::size_t kWriters = 4;
  constexpr traffic::FlowId kFlowsPerWriter = 2'000;
  constexpr int kRecords = 4;
  ArrivalRecorder::Options options;
  options.capacity = 16;
  ArrivalRecorder recorder(options);
  const auto first_ns = [](traffic::FlowId id) {
    return kNsPerSec + static_cast<std::int64_t>(id) * 1'000'000;
  };
  const auto signature = [](traffic::FlowId id) {
    return static_cast<double>(id + 1);
  };

  std::atomic<bool> stop{false};
  std::thread collector([&] {
    std::vector<ArrivalRecorder::FlowWindows> out;
    while (!stop.load(std::memory_order_acquire)) {
      out.clear();
      recorder.collect(first_ns(kWriters * kFlowsPerWriter), out);
      for (const auto& fw : out) {
        const double sig = signature(fw.flow_id);
        EXPECT_EQ(fw.class_index, fw.flow_id / kFlowsPerWriter);
        EXPECT_TRUE(fw.registered_ns == 0 ||
                    fw.registered_ns == first_ns(fw.flow_id))
            << fw.flow_id << " " << fw.registered_ns;
        EXPECT_LE(fw.total_bits, kRecords * sig) << fw.flow_id;
        EXPECT_EQ(std::fmod(fw.total_bits, sig), 0.0) << fw.flow_id;
        for (double bits : fw.window_bits) {
          EXPECT_LE(bits, kRecords * sig) << fw.flow_id;
          EXPECT_EQ(std::fmod(bits, sig), 0.0) << fw.flow_id;
        }
      }
    }
  });
  std::vector<std::thread> writers;
  for (std::size_t w = 0; w < kWriters; ++w)
    writers.emplace_back([&, w] {
      for (traffic::FlowId i = 0; i < kFlowsPerWriter; ++i) {
        const traffic::FlowId id = w * kFlowsPerWriter + i;
        recorder.on_admit(id, static_cast<std::uint32_t>(w));
        for (int r = 0; r < kRecords; ++r)
          recorder.record(id, signature(id), first_ns(id) + r * 1'000);
        recorder.on_release(id);
      }
    });
  for (auto& thread : writers) thread.join();
  stop.store(true, std::memory_order_release);
  collector.join();

  EXPECT_EQ(recorder.dropped_registrations(), 0u);
  EXPECT_EQ(recorder.dropped_records(), 0u);
  EXPECT_EQ(recorder.flow_count(), 0u);
}

// ---------------------------------------------------------------------------
// ArrivalRecorder: one region per controller lane
// ---------------------------------------------------------------------------

traffic::FlowId lane_id(traffic::FlowId lane, traffic::FlowId sequence) {
  return lane << ArrivalRecorder::kRegionShift | sequence;
}

// Each lane's region holds `capacity` flows of its own: sixteen lanes that
// each admit `capacity` consecutive controller ids drop none, and a
// region is mapped only once a lane admits into it.
TEST(EnvelopeRegions, EveryLaneHoldsCapacityFlowsOfItsOwn) {
  ArrivalRecorder::Options options;
  options.capacity = 1000;  // rounds up to 1024 slots a region
  ArrivalRecorder recorder(options);
  EXPECT_EQ(recorder.regions_in_use(), 0u);
  for (traffic::FlowId lane = 0; lane < ArrivalRecorder::kRegions; ++lane) {
    for (traffic::FlowId seq = 1; seq <= options.capacity; ++seq)
      recorder.on_admit(lane_id(lane, seq), static_cast<std::uint32_t>(lane));
    EXPECT_EQ(recorder.regions_in_use(), lane + 1);
  }
  EXPECT_EQ(recorder.dropped_registrations(), 0u);
  EXPECT_EQ(recorder.flow_count(),
            ArrivalRecorder::kRegions * options.capacity);
  recorder.record(lane_id(9, 500), 64.0, kNsPerSec);
  std::vector<ArrivalRecorder::FlowWindows> out;
  recorder.collect(kNsPerSec, out);
  ASSERT_EQ(out.size(), ArrivalRecorder::kRegions * options.capacity);
  std::set<traffic::FlowId> ids;
  for (const auto& fw : out) {
    ids.insert(fw.flow_id);
    EXPECT_EQ(fw.class_index, fw.flow_id >> ArrivalRecorder::kRegionShift);
    EXPECT_EQ(fw.total_bits, fw.flow_id == lane_id(9, 500) ? 64.0 : 0.0);
  }
  EXPECT_EQ(ids.size(), out.size());
  // A lane past its capacity drops only what does not fit.
  for (traffic::FlowId seq = 1; seq <= 64; ++seq)
    recorder.on_admit(lane_id(3, options.capacity + 2000 + seq), 0);
  EXPECT_GT(recorder.dropped_registrations(), 0u);
  EXPECT_EQ(recorder.flow_count() + recorder.dropped_registrations(),
            ArrivalRecorder::kRegions * options.capacity + 64);
  for (const auto& fw : out) recorder.on_release(fw.flow_id);
  EXPECT_EQ(recorder.flow_count(), 64 - recorder.dropped_registrations());
}

// Lane bits of 16 or more (no controller issues them) wrap onto region
// lane % 16, next to that lane's own ids, and stay distinct from them.
TEST(EnvelopeRegions, LaneBitsPastTheLanesWrapOntoARegion) {
  ArrivalRecorder recorder;
  const traffic::FlowId own = lane_id(1, 5);
  const traffic::FlowId wrapped = lane_id(17, 5);
  const traffic::FlowId widest = lane_id(255, 5);  // the top lane a key fits
  recorder.on_admit(own, 0);
  recorder.on_admit(wrapped, 1);
  EXPECT_EQ(recorder.regions_in_use(), 1u);  // both in region 1
  recorder.on_admit(widest, 2);
  EXPECT_EQ(recorder.regions_in_use(), 2u);  // region 15
  EXPECT_EQ(recorder.dropped_registrations(), 0u);
  recorder.record(own, 64.0, kNsPerSec);
  recorder.record(wrapped, 128.0, kNsPerSec);
  recorder.record(widest, 256.0, kNsPerSec);
  std::vector<ArrivalRecorder::FlowWindows> out;
  recorder.collect(kNsPerSec, out);
  ASSERT_EQ(out.size(), 3u);
  for (const auto& fw : out) {
    const double expected = fw.flow_id == own       ? 64.0
                            : fw.flow_id == wrapped ? 128.0
                                                    : 256.0;
    EXPECT_EQ(fw.total_bits, expected) << fw.flow_id;
  }
  recorder.on_release(wrapped);
  out.clear();
  recorder.collect(kNsPerSec, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_TRUE(out[0].flow_id != wrapped && out[1].flow_id != wrapped);
  // An id in a region nothing admitted into maps nothing.
  recorder.on_release(lane_id(4, 5));
  recorder.record(lane_id(4, 5), 64.0, kNsPerSec);
  EXPECT_EQ(recorder.dropped_records(), 1u);
  EXPECT_EQ(recorder.regions_in_use(), 2u);
}

// A caller that numbers its flows 0, 1, 2... (NetworkSim) keeps to region
// 0: `capacity` flows fit, the next one is dropped, and a release frees
// its slot for a later flow.
TEST(EnvelopeRegions, LaneZeroCallerUsesOneRegion) {
  ArrivalRecorder::Options options;
  options.capacity = 64;
  ArrivalRecorder recorder(options);
  for (traffic::FlowId id = 0; id < 64; ++id) recorder.on_admit(id, 0);
  EXPECT_EQ(recorder.dropped_registrations(), 0u);
  EXPECT_EQ(recorder.flow_count(), 64u);
  recorder.on_admit(64, 0);
  EXPECT_EQ(recorder.dropped_registrations(), 1u);
  recorder.on_release(10);
  recorder.on_admit(65, 0);
  EXPECT_EQ(recorder.dropped_registrations(), 1u);
  EXPECT_EQ(recorder.flow_count(), 64u);
  EXPECT_EQ(recorder.regions_in_use(), 1u);
}

// ---------------------------------------------------------------------------
// ConformanceMonitor: the one-sided estimator guarantee
// ---------------------------------------------------------------------------

// Traffic that satisfies the declared (T, rho) exactly — greedy emission,
// the tightest stream the envelope admits — must never be flagged on any
// window at any point in its life, and the steady-state margin must
// approach 0 from above.
TEST(Conformance, ExactDeclaredTrafficNeverViolates) {
  ArrivalRecorder recorder;
  ConformanceMonitor monitor(recorder);
  monitor.set_class_envelope(0, kVoice);

  const std::int64_t t0 = kNsPerSec;
  recorder.on_admit(1, 0);
  GreedyFeeder feeder(1, kVoice.burst, kVoice.rate, t0);

  constexpr std::int64_t kStepNs = 5'000'000;  // 5 ms
  constexpr int kSteps = 2400;                 // 12 s: fills every window
  std::int64_t t = t0;
  for (int i = 0; i < kSteps; ++i) {
    t += kStepNs;
    feeder.feed(recorder, t);
    if (i % 100 == 0) {
      monitor.check(t);
      ASSERT_EQ(monitor.violating_count(), 0u) << "at step " << i;
    }
  }
  monitor.check(t);
  EXPECT_EQ(monitor.violating_count(), 0u);
  EXPECT_GE(monitor.worst_margin(), 0.0);

  const auto flows = monitor.flows(1);
  ASSERT_EQ(flows.size(), 1u);
  // Steady state: the 1 s window carries ~rho of traffic against
  // T + rho, so the margin sits just above 0 (window quantization may
  // add up to 1/16 of slack).
  EXPECT_GE(flows[0].margin, 0.0);
  EXPECT_LE(flows[0].margin, 0.12);
  EXPECT_NEAR(flows[0].observed_bps, kVoice.rate, kVoice.rate * 0.1);
  EXPECT_DOUBLE_EQ(flows[0].declared_bps, kVoice.rate);
}

// 100 flows, 10 of them offering a 3x-scaled bucket: the violating set
// is exactly the offenders (zero false positives, zero misses), ordered
// worst margin first, and released violators stay visible while
// released conformant flows are dropped.
TEST(Conformance, PolarityFlagsExactlyTheScaledOffenders) {
  ArrivalRecorder recorder;
  ConformanceMonitor monitor(recorder);
  monitor.set_class_envelope(0, kVoice);
  monitor.set_placement([](traffic::FlowId, std::vector<std::uint32_t>& s) {
    s.push_back(0);
    return true;
  });
  monitor.set_share(0, 0, 1.0e6);

  constexpr std::size_t kFlows = 100;
  const auto offends = [](traffic::FlowId id) { return id % 10 == 0; };
  const std::int64_t t0 = kNsPerSec;
  std::vector<GreedyFeeder> feeders;
  for (traffic::FlowId id = 0; id < kFlows; ++id) {
    recorder.on_admit(id, 0);
    const double factor = offends(id) ? 3.0 : 1.0;
    feeders.emplace_back(id, factor * kVoice.burst, factor * kVoice.rate, t0);
  }

  constexpr std::int64_t kStepNs = 20'000'000;  // 20 ms feed cadence
  std::int64_t t = t0;
  for (int i = 0; i < 150; ++i) {  // 3 s
    t += kStepNs;
    for (auto& feeder : feeders) feeder.feed(recorder, t);
  }
  monitor.check(t);

  EXPECT_EQ(monitor.flows_seen(), kFlows);
  EXPECT_EQ(monitor.live_flows(), kFlows);
  EXPECT_EQ(monitor.violating_count(), 10u);

  const auto violating = monitor.violating_flows();
  ASSERT_EQ(violating.size(), 10u);
  for (std::size_t i = 0; i < violating.size(); ++i) {
    EXPECT_TRUE(offends(violating[i].flow_id)) << violating[i].flow_id;
    EXPECT_LT(violating[i].margin, 0.0);
    if (i) EXPECT_GE(violating[i].margin, violating[i - 1].margin);
  }
  // flows(top) is worst-first too: the top 10 are exactly the offenders.
  const auto worst = monitor.flows(10);
  ASSERT_EQ(worst.size(), 10u);
  for (const FlowConformance& f : worst) EXPECT_TRUE(offends(f.flow_id));
  // The live-threshold override: nobody sits below margin -3.
  EXPECT_TRUE(monitor.violating_flows(-3.0).empty());

  // All flows cross server 0: one budget aggregate with the wired share.
  const auto budgets = monitor.budgets();
  ASSERT_EQ(budgets.size(), 1u);
  EXPECT_EQ(budgets[0].server, 0u);
  EXPECT_EQ(budgets[0].class_index, 0u);
  EXPECT_GT(budgets[0].observed_bps, 0.0);
  EXPECT_DOUBLE_EQ(budgets[0].share_bps, 1.0e6);
  EXPECT_DOUBLE_EQ(budgets[0].ratio, budgets[0].observed_bps / 1.0e6);

  // Churn: a released offender stays retained (frozen verdict), a
  // released conformant flow is dropped at the next check.
  recorder.on_release(0);
  recorder.on_release(1);
  monitor.check(t + kStepNs);
  EXPECT_EQ(monitor.flows_seen(), kFlows - 1);
  EXPECT_EQ(monitor.violating_count(), 10u);
  bool saw_released_offender = false;
  for (const FlowConformance& f : monitor.violating_flows())
    if (f.flow_id == 0) {
      saw_released_offender = true;
      EXPECT_FALSE(f.live);
    }
  EXPECT_TRUE(saw_released_offender);
}

// ---------------------------------------------------------------------------
// misdeclaration_rule: the alert lifecycle
// ---------------------------------------------------------------------------

TEST(Conformance, MisdeclarationRuleLifecycle) {
  ArrivalRecorder recorder;
  telemetry::MetricsRegistry registry;
  telemetry::EventTracer tracer(512);
  ConformanceMonitor::Options mopts;
  mopts.metrics = &registry;
  mopts.tracer = &tracer;
  ConformanceMonitor monitor(recorder, mopts);
  monitor.set_class_envelope(0, kVoice);

  telemetry::AlertEngine::Options aopts;
  aopts.tracer = &tracer;
  aopts.metrics = &registry;
  telemetry::AlertEngine alerts(aopts);
  alerts.add_rule(telemetry::AlertEngine::misdeclaration_rule(
      &monitor, /*margin_threshold=*/0.0, /*k=*/2, /*top_k=*/8));

  const std::int64_t t0 = kNsPerSec;
  recorder.on_admit(42, 0);
  GreedyFeeder offender(42, 3.0 * kVoice.burst, 3.0 * kVoice.rate, t0);
  std::int64_t t = t0;
  for (int i = 0; i < 50; ++i) {  // 1 s of 3x traffic
    t += 20'000'000;
    offender.feed(recorder, t);
  }
  monitor.check(t);
  ASSERT_EQ(monitor.violating_count(), 1u);

  const auto count_instants = [&tracer](const char* reason) {
    std::size_t n = 0;
    for (const auto& ev : tracer.snapshot())
      if (ev.kind == telemetry::TraceEventKind::kConformance &&
          std::string(ev.reason) == reason)
        ++n;
    return n;
  };
  EXPECT_EQ(count_instants("conformance:violation"), 1u);

  // Two breached ticks fire the rule (k = 2) with the offender's id in
  // the actionable payload, and the first fire freezes a flight snapshot.
  telemetry::MetricsSnapshot snapshot;
  telemetry::TimeSeriesStore store{4, 1};
  alerts.evaluate(snapshot, store, 1);
  alerts.evaluate(snapshot, store, 2);
  ASSERT_TRUE(alerts.any_firing());
  bool saw_action = false;
  for (const auto& status : alerts.status()) {
    if (status.rule != "misdeclaration") continue;
    EXPECT_EQ(status.state, telemetry::AlertState::kFiring);
    ASSERT_EQ(status.actions.size(), 1u);
    EXPECT_EQ(status.actions[0].kind,
              telemetry::AlertAction::Kind::kMisdeclaring);
    EXPECT_EQ(status.actions[0].flow_id, 42u);
    EXPECT_LT(status.actions[0].value, 0.0);
    saw_action = true;
  }
  EXPECT_TRUE(saw_action);
  EXPECT_TRUE(alerts.has_fire_snapshot());

  // The flow goes quiet: 11 s later every window has drained, the
  // verdict clears (margin back to 1), and the rule resolves.
  monitor.check(t + 11 * kNsPerSec);
  EXPECT_EQ(monitor.violating_count(), 0u);
  const auto flows = monitor.flows(1);
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_DOUBLE_EQ(flows[0].margin, 1.0);
  EXPECT_LT(flows[0].worst_margin, 0.0);  // lifetime minimum is sticky
  EXPECT_EQ(count_instants("conformance:clear"), 1u);
  alerts.evaluate(snapshot, store, 3);
  alerts.evaluate(snapshot, store, 4);
  EXPECT_FALSE(alerts.any_firing());
}

// ---------------------------------------------------------------------------
// Actuator plumbing: offending flow ids reach the reconfig ledger
// ---------------------------------------------------------------------------

/// MCI backbone, shortest-path routes for every ordered pair (the same
/// rig reconfig_test.cpp uses for the actuation chain).
struct BackboneFixture {
  net::Topology topo = net::mci_backbone();
  net::ServerGraph graph{topo, 6u};
  std::vector<traffic::Demand> demands = traffic::all_ordered_pairs(topo);
  std::vector<net::ServerPath> routes;
  admission::RoutingTable table;

  BackboneFixture() {
    for (const auto& d : demands)
      routes.push_back(
          graph.map_path(net::shortest_path(topo, d.src, d.dst).value()));
    table = admission::RoutingTable(demands, routes);
  }

  ClassSet classes(double share) const {
    return ClassSet::two_class(kVoice, kDeadline, share);
  }
};

// A firing misdeclaration rule is a lower-direction trigger (the model
// inputs were optimistic): the actuator searches alpha strictly down and
// the actuation record carries the offending flow ids into /reconfig.
TEST(Conformance, ActuatorRecordsOffendingFlowIds) {
  BackboneFixture f;
  const ClassSet classes = f.classes(0.30);
  analysis::AnalysisEngine engine(f.graph, 0.30, kVoice, kDeadline);
  for (const auto& route : f.routes) engine.add_route(route);
  engine.solve();
  AdmissionController ctl(f.graph, classes, f.table);
  telemetry::EventTracer tracer(512);
  telemetry::MetricsRegistry registry;
  telemetry::AlertEngine alerts;

  telemetry::AlertRule rule;
  rule.name = "misdeclaration";
  rule.description = "test-controlled";
  rule.for_ticks = 1;
  rule.resolve_ticks = 1;
  rule.check = [](const telemetry::MetricsSnapshot&,
                  const telemetry::TimeSeriesStore&, double)
      -> std::optional<telemetry::AlertObservation> {
    telemetry::AlertObservation obs;
    obs.value = 2.0;
    telemetry::AlertAction action;
    action.kind = telemetry::AlertAction::Kind::kMisdeclaring;
    action.flow_id = 11;
    action.value = -1.5;
    obs.actions.push_back(action);
    action.flow_id = 22;
    action.value = -0.4;
    obs.actions.push_back(action);
    return obs;
  };
  alerts.add_rule(rule);
  telemetry::MetricsSnapshot snapshot;
  telemetry::TimeSeriesStore store{4, 1};
  for (std::int64_t t = 1; t <= 3; ++t) alerts.evaluate(snapshot, store, t);
  ASSERT_TRUE(alerts.any_firing());

  reconfig::ActuationPolicy policy;
  policy.cooldown_ns = 0;
  policy.max_step = 0.25;
  reconfig::ReconfigurationActuator::Options options;
  options.tracer = &tracer;
  options.metrics = &registry;
  reconfig::ReconfigurationActuator actuator(engine, ctl, alerts, policy,
                                             options);
  actuator.on_tick();

  EXPECT_EQ(actuator.actuations(), 1u);
  EXPECT_LT(actuator.current_alpha(), 0.30);
  const std::string json = actuator.to_json();
  EXPECT_NE(json.find("\"trigger\":\"misdeclaration\""), std::string::npos);
  EXPECT_NE(json.find("\"flows\":[11,22]"), std::string::npos);
}

// ---------------------------------------------------------------------------
// PacedLoadDriver: wall-clock polarity through the global gate
// ---------------------------------------------------------------------------

// Hash-seeded offenders offer a 4x-scaled bucket while everyone else
// drains an exact greedy (T, rho): the monitor must flag a subset of the
// seeded set (zero false positives — hard, the estimator never
// overcounts) and every offender that has been live for over a second.
TEST(Conformance, PacedDriverSeedsAndDetectsOffenders) {
  BackboneFixture f;
  const ClassSet classes = f.classes(0.30);
  AdmissionController ctl(f.graph, classes, f.table);

  ArrivalRecorder recorder;
  // Admission hooks reach the recorder through the global gate; keep the
  // install paired with uninstall even when an assertion bails out.
  struct InstallGuard {
    explicit InstallGuard(ArrivalRecorder* r) { ArrivalRecorder::install(r); }
    ~InstallGuard() { ArrivalRecorder::install(nullptr); }
  } guard(&recorder);
  ConformanceMonitor monitor(recorder);
  monitor.set_class_envelope(0, kVoice);

  admission::PacedLoadDriver::Options options;
  options.arrival_rate = 200.0;
  options.mean_holding = 30.0;  // most flows outlive the run
  options.seed = 7;
  options.conformance = &recorder;
  options.misdeclare_fraction = 0.5;
  options.misdeclare_factor = 4.0;
  admission::PacedLoadDriver driver(ctl, f.demands, options);
  driver.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(1600));

  monitor.check(telemetry::EventTracer::now_ns());
  const auto misdeclared = driver.misdeclared_flows();
  const auto violating = monitor.violating_flows();
  const admission::LoadStats stats = driver.stats();
  driver.stop();

  ASSERT_GT(stats.admitted, 0u);
  EXPECT_GT(monitor.flows_seen(), 0u);
  // The hash selects roughly half of the admitted flows.
  EXPECT_GT(misdeclared.size(), stats.admitted / 5);
  EXPECT_LT(misdeclared.size(), stats.admitted);

  std::set<std::uint64_t> truth;
  for (const auto& m : misdeclared) truth.insert(m.flow_id);
  std::set<std::uint64_t> flagged;
  for (const FlowConformance& v : violating) {
    // Zero false positives: every violating flow was seeded.
    EXPECT_EQ(truth.count(v.flow_id), 1u) << "flow " << v.flow_id;
    flagged.insert(v.flow_id);
  }
  // Every offender that fed for over a second must have been caught.
  std::size_t mature = 0, detected = 0;
  for (const auto& m : misdeclared) {
    if (!m.live || m.age_s < 1.0) continue;
    ++mature;
    detected += flagged.count(m.flow_id);
  }
  EXPECT_GT(mature, 0u);
  EXPECT_EQ(detected, mature);
}

// ---------------------------------------------------------------------------
// NetworkSim: the delivery-side feed in the sim clock domain
// ---------------------------------------------------------------------------

// A single uncontended CBR flow (one 640-bit packet per 20 ms) delivers
// exactly its declared envelope: checked mid-run from the delivery hook
// (run() releases every slot at the end), it scores conformant on every
// window with a non-negative margin.
TEST(Conformance, NetworkSimDeliveryFeedScoresCbrFlow) {
  const auto topo = net::line(2);
  const net::ServerGraph graph(topo, 6u);
  const auto classes = ClassSet::two_class(kVoice, milliseconds(100), 0.3);
  sim::NetworkSim sim(graph, classes);
  sim::SourceConfig src;
  src.model = sim::SourceModel::kCbr;
  src.packet_size = 640.0;
  src.stop = sim::to_sim_time(4.0);
  sim.add_flow(graph.map_path({0, 1}), 0, src);

  ArrivalRecorder recorder;
  ConformanceMonitor monitor(recorder);
  monitor.set_class_envelope(0, kVoice);
  sim::NetworkSim::TelemetryConfig telemetry;
  telemetry.conformance = &recorder;
  sim.attach_telemetry(telemetry);
  std::uint64_t deliveries = 0;
  sim.set_delivery_hook([&](const sim::NetworkSim::Delivery& d) {
    // Delivery times are sim picoseconds; the recorder runs in sim ns.
    if (++deliveries % 25 == 0) monitor.check(d.delivered / 1000);
  });

  const sim::SimResults results = sim.run(5.0);
  ASSERT_GT(results.packets_delivered, 100u);
  EXPECT_GE(monitor.checks(), 4u);
  EXPECT_EQ(monitor.violating_count(), 0u);
  EXPECT_GE(monitor.worst_margin(), 0.0);
  ASSERT_EQ(monitor.flows_seen(), 1u);

  const auto flows = monitor.flows(1);
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0].flow_id, 0u);
  EXPECT_EQ(flows[0].class_index, 0u);
  EXPECT_GT(flows[0].observed_bps, 0.0);
  EXPECT_LE(flows[0].observed_bps, kVoice.rate * 1.01);
}

// ---------------------------------------------------------------------------
// Concurrency: recorder churn racing the collector (TSan target)
// ---------------------------------------------------------------------------

// 8 writer threads admit/record/release over private id ranges plus one
// contended shared id (single admitter — the admission path admits each
// flow id exactly once — but everyone records into it, racing its
// release) while a collector loops collect() + check(). The invariants
// at drain: no crash, no slot leak (every release lands), and the
// monitor still answers queries.
TEST(ConformanceConcurrent, RecorderChurnStaysCoherent) {
  constexpr std::size_t kThreads = 8;
  constexpr int kIters = 3000;
  constexpr traffic::FlowId kShared = 500;

  ArrivalRecorder::Options options;
  options.capacity = 256;
  ArrivalRecorder recorder(options);
  ConformanceMonitor monitor(recorder);
  monitor.set_class_envelope(0, kVoice);

  std::atomic<bool> stop{false};
  std::thread collector([&] {
    std::vector<ArrivalRecorder::FlowWindows> out;
    std::int64_t t = kNsPerSec;
    while (!stop.load(std::memory_order_acquire)) {
      out.clear();
      recorder.collect(t, out);
      monitor.check(t);
      t += 1'000'000;
    }
  });

  std::vector<std::thread> writers;
  for (std::size_t w = 0; w < kThreads; ++w) {
    writers.emplace_back([&recorder, w] {
      const traffic::FlowId base = w * 16;
      std::int64_t t = kNsPerSec;
      if (w == 0) recorder.on_admit(kShared, 0);
      for (int i = 0; i < kIters; ++i) {
        const traffic::FlowId id = base + static_cast<traffic::FlowId>(i % 16);
        recorder.on_admit(id, 0);
        recorder.record(id, 640.0, t += 10'000);
        recorder.record(kShared, 64.0, t);  // races the w0 release below
        if (i % 3 == 0) recorder.on_release(id);
        if (w == 0 && i % 97 == 0) {
          recorder.on_release(kShared);
          recorder.on_admit(kShared, 0);
        }
      }
    });
  }
  for (auto& thread : writers) thread.join();
  stop.store(true, std::memory_order_release);
  collector.join();

  for (traffic::FlowId id = 0; id < kThreads * 16; ++id)
    recorder.on_release(id);
  recorder.on_release(kShared);
  EXPECT_EQ(recorder.flow_count(), 0u);
  monitor.check(2 * kNsPerSec);
  EXPECT_EQ(monitor.live_flows(), 0u);
  EXPECT_GT(monitor.checks(), 1u);
}

}  // namespace
}  // namespace ubac
