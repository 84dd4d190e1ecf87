#include "harness.hpp"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#define PERFBENCH_HAVE_TSC 1
#endif

#include "util/rng.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

std::int64_t steady_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t ticks() noexcept {
#ifdef PERFBENCH_HAVE_TSC
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(steady_ns());
#endif
}

double ticks_per_second() {
  static const double rate = [] {
    Span span;
    span.start();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    span.stop();
    return 1e9 / span.ns_per_tick();
  }();
  return rate;
}

double Span::ns_per_tick() const {
  const std::uint64_t t = tick1 > tick0 ? tick1 - tick0 : 1;
  return static_cast<double>(ns1 - ns0) / static_cast<double>(t);
}

// ---- percentiles ------------------------------------------------------------

std::uint64_t samples_beyond(std::uint64_t n, std::uint32_t q) {
  const std::uint64_t rank = (n * q + 9999) / 10000;  // ceil(n * q / 1e4)
  return n - std::min(rank, n);
}

std::uint32_t tail_percentile(std::uint64_t n, std::uint32_t cap,
                              std::uint64_t min_beyond) {
  std::uint32_t best = 0;
  for (const std::uint32_t q : kLadder)
    if (q <= cap && samples_beyond(n, q) >= min_beyond) best = q;
  return best;
}

std::string percentile_label(std::uint32_t q) {
  char buf[16];
  if (q % 100 == 0)
    std::snprintf(buf, sizeof(buf), "p%u", q / 100);
  else
    std::snprintf(buf, sizeof(buf), "p%g", q / 100.0);
  return buf;
}

bool SetupTimer::another() const {
  if (warming_) return true;
  double spent = 0.0;
  for (const double t : timed_) spent += t;
  return timed_.size() < kMinSetups ||
         (spent < kSetupBudgetS && timed_.size() < kMaxSetups);
}

void SetupTimer::record(double seconds) {
  if (warming_) {
    warm_s_ += seconds;
    warming_ = warm_s_ < kSetupWarmupS;
  } else {
    timed_.push_back(seconds);
  }
}

// ---- failure accounting -----------------------------------------------------

void Checks::fail(std::uint64_t n, const std::string& what) {
  if (n == 0) return;
  failed_ += n;
  failures_.push_back(what + " (x" + std::to_string(n) + ")");
}

void Checks::expect(bool ok, const std::string& what) {
  attempt();
  if (!ok) fail(1, what);
}

double Checks::failed_ratio() const {
  return attempted_ == 0 ? 0.0
                         : static_cast<double>(failed_) /
                               static_cast<double>(attempted_);
}

// ---- schedules ------------------------------------------------------------

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  ubac::util::SplitMix64 mix(seed ^ (stream * 0x9E3779B97F4A7C15ull));
  mix.next();
  return mix.next();
}

ChurnSchedule make_churn_schedule(std::uint64_t seed, std::uint32_t demands,
                                  double erlangs, std::uint64_t arrivals) {
  if (demands == 0 || demands >= kMaxDemands)
    throw std::invalid_argument("churn schedule: demand count out of range");
  if (!(erlangs > 0.0) || arrivals == 0)
    throw std::invalid_argument("churn schedule: empty load");

  struct Flow {
    double arrive = 0.0;
    double depart = 0.0;  ///< on the cycle's circular axis
    std::uint32_t demand = 0;
    std::uint32_t slot = 0;
    bool wraps = false;
  };
  ubac::util::Xoshiro256 rng(seed);
  std::vector<Flow> flows(arrivals);
  double t = 0.0;
  for (Flow& f : flows) {
    t += rng.exponential(1.0 / erlangs);
    f.arrive = t;
    f.demand = static_cast<std::uint32_t>(rng.uniform_index(demands));
  }
  const double period = t + rng.exponential(1.0 / erlangs);
  for (Flow& f : flows) {
    double hold = 0.0;
    do hold = rng.exponential(1.0);
    while (hold >= period);
    f.depart = f.arrive + hold;
    f.wraps = f.depart >= period;
    if (f.wraps) f.depart -= period;
  }

  // Events in time order: (time, flow index, is departure).
  struct Event {
    double time;
    std::uint32_t flow;
    bool departure;
  };
  std::vector<Event> events;
  events.reserve(2 * arrivals);
  for (std::uint32_t i = 0; i < flows.size(); ++i) {
    events.push_back({flows[i].arrive, i, false});
    events.push_back({flows[i].depart, i, true});
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    return a.time < b.time || (a.time == b.time && a.flow < b.flow);
  });

  // A wrapping flow is live across the cycle boundary, so its slot is its
  // own for the whole cycle: the previous replay's instance leaves at
  // `depart`, this replay's arrives later at `arrive`. Other flows share
  // slots through a free list in one sweep.
  ChurnSchedule out;
  out.arrivals = arrivals;
  for (Flow& f : flows)
    if (f.wraps) f.slot = out.slots++;
  std::vector<std::uint32_t> free_slots;
  out.ops.reserve(events.size());
  for (const Event& e : events) {
    Flow& f = flows[e.flow];
    if (!f.wraps) {
      if (!e.departure) {
        if (free_slots.empty()) {
          f.slot = out.slots++;
        } else {
          f.slot = free_slots.back();
          free_slots.pop_back();
        }
      } else {
        free_slots.push_back(f.slot);
      }
    }
    out.ops.push_back(e.departure ? release_op(f.slot)
                                  : arrival_op(f.demand, f.slot));
  }
  if (out.slots > kSlotMask)
    throw std::invalid_argument("churn schedule: too many concurrent flows");
  return out;
}

std::uint32_t peak_live_flows(const ChurnSchedule& schedule) {
  // Two replays: the first fills the wrapping slots, the second is the
  // steady state every later replay repeats.
  std::vector<char> live(schedule.slots, 0);
  std::uint32_t now = 0, peak = 0;
  for (int replay = 0; replay < 2; ++replay)
    for (const std::uint32_t op : schedule.ops) {
      char& slot = live[op_slot(op)];
      if (is_release(op)) {
        now -= slot;
        slot = 0;
      } else {
        slot = 1;
        ++now;
        if (replay == 1) peak = std::max(peak, now);
      }
    }
  return peak;
}

OverloadSchedule make_overload_schedule(std::uint64_t seed,
                                        std::uint32_t demands,
                                        std::size_t offers,
                                        std::size_t picks) {
  if (demands == 0)
    throw std::invalid_argument("overload schedule: no demands");
  ubac::util::Xoshiro256 rng(seed);
  OverloadSchedule out;
  out.offers.resize(offers);
  for (auto& o : out.offers)
    o = static_cast<std::uint32_t>(rng.uniform_index(demands));
  out.picks.resize(picks);
  for (auto& p : out.picks) p = static_cast<std::uint32_t>(rng.next() >> 32);
  return out;
}

// ---- latency samples --------------------------------------------------------

std::size_t TickHistogram::index(std::uint64_t ticks) noexcept {
  constexpr std::uint64_t kExact = std::uint64_t{1} << kExactBits;
  if (ticks < kExact) return static_cast<std::size_t>(ticks);
  const unsigned msb =
      std::min<unsigned>(63u - static_cast<unsigned>(__builtin_clzll(ticks)),
                         kTopBits);
  const std::uint64_t sub =
      msb == kTopBits && ticks >> kTopBits > 1
          ? (std::uint64_t{1} << kSubBits) - 1
          : (ticks >> (msb - kSubBits)) & ((std::uint64_t{1} << kSubBits) - 1);
  return static_cast<std::size_t>(
      kExact + (msb - kExactBits) * (std::uint64_t{1} << kSubBits) + sub);
}

std::uint64_t TickHistogram::lower(std::size_t index) {
  constexpr std::size_t kExact = std::size_t{1} << kExactBits;
  if (index < kExact) return index;
  const std::size_t k = index - kExact;
  const unsigned msb = kExactBits + static_cast<unsigned>(k >> kSubBits);
  const std::uint64_t sub = k & ((std::size_t{1} << kSubBits) - 1);
  return (std::uint64_t{1} << msb) | (sub << (msb - kSubBits));
}

std::uint64_t TickHistogram::width(std::size_t index) {
  constexpr std::size_t kExact = std::size_t{1} << kExactBits;
  if (index < kExact) return 1;
  const unsigned msb =
      kExactBits + static_cast<unsigned>((index - kExact) >> kSubBits);
  return std::uint64_t{1} << (msb - kSubBits);
}

void TickHistogram::merge(const TickHistogram& other) {
  for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
  total_ += other.total_;
}

double TickHistogram::percentile(std::uint32_t q) const {
  if (total_ == 0) return 0.0;
  const std::uint64_t rank =
      std::clamp<std::uint64_t>((total_ * q + 9999) / 10000, 1, total_);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += counts_[i];
    if (seen >= rank)
      return static_cast<double>(lower(i)) +
             static_cast<double>(width(i) - 1) / 2.0;
  }
  return static_cast<double>(lower(kBuckets - 1));
}

// ---- host -------------------------------------------------------------------

std::vector<int> allowed_cpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0)
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
  return cpus;
}

bool pin_thread(std::thread& thread, int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return pthread_setaffinity_np(thread.native_handle(), sizeof(set), &set) ==
         0;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string host_line(const std::string& pinning) {
#if defined(__clang__)
  const std::string compiler = std::string("clang-") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc-") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  return "host nproc=" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         " compiler=" + compiler + " build=" + PERFBENCH_BUILD_TYPE +
         " pinning=" + pinning;
}

// ---- result line ------------------------------------------------------------

std::string result_json(const Checks& checks,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += checks.correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(checks.attempted());
  out += ", \"failed\": " + std::to_string(checks.failed());
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    // Shortest text that reads back as the same double.
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    for (int precision = 15; precision <= 17; ++precision) {
      std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
      if (std::strtod(buf, nullptr) == v) break;
    }
    if (i) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
