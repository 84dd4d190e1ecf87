#pragma once

/// \file harness.hpp
/// \brief Workload-independent pieces of the admission benchmark: the tick
///        clock, the percentile rule, set-up timing, failure accounting, the
///        compact pre-generated schedules, latency histograms, CPU pinning
///        and the result line.
///
/// Everything here is unit-tested on its own (tests/harness_test.cpp);
/// the workloads in runtime.cpp and configure.cpp only compose it.

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

// ---- clock ----------------------------------------------------------------

/// Cheap monotonic tick counter for the timed loops: the TSC on x86 (a
/// few ns per read, no syscall), steady_clock nanoseconds elsewhere.
std::uint64_t ticks() noexcept;

/// Nanoseconds now on steady_clock.
std::int64_t steady_ns() noexcept;

/// Ticks per second, measured once against steady_clock (~20 ms). Good
/// enough for deadlines; reported durations use a Span's own scale.
double ticks_per_second();

/// A measured interval read on both clocks, so tick counts taken inside it
/// convert to nanoseconds at the scale of this very run.
struct Span {
  std::uint64_t tick0 = 0, tick1 = 0;
  std::int64_t ns0 = 0, ns1 = 0;

  void start() {
    ns0 = steady_ns();
    tick0 = ticks();
  }
  void stop() {
    tick1 = ticks();
    ns1 = steady_ns();
  }
  double seconds() const { return static_cast<double>(ns1 - ns0) * 1e-9; }
  double ns_per_tick() const;
};

// ---- percentiles ------------------------------------------------------------

/// Percentiles in hundredths of a percent (9900 = p99).
inline constexpr std::array<std::uint32_t, 4> kLadder = {5000, 9000, 9900,
                                                         9990};

/// Samples strictly above the nearest-rank percentile `q` among `n`.
std::uint64_t samples_beyond(std::uint64_t n, std::uint32_t q);

/// The highest ladder percentile not above `cap` that has at least
/// `min_beyond` samples beyond it; 0 when even p50 has too few.
std::uint32_t tail_percentile(std::uint64_t n, std::uint32_t cap,
                              std::uint64_t min_beyond = 10);

/// Nearest-rank percentile `q` of `v` (reorders `v`; `v` non-empty).
template <typename T>
T percentile(std::vector<T>& v, std::uint32_t q) {
  const std::size_t n = v.size();
  std::size_t rank = static_cast<std::size_t>(
      (static_cast<std::uint64_t>(n) * q + 9999) / 10000);
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
  return v[rank - 1];
}

/// Median of `v` by the same rule (v non-empty; reorders `v`).
inline double median(std::vector<double> v) { return percentile(v, 5000); }

/// "p99" style label for a ladder percentile.
std::string percentile_label(std::uint32_t q);

// ---- set-up repeats ---------------------------------------------------------

/// setup_s is the median of several set-ups in one run. Set-ups in the
/// first kSetupWarmupS only warm the process (allocator, caches, clock
/// speed) and are not timed; then at least kMinSetups are timed, more
/// while they fit in kSetupBudgetS, up to kMaxSetups.
class SetupTimer {
 public:
  static constexpr double kSetupWarmupS = 0.25;
  static constexpr std::size_t kMinSetups = 5;
  static constexpr std::size_t kMaxSetups = 25;
  static constexpr double kSetupBudgetS = 1.0;

  /// True when another set-up should run.
  bool another() const;
  void record(double seconds);
  const std::vector<double>& timed() const { return timed_; }

 private:
  double warm_s_ = 0.0;
  bool warming_ = true;
  std::vector<double> timed_;
};

// ---- failure accounting -----------------------------------------------------

/// Operations attempted and operations that failed an output check. A
/// rejection for lack of capacity is a decision, not a failure; a wrong
/// outcome, a refused release of a held id or a broken invariant is.
class Checks {
 public:
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  /// Count `n` failed operations, remembering `what` (n = 0 is a no-op).
  void fail(std::uint64_t n, const std::string& what);
  /// One attempted check that fails unless `ok`.
  void expect(bool ok, const std::string& what);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  double failed_ratio() const;
  bool correct() const { return attempted_ > 0 && failed_ == 0; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

// ---- schedules ------------------------------------------------------------

/// One churn schedule op, 4 bytes: an arrival (demand, slot) or the
/// release of whatever flow the slot holds. The slot indexes the worker's
/// held-id table.
inline constexpr std::uint32_t kReleaseBit = 1u << 31;
inline constexpr unsigned kSlotBits = 20;
inline constexpr std::uint32_t kSlotMask = (1u << kSlotBits) - 1;
inline constexpr std::uint32_t kMaxDemands = 1u << (31 - kSlotBits);

constexpr std::uint32_t arrival_op(std::uint32_t demand, std::uint32_t slot) {
  return (demand << kSlotBits) | slot;
}
constexpr std::uint32_t release_op(std::uint32_t slot) {
  return kReleaseBit | slot;
}
constexpr bool is_release(std::uint32_t op) { return (op & kReleaseBit) != 0; }
constexpr std::uint32_t op_slot(std::uint32_t op) { return op & kSlotMask; }
constexpr std::uint32_t op_demand(std::uint32_t op) {
  return (op & ~kReleaseBit) >> kSlotBits;
}

/// One cycle of a Poisson flow-level schedule on a circular time axis:
/// `arrivals` arrivals uniformly over `demands` demands at `erlangs`
/// offered load (mean holding time 1), each departing after an
/// exponential holding time. A departure that falls past the cycle end
/// wraps to the start, so the cycle can be replayed back to back: after
/// one warm-up cycle every replay sees the same steady state. Slots are
/// assigned so that no two flows live in one slot at once, on any replay.
struct ChurnSchedule {
  std::vector<std::uint32_t> ops;  ///< 2 * arrivals ops in time order
  std::uint32_t slots = 0;         ///< held-id table size
  std::uint64_t arrivals = 0;
};

ChurnSchedule make_churn_schedule(std::uint64_t seed, std::uint32_t demands,
                                  double erlangs, std::uint64_t arrivals);

/// Most flows a replayed schedule ever has live at once (steady state).
std::uint32_t peak_live_flows(const ChurnSchedule& schedule);

/// Overload schedule: demand indices offered in batches, plus release
/// position seeds (a release picks held[pick % held.size()]).
struct OverloadSchedule {
  std::vector<std::uint32_t> offers;
  std::vector<std::uint32_t> picks;
};

OverloadSchedule make_overload_schedule(std::uint64_t seed,
                                        std::uint32_t demands,
                                        std::size_t offers,
                                        std::size_t picks);

/// Seed of stream `stream` derived from the workload seed, so every
/// worker and every topology draws from its own reproducible stream.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

// ---- latency samples --------------------------------------------------------

/// Log-linear histogram of tick counts: exact below 2^kExactBits ticks,
/// then 2^kSubBits buckets per power of two (relative width 1/128), up to
/// 2^kTopBits ticks. Recording is an index computation and an increment:
/// no allocation, no lock, and the whole run is kept.
class TickHistogram {
 public:
  static constexpr unsigned kExactBits = 10;
  static constexpr unsigned kSubBits = 7;
  static constexpr unsigned kTopBits = 40;
  static constexpr std::size_t kBuckets =
      (std::size_t{1} << kExactBits) +
      (kTopBits - kExactBits + 1) * (std::size_t{1} << kSubBits);

  TickHistogram() : counts_(kBuckets, 0) {}

  void record(std::uint64_t ticks) noexcept {
    ++counts_[index(ticks)];
    ++total_;
  }
  std::uint64_t total() const { return total_; }
  void merge(const TickHistogram& other);
  /// Nearest-rank percentile `q` (hundredths of a percent), as the middle
  /// of its bucket; 0 when empty.
  double percentile(std::uint32_t q) const;

  static std::size_t index(std::uint64_t ticks) noexcept;
  /// Smallest tick count of bucket `index`, and the bucket's width.
  static std::uint64_t lower(std::size_t index);
  static std::uint64_t width(std::size_t index);

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

// ---- host -------------------------------------------------------------------

/// CPUs this process may run on, ascending.
std::vector<int> allowed_cpus();

/// Pin `thread` to `cpu`; false when the kernel refuses.
bool pin_thread(std::thread& thread, int cpu);

/// Peak resident set of this process, MB.
double peak_rss_mb();

/// "nproc=4 compiler=gcc-12.2.0 build=Release pinning=..." for the output.
std::string host_line(const std::string& pinning);

// ---- result line ------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The final JSON line: correct, attempted, failed and every metric with
/// all its digits.
std::string result_json(const Checks& checks,
                        const std::vector<Metric>& metrics);

}  // namespace perfbench
