// Run-time workloads: churn, churn_observed and overload.
//
// Four closed-loop workers, each pinned to its own CPU, replay compact
// pre-generated schedules against one shared controller: every worker
// waits for each decision before sending its next request. The timed loops
// hold no RNG call, allocation or lock of the harness's own; the clock is
// read between chunks of work (256 churn ops, one overload round) for the
// deadline, and around every 64th decision call for latency (every call in
// the traced run).

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <thread>

#include "admission/controller.hpp"
#include "admission/telemetry.hpp"
#include "net/shortest_path.hpp"
#include "net/topology_factory.hpp"
#include "telemetry/envelope.hpp"
#include "telemetry/event_trace.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/metrics.hpp"
#include "traffic/service_class.hpp"
#include "traffic/workload.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace adm = ubac::admission;
namespace tel = ubac::telemetry;
using ubac::traffic::Demand;
using ubac::traffic::FlowId;

constexpr std::size_t kWorkers = 4;
constexpr double kAlpha = 0.32;
constexpr double kChurnErlangs = 40000.0;          // all workers together
constexpr std::uint64_t kChurnArrivals = 1u << 17;  // per worker and cycle
constexpr std::uint32_t kSampleEvery = 64;
constexpr std::size_t kCheckEvery = 256;  // ops between deadline checks
constexpr std::size_t kBatch = 16;
constexpr std::size_t kOffersPerRelease = 1024;
constexpr std::size_t kReleasesPerRound = 16;
constexpr std::size_t kOverloadOffers = 1u << 14;  // per worker, cyclic
constexpr std::size_t kOverloadPicks = 1u << 12;
constexpr auto kScrapeEvery = std::chrono::milliseconds(250);

// ---- the network ------------------------------------------------------------

/// MCI backbone, all-pairs shortest-path routes, the VoIP class at
/// alpha = 0.32 (links hold 1,000 flows each).
struct Network {
  Network()
      : topo(ubac::net::mci_backbone()),
        graph(topo, 6u),
        demands(ubac::traffic::all_ordered_pairs(topo)),
        classes(ubac::traffic::ClassSet::two_class(
            {640.0, ubac::units::kbps(32)}, ubac::units::milliseconds(100),
            kAlpha)) {
    for (const Demand& d : demands) {
      routes.push_back(graph.map_path(
          ubac::net::shortest_path(topo, d.src, d.dst).value()));
      route_len.push_back(static_cast<std::uint32_t>(routes.back().size()));
    }
  }
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  ubac::net::Topology topo;
  ubac::net::ServerGraph graph;  // points into topo
  std::vector<Demand> demands;
  ubac::traffic::ClassSet classes;
  std::vector<ubac::net::ServerPath> routes;
  std::vector<std::uint32_t> route_len;
};

/// Controller construction, timed on its own.
std::unique_ptr<adm::AdmissionController> build_controller(
    const Network& net, double& construct_s) {
  adm::RoutingTable table(net.demands, net.routes);
  Span span;
  span.start();
  auto ctl = std::make_unique<adm::AdmissionController>(net.graph, net.classes,
                                                        std::move(table));
  span.stop();
  construct_s = span.seconds();
  return ctl;
}

/// The replay loop with every controller call replaced by a no-op, for
/// the harness's own cost per decision. request() admits, so churn replays
/// its releases too; admit_batch() rejects at hop 0, the overload regime's
/// answer, so the overload held list cannot grow.
struct NoopController {
  [[gnu::noinline]] adm::AdmissionDecision request(ubac::net::NodeId,
                                                   ubac::net::NodeId,
                                                   std::size_t) {
    adm::AdmissionDecision d;
    d.outcome = adm::AdmissionOutcome::kAdmitted;
    d.flow_id = next++;
    return d;
  }
  [[gnu::noinline]] bool release(FlowId) { return true; }
  [[gnu::noinline]] std::size_t admit_batch(
      std::span<const Demand> requests,
      std::span<adm::AdmissionDecision> results) {
    for (std::size_t i = 0; i < requests.size(); ++i)
      results[i] = adm::AdmissionDecision{
          adm::AdmissionOutcome::kUtilizationExceeded, 0, 0};
    return 0;
  }
  [[gnu::noinline]] std::size_t release_batch(std::span<const FlowId> ids) {
    return ids.size();
  }
  FlowId next = 1;
};

// ---- workers ----------------------------------------------------------------

/// Per-worker counts; the hop counts are only kept by the traced loop.
/// `marks` holds the decision count at each window boundary, so a phase
/// reports the median window rate: one disturbed second does not move it.
struct alignas(64) Tally {
  static constexpr std::size_t kMaxWindows = 64;

  std::uint64_t decisions = 0, admits = 0, releases = 0,
                release_failures = 0, bad_outcomes = 0;
  std::uint64_t rejects = 0, hops = 0, rollback_hops = 0,
                first_hop_rejects = 0;
  std::uint64_t end_tick = 0;
  std::uint64_t window = ~std::uint64_t{0}, next_mark = ~std::uint64_t{0};
  std::uint32_t windows = 0;
  std::array<std::uint64_t, kMaxWindows> marks{};

  /// Between chunks of work: mark every window boundary passed, and say
  /// whether the deadline has.
  bool time_up(std::uint64_t deadline) {
    const std::uint64_t now = ticks();
    while (now >= next_mark && windows < kMaxWindows) {
      marks[windows++] = decisions;
      next_mark += window;
    }
    return now >= deadline;
  }

  void add(const Tally& o) {
    decisions += o.decisions;
    admits += o.admits;
    releases += o.releases;
    release_failures += o.release_failures;
    bad_outcomes += o.bad_outcomes;
    rejects += o.rejects;
    hops += o.hops;
    rollback_hops += o.rollback_hops;
    first_hop_rejects += o.first_hop_rejects;
  }
  void count_reject(const adm::AdmissionDecision& d) {
    ++rejects;
    hops += d.blocking_hop + 1;
    rollback_hops += d.blocking_hop;
    first_hop_rejects += d.blocking_hop == 0;
  }
};

/// Worker latency histograms: decision calls, and releases in the traced
/// run.
struct Latencies {
  TickHistogram calls;
  TickHistogram releases;
};

struct Pinning {
  std::vector<int> cpus;  ///< worker w runs on cpus[w % size]
  std::string describe() const {
    if (cpus.empty()) return "off";
    std::string s = "cpu";
    for (std::size_t w = 0; w < kWorkers; ++w)
      s += (w ? "," : "") + std::to_string(cpus[w % cpus.size()]);
    return cpus.size() >= kWorkers ? s : s + "(shared)";
  }
};

Pinning choose_pinning() {
  Pinning pin;
  pin.cpus = allowed_cpus();
  if (pin.cpus.size() > kWorkers) pin.cpus.resize(kWorkers);
  return pin;
}

/// One measured run of the workers.
struct Phase {
  Span span;  ///< release of the workers .. all joined
  std::vector<Tally> tally = std::vector<Tally>(kWorkers);
  std::vector<std::unique_ptr<Latencies>> latencies;
  std::string error;  ///< first exception a worker threw
  bool pin_refused = false;

  Tally total() const {
    Tally t;
    for (const Tally& w : tally) t.add(w);
    return t;
  }
  /// Replay wall time: release to the last worker's stop.
  double wall_s() const {
    std::uint64_t last = span.tick0;
    for (const Tally& w : tally) last = std::max(last, w.end_tick);
    return static_cast<double>(last - span.tick0) * span.ns_per_tick() * 1e-9;
  }
  /// Decision rate of every whole window of the run, all workers.
  std::vector<double> window_rates() const {
    std::uint32_t n = Tally::kMaxWindows;
    for (const Tally& w : tally) n = std::min(n, w.windows);
    const double window_s =
        static_cast<double>(tally[0].window) * span.ns_per_tick() * 1e-9;
    std::vector<double> rates;
    for (std::uint32_t k = 0; k < n; ++k) {
      std::uint64_t sum = 0;
      for (const Tally& w : tally)
        sum += w.marks[k] - (k ? w.marks[k - 1] : 0);
      rates.push_back(static_cast<double>(sum) / window_s);
    }
    return rates;
  }
  /// Median window rate (the overall rate when the run is shorter than
  /// one window).
  double decisions_per_s() const {
    const std::vector<double> rates = window_rates();
    return rates.empty() ? static_cast<double>(total().decisions) / wall_s()
                         : median(rates);
  }
  /// Slowest minus fastest worker decision rate, over the median rate.
  double worker_spread() const {
    std::vector<double> rates;
    for (const Tally& w : tally)
      rates.push_back(static_cast<double>(w.decisions) /
                      static_cast<double>(std::max<std::uint64_t>(
                          1, w.end_tick - span.tick0)));
    const auto [lo, hi] = std::minmax_element(rates.begin(), rates.end());
    const double mid = median(rates);
    return mid > 0.0 ? (*hi - *lo) / mid : 0.0;
  }
  /// All workers' samples of one kind, in ticks.
  TickHistogram pooled(bool releases) const {
    TickHistogram out;
    for (const auto& l : latencies)
      out.merge(releases ? l->releases : l->calls);
    return out;
  }
  /// Percentile `q` of the pooled samples in ns (0 without samples).
  double percentile_ns(bool releases, std::uint32_t q) const {
    return pooled(releases).percentile(q) * span.ns_per_tick();
  }
};

/// Run `work(w, deadline_tick, tally, latencies)` on kWorkers pinned threads
/// released together; `during(deadline_ns)` runs on the calling thread
/// meanwhile. `seconds` <= 0 runs without a deadline.
template <class Work, class During>
Phase run_workers(const Pinning& pin, double seconds, Work&& work,
                  During&& during) {
  Phase phase;
  for (std::size_t w = 0; w < kWorkers; ++w)
    phase.latencies.push_back(std::make_unique<Latencies>());
  std::atomic<std::size_t> ready{0};
  std::atomic<bool> go{false};
  std::uint64_t deadline_tick = ~std::uint64_t{0};
  std::mutex error_mutex;
  std::vector<std::thread> threads;
  threads.reserve(kWorkers);
  for (std::size_t w = 0; w < kWorkers; ++w)
    threads.emplace_back([&, w] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      try {
        work(w, deadline_tick, phase.tally[w], *phase.latencies[w]);
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (phase.error.empty()) phase.error = e.what();
      }
      phase.tally[w].end_tick = ticks();
    });
  for (std::size_t w = 0; w < kWorkers && !pin.cpus.empty(); ++w)
    if (!pin_thread(threads[w], pin.cpus[w % pin.cpus.size()]))
      phase.pin_refused = true;
  while (ready.load() < kWorkers) std::this_thread::yield();
  phase.span.start();
  if (seconds > 0.0) {
    const double tps = ticks_per_second();
    deadline_tick =
        phase.span.tick0 + static_cast<std::uint64_t>(seconds * tps);
    for (Tally& t : phase.tally) {
      t.window = static_cast<std::uint64_t>(tps);
      t.next_mark = phase.span.tick0 + t.window;
    }
  }
  go.store(true, std::memory_order_release);
  try {
    during(phase.span.ns0 + static_cast<std::int64_t>(seconds * 1e9));
  } catch (const std::exception& e) {
    std::lock_guard<std::mutex> lock(error_mutex);
    if (phase.error.empty()) phase.error = e.what();
  }
  for (auto& t : threads) t.join();
  phase.span.stop();
  return phase;
}

constexpr auto kNothing = [](std::int64_t) {};

void check_phase(const Phase& phase, Checks& checks, const char* name) {
  const Tally t = phase.total();
  checks.attempt(t.decisions + t.releases + t.release_failures);
  checks.fail(t.bad_outcomes,
              std::string(name) + ": decision neither admitted nor "
                                  "kUtilizationExceeded");
  checks.fail(t.release_failures,
              std::string(name) + ": release of a held id returned false");
  if (!phase.error.empty()) {
    checks.attempt();
    checks.fail(1, std::string(name) + ": worker threw: " + phase.error);
  }
}

/// After the final drain: nothing reserved, nothing registered, and no
/// slot ever held more than alpha * C.
void check_quiescent(const adm::AdmissionController& ctl, const Network& net,
                     Checks& checks) {
  const double share = net.classes.at(0).share;
  for (ubac::net::ServerId s = 0; s < net.graph.size(); ++s) {
    checks.expect(ctl.reserved_units(s, 0) == 0,
                  "reserved_units not 0 after drain on server " +
                      std::to_string(s));
    checks.expect(ctl.peak_reserved_rate(s, 0) <=
                      share * net.graph.server(s).capacity,
                  "peak_reserved_rate above alpha*C on server " +
                      std::to_string(s));
  }
  checks.expect(ctl.active_flows() == 0, "active_flows not 0 after drain");
}

/// The end-to-end metrics of an untraced run. `call` names the timed
/// call that returns a decision.
void report_end_to_end(Outcome& out, const Phase& phase, const char* call) {
  const Tally t = phase.total();
  const TickHistogram calls = phase.pooled(false);
  const std::uint32_t tail_q = tail_percentile(calls.total(), 9900);
  out.values["ops_per_s"] = phase.decisions_per_s();
  out.values["op_p50_ns"] = phase.percentile_ns(false, 5000);
  out.values["op_tail_ns"] = phase.percentile_ns(false, tail_q);
  out.values["quality"] =
      static_cast<double>(t.admits) / static_cast<double>(t.decisions);

  if (phase.pin_refused)
    out.notes.push_back("pinning refused by the kernel: workers ran unpinned");
  out.notes.push_back(format(
      "replay: %.3f s, %llu decisions (median %.0f/s), %llu admitted "
      "(ratio %.5f), %llu released",
      phase.wall_s(), static_cast<unsigned long long>(t.decisions),
      out.values["ops_per_s"], static_cast<unsigned long long>(t.admits),
      out.values["quality"], static_cast<unsigned long long>(t.releases)));
  std::string rates;
  for (const double r : phase.window_rates()) rates += format(" %.4g", r);
  out.notes.push_back("decisions/s per 1 s window:" + rates);
  out.notes.push_back(format(
      "%s latency: p50 %.1f ns, %s %.1f ns over %llu samples (1 call in %u)",
      call, out.values["op_p50_ns"], percentile_label(tail_q).c_str(),
      out.values["op_tail_ns"], static_cast<unsigned long long>(calls.total()),
      kSampleEvery));
}

// ---- churn ------------------------------------------------------------------

/// One worker's replay position and held-id table.
struct ChurnCursor {
  std::vector<FlowId> held;  ///< by schedule slot; 0 = empty
  std::size_t pos = 0;
  std::uint32_t countdown = kSampleEvery;
};

/// Replay `schedule` from `cur` until `max_ops` ops ran or the deadline
/// passed. kTraced times every call; otherwise every kSampleEvery-th
/// request is timed into lat.calls.
template <bool kTraced, class Ctl>
void replay_churn(Ctl& ctl, const Network& net, const ChurnSchedule& schedule,
                  ChurnCursor& cur, std::uint64_t max_ops,
                  std::uint64_t deadline, Tally& t, Latencies& lat) {
  const std::uint32_t* ops = schedule.ops.data();
  const std::size_t n = schedule.ops.size();
  FlowId* held = cur.held.data();
  std::size_t pos = cur.pos;
  std::uint32_t countdown = cur.countdown;
  std::uint64_t done = 0;
  while (done < max_ops) {
    const std::size_t end =
        pos + static_cast<std::size_t>(std::min<std::uint64_t>(
                  {n - pos, kCheckEvery, max_ops - done}));
    done += end - pos;
    for (; pos < end; ++pos) {
      const std::uint32_t op = ops[pos];
      FlowId& slot = held[op_slot(op)];
      if (is_release(op)) {
        if (slot == 0) continue;  // first replay: flow from "before" it
        bool ok;
        if constexpr (kTraced) {
          const std::uint64_t t0 = ticks();
          ok = ctl.release(slot);
          lat.releases.record(ticks() - t0);
        } else {
          ok = ctl.release(slot);
        }
        ++(ok ? t.releases : t.release_failures);
        slot = 0;
        continue;
      }
      const std::uint32_t demand = op_demand(op);
      const Demand& d = net.demands[demand];
      adm::AdmissionDecision dec;
      if (kTraced || --countdown == 0) {
        const std::uint64_t t0 = ticks();
        dec = ctl.request(d.src, d.dst, d.class_index);
        lat.calls.record(ticks() - t0);
        countdown = kSampleEvery;
      } else {
        dec = ctl.request(d.src, d.dst, d.class_index);
      }
      ++t.decisions;
      if (dec.admitted()) {
        slot = dec.flow_id;
        ++t.admits;
        if constexpr (kTraced) t.hops += net.route_len[demand];
      } else {
        t.bad_outcomes +=
            dec.outcome != adm::AdmissionOutcome::kUtilizationExceeded;
        if constexpr (kTraced) t.count_reject(dec);
      }
    }
    if (pos == n) pos = 0;
    if (t.time_up(deadline)) break;
  }
  cur.pos = pos;
  cur.countdown = countdown;
}

/// An ArrivalRecorder installed as the process's active one for its
/// lifetime.
struct InstalledRecorder {
  explicit InstalledRecorder(tel::ArrivalRecorder::Options options)
      : recorder(options) {
    tel::ArrivalRecorder::install(&recorder);
  }
  ~InstalledRecorder() { tel::ArrivalRecorder::install(nullptr); }
  InstalledRecorder(const InstalledRecorder&) = delete;
  InstalledRecorder& operator=(const InstalledRecorder&) = delete;

  tel::ArrivalRecorder recorder;
};

/// Everything the churn workloads prepare before timing: network,
/// controller, per-worker schedules and, for churn_observed, the serve
/// instrument bundle. Construction ends with one untimed warm-up replay of
/// every schedule, which brings the ledger to its steady state.
class ChurnRig {
 public:
  ChurnRig(std::uint64_t seed, bool observed, const Pinning& pin)
      : ctl_(build_controller(net_, construct_s_)) {
    for (std::size_t w = 0; w < kWorkers; ++w) {
      schedules_.push_back(make_churn_schedule(
          derive_seed(seed, w), static_cast<std::uint32_t>(net_.demands.size()),
          kChurnErlangs / kWorkers, kChurnArrivals));
      cursors_.emplace_back();
      cursors_.back().held.assign(schedules_.back().slots, 0);
    }
    if (observed) {
      registry_ = std::make_unique<tel::MetricsRegistry>();
      tracer_ = std::make_unique<tel::EventTracer>(8192, 1.0);
      bundle_ = std::make_unique<adm::ControllerTelemetry>(*registry_, "serve",
                                                           tracer_.get());
      ctl_->attach_telemetry(bundle_.get());
      // Room for every flow that can be live at once.
      std::size_t live = 0;
      for (const auto& s : schedules_) live += peak_live_flows(s);
      tel::ArrivalRecorder::Options options;
      options.capacity = live;
      recorder_ = std::make_unique<InstalledRecorder>(options);
    }
    Phase warm = run_workers(
        pin, 0.0,
        [&](std::size_t w, std::uint64_t deadline, Tally& t, Latencies& l) {
          replay_churn<false>(*ctl_, net_, schedules_[w], cursors_[w],
                              schedules_[w].ops.size(), deadline, t, l);
        },
        kNothing);
    check_phase(warm, warm_checks_, "warm-up");
    counted_.add(warm.total());
  }
  ChurnRig(const ChurnRig&) = delete;
  ChurnRig& operator=(const ChurnRig&) = delete;

  template <bool kTraced>
  Phase replay(const Pinning& pin, double seconds,
               std::vector<double>* scrapes) {
    Phase phase = run_workers(
        pin, seconds,
        [&](std::size_t w, std::uint64_t deadline, Tally& t, Latencies& l) {
          replay_churn<kTraced>(*ctl_, net_, schedules_[w], cursors_[w],
                                ~std::uint64_t{0}, deadline, t, l);
        },
        [&](std::int64_t deadline_ns) {
          if (scrapes != nullptr && registry_)
            scrape_until(deadline_ns, *scrapes);
        });
    counted_.add(phase.total());
    return phase;
  }

  /// The same loop against no-op calls, on fresh held tables.
  Phase replay_noop(const Pinning& pin, double seconds) {
    std::vector<NoopController> noop(kWorkers);
    std::vector<ChurnCursor> cursors(kWorkers);
    for (std::size_t w = 0; w < kWorkers; ++w)
      cursors[w].held.assign(schedules_[w].slots, 0);
    return run_workers(
        pin, seconds,
        [&](std::size_t w, std::uint64_t deadline, Tally& t, Latencies& l) {
          replay_churn<false>(noop[w], net_, schedules_[w], cursors[w],
                              ~std::uint64_t{0}, deadline, t, l);
        },
        kNothing);
  }

  /// Release every held flow, then check the ledger and, when observed,
  /// that the telemetry counted what the workers did.
  void drain_and_check(Checks& checks) {
    checks.attempt(warm_checks_.attempted());
    checks.fail(warm_checks_.failed(), "warm-up checks");
    for (ChurnCursor& c : cursors_)
      for (FlowId& id : c.held)
        if (id != 0) {
          const bool ok = ctl_->release(id);
          checks.expect(ok, "drain: release of a held id returned false");
          counted_.releases += ok;
          id = 0;
        }
    check_quiescent(*ctl_, net_, checks);
    if (!bundle_) return;
    std::uint64_t decided = 0;
    for (const auto* c : bundle_->decisions) decided += c->value();
    checks.expect(decided == counted_.decisions,
                  "telemetry decision count " + std::to_string(decided) +
                      " != " + std::to_string(counted_.decisions));
    checks.expect(bundle_->releases->value() == counted_.releases,
                  "telemetry release count " +
                      std::to_string(bundle_->releases->value()) +
                      " != " + std::to_string(counted_.releases));
    checks.expect(bundle_->unknown_releases->value() == 0,
                  "telemetry counted unknown releases");
  }

  double construct_s() const { return construct_s_; }
  const Tally& counted() const { return counted_; }
  const tel::EventTracer* tracer() const { return tracer_.get(); }
  const tel::ArrivalRecorder* recorder() const {
    return recorder_ ? &recorder_->recorder : nullptr;
  }

 private:
  /// serve's scrape loop: a registry snapshot and a Prometheus export
  /// every kScrapeEvery until the deadline.
  void scrape_until(std::int64_t deadline_ns, std::vector<double>& scrapes) {
    const std::chrono::steady_clock::time_point deadline{
        std::chrono::nanoseconds(deadline_ns)};
    for (auto next = std::chrono::steady_clock::now() + kScrapeEvery;
         next < deadline; next += kScrapeEvery) {
      std::this_thread::sleep_until(next);
      Span span;
      span.start();
      const std::string text = tel::to_prometheus(registry_->snapshot());
      span.stop();
      if (!text.empty()) scrapes.push_back(span.seconds());
    }
    std::this_thread::sleep_until(deadline);
  }

  Network net_;
  double construct_s_ = 0.0;
  std::unique_ptr<adm::AdmissionController> ctl_;
  std::vector<ChurnSchedule> schedules_;
  std::vector<ChurnCursor> cursors_;
  std::unique_ptr<tel::MetricsRegistry> registry_;
  std::unique_ptr<tel::EventTracer> tracer_;
  std::unique_ptr<adm::ControllerTelemetry> bundle_;
  std::unique_ptr<InstalledRecorder> recorder_;  // uninstalled first
  Checks warm_checks_;
  Tally counted_;  ///< everything decided/released since construction
};

/// Build `Rig` as often as a SetupTimer asks (only one alive at a time)
/// and keep the last; the median timed build is setup_s.
template <class Rig, class... Args>
std::unique_ptr<Rig> set_up(Outcome& out, Args&&... args) {
  SetupTimer timer;
  std::vector<double> construct;
  std::unique_ptr<Rig> rig;
  while (timer.another()) {
    rig.reset();
    Span span;
    span.start();
    rig = std::make_unique<Rig>(args...);
    span.stop();
    timer.record(span.seconds());
    construct.push_back(rig->construct_s());
  }
  out.values["setup_s"] = median(timer.timed());
  out.values["admission.construct_s"] = median(construct);
  out.notes.push_back(format("setup: median %.4f s of %zu timed, controller "
                             "construction %.6f s",
                             out.values["setup_s"], timer.timed().size(),
                             median(construct)));
  return rig;
}

/// The traced run's time split: untraced, no-op harness, traced.
struct TraceSplit {
  double untraced, noop, traced;
  explicit TraceSplit(int seconds)
      : untraced(0.4 * seconds), noop(0.1 * seconds), traced(0.5 * seconds) {}
};

void trace_common(Outcome& out, const Phase& untraced, const Phase& noop,
                  const Phase& traced) {
  const Tally t = traced.total();
  const Tally n = noop.total();
  out.values["admission.hops_per_decision"] =
      static_cast<double>(t.hops) / static_cast<double>(t.decisions);
  out.values["admission.rollback_hops_per_reject"] =
      t.rejects ? static_cast<double>(t.rollback_hops) /
                      static_cast<double>(t.rejects)
                : 0.0;
  out.values["admission.first_hop_reject_ratio"] =
      t.rejects ? static_cast<double>(t.first_hop_rejects) /
                      static_cast<double>(t.rejects)
                : 0.0;
  out.values["admission.worker_spread"] = untraced.worker_spread();
  out.values["harness.replay_ns_per_op"] =
      noop.wall_s() * 1e9 * kWorkers / static_cast<double>(n.decisions);
  out.values["harness.untraced_ops_per_s"] = untraced.decisions_per_s();
  out.values["harness.traced_ops_per_s"] = traced.decisions_per_s();
  out.values["harness.trace_overhead"] =
      1.0 - traced.decisions_per_s() / untraced.decisions_per_s();
  out.notes.push_back(format(
      "trace: untraced %.0f decisions/s, traced %.0f decisions/s "
      "(overhead %.1f%%); no-op harness %.2f ns per decision",
      untraced.decisions_per_s(), traced.decisions_per_s(),
      100.0 * out.values["harness.trace_overhead"],
      out.values["harness.replay_ns_per_op"]));
}

}  // namespace

Outcome run_churn(const Options& options, bool observed) {
  Outcome out;
  const Pinning pin = choose_pinning();
  out.notes.push_back(host_line(pin.describe()));
  auto rig = set_up<ChurnRig>(out, options.seed, observed, pin);
  std::vector<double> scrapes;

  if (!options.trace) {
    const Phase phase = rig->replay<false>(pin, options.seconds, &scrapes);
    check_phase(phase, out.checks, "replay");
    report_end_to_end(out, phase, "request()");
  } else {
    const TraceSplit split(options.seconds);
    const Phase untraced = rig->replay<false>(pin, split.untraced, &scrapes);
    const Phase noop = rig->replay_noop(pin, split.noop);
    const Phase traced = rig->replay<true>(pin, split.traced, &scrapes);
    check_phase(untraced, out.checks, "untraced replay");
    check_phase(traced, out.checks, "traced replay");
    out.values["admission.request_ns_p50"] = traced.percentile_ns(false, 5000);
    out.values["admission.request_ns_p99"] = traced.percentile_ns(false, 9900);
    out.values["admission.release_ns_p50"] = traced.percentile_ns(true, 5000);
    out.values["admission.release_ns_p99"] = traced.percentile_ns(true, 9900);
    trace_common(out, untraced, noop, traced);
  }

  if (observed) {
    const Tally& c = rig->counted();
    out.values["telemetry.scrape_s_p50"] =
        scrapes.empty() ? 0.0 : median(scrapes);
    out.values["telemetry.tracer_recorded"] =
        static_cast<double>(rig->tracer()->recorded());
    out.values["telemetry.tracer_sampled_out"] =
        static_cast<double>(rig->tracer()->sampled_out());
    out.values["telemetry.dropped_registrations"] =
        static_cast<double>(rig->recorder()->dropped_registrations());
    out.values["telemetry.dropped_records"] =
        static_cast<double>(rig->recorder()->dropped_records());
    out.values["telemetry.base_decisions"] = static_cast<double>(c.decisions);
    out.values["telemetry.base_admits"] = static_cast<double>(c.admits);
    out.notes.push_back(format(
        "telemetry: %zu scrapes (median %.6f s); tracer recorded %llu, "
        "sampled out %llu; recorder capacity %zu, dropped %llu of %llu "
        "registrations",
        scrapes.size(), out.values["telemetry.scrape_s_p50"],
        static_cast<unsigned long long>(rig->tracer()->recorded()),
        static_cast<unsigned long long>(rig->tracer()->sampled_out()),
        rig->recorder()->capacity(),
        static_cast<unsigned long long>(
            rig->recorder()->dropped_registrations()),
        static_cast<unsigned long long>(c.admits)));
  }
  rig->drain_and_check(out.checks);
  return out;
}

// ---- overload ---------------------------------------------------------------

namespace {

struct OverloadCursor {
  std::vector<Demand> offers;         ///< cyclic, kBatch-aligned
  std::vector<std::uint32_t> demand;  ///< demand index of each offer
  std::vector<std::uint32_t> picks;   ///< release position seeds
  std::vector<FlowId> held;
  std::size_t pos = 0;
  std::size_t pick = 0;
  std::uint32_t countdown = kSampleEvery;
};

/// One round = kOffersPerRelease offers in admit_batch(kBatch) calls, then
/// one release_batch of kReleasesPerRound held flows; rounds repeat until
/// the deadline.
template <bool kTraced, class Ctl>
void replay_overload(Ctl& ctl, const Network& net, OverloadCursor& cur,
                     std::uint64_t deadline, Tally& t, Latencies& lat) {
  adm::AdmissionDecision dec[kBatch];
  FlowId rel[kReleasesPerRound];
  const std::size_t n = cur.offers.size();
  const std::size_t pick_mask = cur.picks.size() - 1;
  std::size_t pos = cur.pos;
  std::uint32_t countdown = cur.countdown;
  do {
    for (std::size_t b = 0; b < kOffersPerRelease / kBatch; ++b) {
      const std::span<const Demand> req(cur.offers.data() + pos, kBatch);
      std::size_t admitted;
      if (kTraced || --countdown == 0) {
        const std::uint64_t t0 = ticks();
        admitted = ctl.admit_batch(req, dec);
        lat.calls.record(ticks() - t0);
        countdown = kSampleEvery;
      } else {
        admitted = ctl.admit_batch(req, dec);
      }
      t.decisions += kBatch;
      t.admits += admitted;
      for (std::size_t m = 0; m < kBatch; ++m) {
        if (dec[m].admitted()) {
          cur.held.push_back(dec[m].flow_id);
          if constexpr (kTraced) t.hops += net.route_len[cur.demand[pos + m]];
        } else {
          t.bad_outcomes +=
              dec[m].outcome != adm::AdmissionOutcome::kUtilizationExceeded;
          if constexpr (kTraced) t.count_reject(dec[m]);
        }
      }
      pos += kBatch;
      if (pos == n) pos = 0;
    }
    std::size_t k = 0;
    for (; k < kReleasesPerRound && !cur.held.empty(); ++k) {
      const std::size_t p = cur.picks[cur.pick++ & pick_mask] % cur.held.size();
      rel[k] = cur.held[p];
      cur.held[p] = cur.held.back();
      cur.held.pop_back();
    }
    std::size_t released;
    if constexpr (kTraced) {
      const std::uint64_t t0 = ticks();
      released = ctl.release_batch(std::span<const FlowId>(rel, k));
      lat.releases.record(ticks() - t0);
    } else {
      released = ctl.release_batch(std::span<const FlowId>(rel, k));
    }
    t.releases += released;
    t.release_failures += k - released;
  } while (!t.time_up(deadline));
  cur.pos = pos;
  cur.countdown = countdown;
}

/// The overload preparation: network, controller, an untimed prefill to
/// capacity (round-robin request() over every demand until a whole pass
/// admits nothing), the prefilled flows dealt to the workers, and each
/// worker's offer schedule.
class OverloadRig {
 public:
  explicit OverloadRig(std::uint64_t seed)
      : ctl_(build_controller(net_, construct_s_)) {
    cursors_.resize(kWorkers);
    std::size_t w = 0;
    for (;;) {
      std::size_t admitted = 0;
      for (const Demand& d : net_.demands) {
        const auto dec = ctl_->request(d.src, d.dst, d.class_index);
        if (!dec.admitted()) continue;
        cursors_[w].held.push_back(dec.flow_id);
        w = (w + 1) % kWorkers;
        ++admitted;
        ++prefilled_;
      }
      if (admitted == 0) break;
    }
    for (std::size_t i = 0; i < kWorkers; ++i) {
      OverloadCursor& c = cursors_[i];
      const OverloadSchedule s = make_overload_schedule(
          derive_seed(seed, 100 + i),
          static_cast<std::uint32_t>(net_.demands.size()), kOverloadOffers,
          kOverloadPicks);
      c.demand = s.offers;
      c.picks = s.picks;
      for (const std::uint32_t d : s.offers)
        c.offers.push_back(net_.demands[d]);
      // Room for any share of the flows the network can hold, so the
      // timed loop never grows it.
      c.held.reserve(2 * prefilled_);
    }
  }
  OverloadRig(const OverloadRig&) = delete;
  OverloadRig& operator=(const OverloadRig&) = delete;

  template <bool kTraced>
  Phase replay(const Pinning& pin, double seconds) {
    return run_workers(
        pin, seconds,
        [&](std::size_t w, std::uint64_t deadline, Tally& t, Latencies& l) {
          replay_overload<kTraced>(*ctl_, net_, cursors_[w], deadline, t, l);
        },
        kNothing);
  }

  Phase replay_noop(const Pinning& pin, double seconds) {
    std::vector<NoopController> noop(kWorkers);
    std::vector<OverloadCursor> cursors(cursors_);
    return run_workers(
        pin, seconds,
        [&](std::size_t w, std::uint64_t deadline, Tally& t, Latencies& l) {
          replay_overload<false>(noop[w], net_, cursors[w], deadline, t, l);
        },
        kNothing);
  }

  void drain_and_check(Checks& checks) {
    for (OverloadCursor& c : cursors_) {
      for (const FlowId id : c.held)
        checks.expect(ctl_->release(id),
                      "drain: release of a held id returned false");
      c.held.clear();
    }
    check_quiescent(*ctl_, net_, checks);
  }

  double construct_s() const { return construct_s_; }
  std::size_t prefilled() const { return prefilled_; }

 private:
  Network net_;
  double construct_s_ = 0.0;
  std::unique_ptr<adm::AdmissionController> ctl_;
  std::vector<OverloadCursor> cursors_;
  std::size_t prefilled_ = 0;
};

}  // namespace

Outcome run_overload(const Options& options) {
  Outcome out;
  const Pinning pin = choose_pinning();
  out.notes.push_back(host_line(pin.describe()));
  auto rig = set_up<OverloadRig>(out, options.seed);
  out.notes.push_back(
      format("prefill: %zu flows hold the network at capacity",
             rig->prefilled()));

  if (!options.trace) {
    const Phase phase = rig->replay<false>(pin, options.seconds);
    check_phase(phase, out.checks, "replay");
    report_end_to_end(out, phase, "admit_batch(16)");
  } else {
    const TraceSplit split(options.seconds);
    const Phase untraced = rig->replay<false>(pin, split.untraced);
    const Phase noop = rig->replay_noop(pin, split.noop);
    const Phase traced = rig->replay<true>(pin, split.traced);
    check_phase(untraced, out.checks, "untraced replay");
    check_phase(traced, out.checks, "traced replay");
    out.values["admission.admit_batch_ns_p50"] =
        traced.percentile_ns(false, 5000);
    out.values["admission.release_batch_ns_p50"] =
        traced.percentile_ns(true, 5000);
    trace_common(out, untraced, noop, traced);
  }
  rig->drain_and_check(out.checks);
  return out;
}

}  // namespace perfbench
