// Extension: ConcurrentAdmissionController stress harness.
// M threads hammer the run-time admission hot path with randomized
// admit/release churn over the configured MCI backbone; reports wall
// time, decisions/s, admits/s and the rejection breakdown per thread
// count. The single-thread row is the serialized baseline the paper's
// constant-cost claim was measured against; the multi-thread rows show
// how the atomic per-hop reservations and the sharded flow registry
// scale it across cores.
//
// Besides the human-readable table, every row is echoed as a stable
// machine-readable line (`BENCH concurrent_admission threads=...`) so CI
// can grep results without parsing the table. Flags:
//   --json[-out=<path>]     write BENCH_concurrent_admission.json
//   --metrics-out=<path>    run instrumented and export the telemetry
//                           snapshot (.prom/.json/.csv by extension)
//   --telemetry             run instrumented without exporting (overhead)
//   --ops-per-thread=<n>    churn length (default 200000; CI uses less)
//   --serve-port=<p>        expose /metrics, /healthz and /series on an
//                           embedded HTTP endpoint for the duration of the
//                           run (0 = ephemeral port), with a sampler
//                           refreshing the utilization gauges every tick —
//                           scrape the bench live while it churns

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "admission/controller.hpp"
#include "admission/sequential_controller.hpp"
#include "admission/telemetry.hpp"
#include "bench_common.hpp"
#include "net/shortest_path.hpp"
#include "telemetry/event_trace.hpp"
#include "telemetry/http_endpoint.hpp"
#include "telemetry/timeseries.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

using namespace ubac;

namespace {

struct Churn {
  std::size_t admitted = 0;
  std::size_t util_rejected = 0;
  std::size_t released = 0;
};

int run(const util::ArgParser& args) {
  bench::ScopedBenchTracing tracing(args);

  const bench::VoipScenario scenario;
  const auto topo = net::mci_backbone();
  const net::ServerGraph graph(topo, 6u);
  const auto demands = traffic::all_ordered_pairs(topo);
  std::vector<net::ServerPath> routes;
  for (const auto& d : demands)
    routes.push_back(
        graph.map_path(net::shortest_path(topo, d.src, d.dst).value()));
  const admission::RoutingTable table(demands, routes);
  // Table 1 heuristic share: links hold 0.32*C/rho = 1000 flows, so churn
  // runs near saturation and both admit and reject paths are hot.
  const auto classes = traffic::ClassSet::two_class(
      scenario.bucket, scenario.deadline, 0.32);

  const auto ops_per_thread = static_cast<std::size_t>(
      args.get_long("ops-per-thread", 200'000));
  const std::string metrics_out = args.get("metrics-out", "");
  const bool serving = args.has("serve-port");
  const bool instrumented = !metrics_out.empty() ||
                            args.get_bool("telemetry", false) || serving;

  telemetry::MetricsRegistry registry;
  // Sampled trace: the full churn would recycle any reasonable ring many
  // times over, so keep ~1% of events — enough to eyeball admit/reject
  // interleaving without measurable hot-path cost.
  telemetry::EventTracer tracer(8192, 0.01);

  // --serve-port: scrape endpoint + background sampler for the whole run.
  // The gauge hook reads whichever controller row is currently live (the
  // controller is rebuilt per thread count), guarded against teardown.
  std::mutex live_ctl_mutex;
  admission::AdmissionController* live_ctl = nullptr;
  std::unique_ptr<telemetry::TelemetrySampler> sampler;
  std::unique_ptr<telemetry::HttpEndpoint> endpoint;
  if (serving) {
    sampler = std::make_unique<telemetry::TelemetrySampler>(registry);
    sampler->add_tick_hook([&registry, &live_ctl_mutex, &live_ctl] {
      std::lock_guard<std::mutex> lock(live_ctl_mutex);
      if (live_ctl != nullptr)
        admission::update_utilization_gauges(registry, "concurrent",
                                             *live_ctl);
    });
    telemetry::HttpEndpoint::Options http_options;
    http_options.port =
        static_cast<std::uint16_t>(args.get_long("serve-port", 0));
    endpoint = std::make_unique<telemetry::HttpEndpoint>(http_options);
    telemetry::install_standard_routes(*endpoint, registry, sampler.get(),
                                       nullptr);
    sampler->start();
    endpoint->start();
    std::printf("scrape endpoint: http://127.0.0.1:%u (for the duration of "
                "the run)\n",
                endpoint->port());
  }

  bench::print_header(
      "Concurrent admission stress: admits/sec vs thread count",
      "MCI backbone, all-pairs shortest routes, alpha=0.32; each thread\n"
      "runs randomized admit/release churn (60% admit bias) against one\n"
      "shared controller. hardware_concurrency is the ceiling on real\n"
      "parallelism; counts are exact regardless.");
  std::printf("hardware threads available: %u\ntelemetry: %s\n\n",
              std::thread::hardware_concurrency(),
              instrumented ? "on" : "off");

  util::TextTable out({"threads", "ops", "wall s", "decisions/s", "admits/s",
                       "admitted", "util-rejected", "released",
                       "leftover flows"});
  std::vector<std::vector<std::string>> rows;
  std::vector<bench::BenchSummary> summaries;

  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    admission::AdmissionController ctl(graph, classes, table);
    admission::ControllerTelemetry ctl_telemetry(registry, "concurrent",
                                                 &tracer);
    if (instrumented) ctl.attach_telemetry(&ctl_telemetry);
    if (serving) {
      std::lock_guard<std::mutex> lock(live_ctl_mutex);
      live_ctl = &ctl;
    }
    std::vector<Churn> churn(threads);
    util::ThreadPool pool(threads);

    const auto start = std::chrono::steady_clock::now();
    pool.parallel_for(threads, [&](std::size_t t) {
      util::Xoshiro256 rng(0xBEEF + t);
      // Thread-local tallies, copied out once: adjacent per-thread slots
      // written every op would false-share and cap the multi-thread rows.
      std::vector<traffic::FlowId> mine;
      Churn c;
      for (std::size_t k = 0; k < ops_per_thread; ++k) {
        if (!mine.empty() && rng.bernoulli(0.4)) {
          const auto pos = rng.uniform_index(mine.size());
          ctl.release(mine[pos]);
          ++c.released;
          mine[pos] = mine.back();
          mine.pop_back();
        } else {
          const auto& d = demands[rng.uniform_index(demands.size())];
          const auto decision = ctl.request(d.src, d.dst, d.class_index);
          if (decision.admitted()) {
            mine.push_back(decision.flow_id);
            ++c.admitted;
          } else {
            ++c.util_rejected;
          }
        }
      }
      churn[t] = c;
    });
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - start;
    if (instrumented)
      admission::update_utilization_gauges(registry, "concurrent", ctl);

    Churn total;
    for (const auto& c : churn) {
      total.admitted += c.admitted;
      total.util_rejected += c.util_rejected;
      total.released += c.released;
    }
    const double ops =
        static_cast<double>(ops_per_thread * threads);
    rows.push_back({std::to_string(threads),
                    util::TextTable::fmt(ops, 0),
                    util::TextTable::fmt(wall.count(), 3),
                    util::TextTable::fmt(ops / wall.count(), 0),
                    util::TextTable::fmt(
                        static_cast<double>(total.admitted) / wall.count(), 0),
                    std::to_string(total.admitted),
                    std::to_string(total.util_rejected),
                    std::to_string(total.released),
                    std::to_string(ctl.active_flows())});
    out.add_row(rows.back());

    summaries.emplace_back("concurrent_admission");
    summaries.back()
        .set("threads", static_cast<std::uint64_t>(threads))
        .set("ops", static_cast<std::uint64_t>(ops_per_thread * threads))
        .set("wall_s", wall.count(), 6)
        .set("decisions_per_s", ops / wall.count(), 0)
        .set("admits_per_s",
             static_cast<double>(total.admitted) / wall.count(), 0)
        .set("admitted", static_cast<std::uint64_t>(total.admitted))
        .set("util_rejected",
             static_cast<std::uint64_t>(total.util_rejected))
        .set("released", static_cast<std::uint64_t>(total.released))
        .set("leftover_flows",
             static_cast<std::uint64_t>(ctl.active_flows()))
        .set("telemetry", instrumented ? "on" : "off");
    if (serving) {
      // This row's controller is about to be destroyed; stop the sampler
      // hook from touching it.
      std::lock_guard<std::mutex> lock(live_ctl_mutex);
      live_ctl = nullptr;
    }
  }

  bench::emit(out,
              {"threads", "ops", "wall_s", "decisions_per_s", "admits_per_s",
               "admitted", "util_rejected", "released", "leftover_flows"},
              rows, "concurrent_admission");

  // ---- Integer fast path vs the double-precision oracle ------------------
  // Single-threaded saturated-regime replay: an untimed prefill drives
  // every route to capacity, then the timed schedule offers 1024 requests
  // per 2 released slots — the overload regime admission control exists
  // for, where the per-request cost is dominated by the decision itself.
  // Both schedules are pre-generated so the timed loops contain no RNG and
  // every row replays the identical operation sequence. The voice rate and
  // alpha*C budgets sit exactly on the fixed-point grid, so the integer
  // rows make decision-for-decision the same calls as the double oracle
  // and the speedup column compares equal work.
  struct FastOp {
    std::uint64_t pick = 0;   ///< release position seed (mod held count)
    std::uint32_t demand = 0; ///< admit demand index
    bool admit = false;
  };
  struct FastStats {
    std::size_t admitted = 0;
    std::size_t rejected = 0;
    std::size_t released = 0;
    std::size_t leftover = 0;
  };
  std::vector<FastOp> schedule;
  schedule.reserve(ops_per_thread);
  {
    util::Xoshiro256 rng(0xFA57);
    while (schedule.size() < ops_per_thread) {
      for (int r = 0; r < 2 && schedule.size() < ops_per_thread; ++r) {
        FastOp op;
        op.pick = rng.next();
        schedule.push_back(op);
      }
      for (int a = 0; a < 1024 && schedule.size() < ops_per_thread; ++a) {
        FastOp op;
        op.admit = true;
        op.demand =
            static_cast<std::uint32_t>(rng.uniform_index(demands.size()));
        schedule.push_back(op);
      }
    }
  }
  // Demands pre-resolved per schedule slot (admit ops only) so the batched
  // replay can hand admit_batch a contiguous span instead of re-copying
  // demands one by one inside the timed region.
  std::vector<traffic::Demand> schedule_demands(schedule.size());
  for (std::size_t i = 0; i < schedule.size(); ++i)
    if (schedule[i].admit) schedule_demands[i] = demands[schedule[i].demand];
  // Maximal same-kind runs of the schedule, precomputed so the batched
  // replay iterates run boundaries instead of rescanning FastOps.
  struct FastSegment {
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
    bool admit = false;
  };
  std::vector<FastSegment> segments;
  for (std::size_t i = 0; i < schedule.size();) {
    std::size_t j = i;
    while (j < schedule.size() && schedule[j].admit == schedule[i].admit) ++j;
    segments.push_back(FastSegment{static_cast<std::uint32_t>(i),
                                   static_cast<std::uint32_t>(j),
                                   schedule[i].admit});
    i = j;
  }

  // Untimed prefill shared by every row: round-robin offers over every
  // configured demand until a full pass admits nothing, i.e. every route
  // is at capacity. Plain request() calls, so each controller starts the
  // timed replay from the identical saturated state.
  const auto run_prefill = [&](auto& ctl, std::vector<traffic::FlowId>& held) {
    for (;;) {
      std::size_t admitted_this_pass = 0;
      for (const auto& d : demands) {
        const auto decision = ctl.request(d.src, d.dst, d.class_index);
        if (decision.admitted()) {
          held.push_back(decision.flow_id);
          ++admitted_this_pass;
        }
      }
      if (admitted_this_pass == 0) return;
    }
  };

  // Per-call runner: the double oracle and the integer batch=1 row.
  // Returns the timed-region wall seconds through `wall_s`.
  const auto run_single = [&](auto& ctl, double& wall_s) {
    FastStats st;
    std::vector<traffic::FlowId> held;
    run_prefill(ctl, held);
    const auto start = std::chrono::steady_clock::now();
    for (const FastOp& op : schedule) {
      if (op.admit) {
        const auto& d = demands[op.demand];
        const auto decision = ctl.request(d.src, d.dst, d.class_index);
        if (decision.admitted()) {
          held.push_back(decision.flow_id);
          ++st.admitted;
        } else {
          ++st.rejected;
        }
      } else if (!held.empty()) {
        const auto pos =
            static_cast<std::size_t>(op.pick % held.size());
        ctl.release(held[pos]);
        ++st.released;
        held[pos] = held.back();
        held.pop_back();
      }
    }
    wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           start)
                 .count();
    st.leftover = held.size();
    return st;
  };

  // Batched runner: same schedule, contiguous admit runs handed to
  // admit_batch as spans of at most `batch`, release runs to release_batch.
  // Chunk boundaries coincide with the wave boundaries of the per-call
  // replay, and admit_batch decides strictly in order, so the operation
  // order — and therefore every decision — is unchanged.
  const auto run_batched = [&](admission::AdmissionController& ctl,
                               std::size_t batch, double& wall_s) {
    FastStats st;
    std::vector<traffic::FlowId> held;
    run_prefill(ctl, held);
    std::vector<admission::AdmissionDecision> dec(batch);
    std::vector<traffic::FlowId> rel;
    rel.reserve(batch);
    const auto start = std::chrono::steady_clock::now();
    for (const FastSegment& seg : segments) {
      if (seg.admit) {
        for (std::size_t i = seg.begin; i < seg.end;) {
          const std::size_t k = std::min<std::size_t>(batch, seg.end - i);
          const std::size_t admitted = ctl.admit_batch(
              std::span<const traffic::Demand>(&schedule_demands[i], k),
              std::span<admission::AdmissionDecision>(dec.data(), k));
          if (admitted == 0) {
            st.rejected += k;
          } else {
            for (std::size_t m = 0; m < k; ++m) {
              if (dec[m].admitted()) {
                held.push_back(dec[m].flow_id);
                ++st.admitted;
              } else {
                ++st.rejected;
              }
            }
          }
          i += k;
        }
      } else {
        for (std::size_t i = seg.begin; i < seg.end;) {
          rel.clear();
          while (i < seg.end && rel.size() < batch) {
            if (!held.empty()) {
              const auto pos =
                  static_cast<std::size_t>(schedule[i].pick % held.size());
              rel.push_back(held[pos]);
              held[pos] = held.back();
              held.pop_back();
            }
            ++i;
          }
          st.released += ctl.release_batch(rel);
        }
      }
    }
    wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           start)
                 .count();
    st.leftover = held.size();
    return st;
  };

  std::printf("\nInteger fast path vs double oracle (single thread, saturated "
              "schedule, %zu timed ops after prefill):\n",
              schedule.size());
  util::TextTable fast_out({"path", "batch", "wall s", "decisions/s",
                            "admits/s", "speedup", "admitted", "released",
                            "leftover"});
  std::vector<std::vector<std::string>> fast_rows;
  double baseline_dps = 0.0;
  std::size_t baseline_admitted = 0;

  struct FastRow {
    const char* path;
    std::size_t batch;
  };
  for (const FastRow row : {FastRow{"double", 1}, FastRow{"integer", 8},
                            FastRow{"integer", 16}, FastRow{"integer", 64}}) {
    const bool integer = row.path[0] == 'i';
    FastStats st;
    double wall_s = 0.0;
    if (integer) {
      admission::AdmissionController ctl(graph, classes, table);
      admission::ControllerTelemetry ctl_telemetry(registry, "fastpath",
                                                   &tracer);
      if (instrumented) ctl.attach_telemetry(&ctl_telemetry);
      st = row.batch == 1 ? run_single(ctl, wall_s)
                          : run_batched(ctl, row.batch, wall_s);
    } else {
      admission::SequentialAdmissionController ctl(graph, classes, table);
      admission::ControllerTelemetry ctl_telemetry(registry, "oracle",
                                                   &tracer);
      if (instrumented) ctl.attach_telemetry(&ctl_telemetry);
      st = run_single(ctl, wall_s);
    }
    const double ops_n = static_cast<double>(schedule.size());
    const double dps = ops_n / wall_s;
    if (!integer) {
      baseline_dps = dps;
      baseline_admitted = st.admitted;
    } else if (st.admitted != baseline_admitted) {
      std::printf("WARNING: integer path admitted %zu flows vs oracle %zu "
                  "— fixed-point decisions diverged\n",
                  st.admitted, baseline_admitted);
    }
    const double speedup = baseline_dps > 0.0 ? dps / baseline_dps : 0.0;
    fast_rows.push_back(
        {row.path, std::to_string(row.batch),
         util::TextTable::fmt(wall_s, 3), util::TextTable::fmt(dps, 0),
         util::TextTable::fmt(static_cast<double>(st.admitted) / wall_s, 0),
         util::TextTable::fmt(speedup, 2), std::to_string(st.admitted),
         std::to_string(st.released), std::to_string(st.leftover)});
    fast_out.add_row(fast_rows.back());

    summaries.emplace_back("concurrent_admission");
    summaries.back()
        .set("path", std::string(row.path))
        .set("batch", static_cast<std::uint64_t>(row.batch))
        .set("threads", static_cast<std::uint64_t>(1))
        .set("ops", static_cast<std::uint64_t>(schedule.size()))
        .set("wall_s", wall_s, 6)
        .set("decisions_per_s", dps, 0)
        .set("admits_per_s", static_cast<double>(st.admitted) / wall_s, 0)
        .set("speedup", speedup, 3)
        .set("admitted", static_cast<std::uint64_t>(st.admitted))
        .set("util_rejected", static_cast<std::uint64_t>(st.rejected))
        .set("released", static_cast<std::uint64_t>(st.released))
        .set("leftover_flows", static_cast<std::uint64_t>(st.leftover))
        .set("telemetry", instrumented ? "on" : "off");
  }
  bench::emit(fast_out,
              {"path", "batch", "wall_s", "decisions_per_s", "admits_per_s",
               "speedup", "admitted", "released", "leftover"},
              fast_rows, "concurrent_admission_fastpath");

  for (const auto& s : summaries) std::printf("%s\n", s.line().c_str());

  if (args.get_bool("json", false) || args.has("json-out")) {
    const std::string path =
        args.get("json-out", "BENCH_concurrent_admission.json");
    bench::write_summary_json(path, "concurrent_admission", summaries);
  }
  if (!metrics_out.empty())
    bench::export_metrics(registry.snapshot(), metrics_out);
  if (serving) {
    std::printf("scrape endpoint: %llu requests served\n",
                static_cast<unsigned long long>(endpoint->requests_served()));
    endpoint->stop();
    sampler->stop();
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args(argc, argv);
  args.describe("json", "write BENCH_concurrent_admission.json")
      .describe("json-out", "override the JSON output path")
      .describe("metrics-out",
                "instrument the controller and export the metrics snapshot "
                "(.prom/.json/.csv chosen by extension)")
      .describe("telemetry",
                "instrument the controller without exporting (overhead runs)")
      .describe("ops-per-thread", "churn operations per thread (default "
                                  "200000)")
      .describe("serve-port",
                "serve /metrics, /healthz and /series on this port while "
                "the bench runs (0 = ephemeral)")
      .describe("trace-out", bench::kTraceOutHelp);
  return util::run_main(args, "bench_concurrent_admission", [&] { return run(args); });
}
