// Performance microbenchmarks for the configuration machinery itself: the
// fixed-point verification, the Section 5.2 heuristic, k-shortest-path
// candidate generation, and the incremental AnalysisEngine probe path
// against its cold-solve oracle. Configuration is offline in the paper,
// but it must stay tractable for realistic ISP backbones — these benches
// track that.
//
// Plain harness (no google-benchmark) so the rows come out in the stable
// `BENCH <name> key=value ...` format shared by the other benches.
//
// Options:
//   --reps=N       timing repetitions per case (default 20; min is kept)
//   --json[=path]  also write the BENCH rows as JSON
//                  (default path BENCH_analysis_perf.json)

#include <algorithm>
#include <chrono>

#include "analysis/engine.hpp"
#include "analysis/fixed_point.hpp"
#include "bench_common.hpp"
#include "net/ksp.hpp"
#include "net/shortest_path.hpp"
#include "routing/route_selection.hpp"
#include "util/cli.hpp"

using namespace ubac;

namespace {

/// Minimum wall time of `reps` runs of fn(), in milliseconds.
template <typename Fn>
double time_min_ms(int reps, Fn&& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best,
                    std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return best;
}

int run(const util::ArgParser& args) {
  bench::ScopedBenchTracing tracing(args);
  const int reps = static_cast<int>(args.get_long("reps", 20));

  const net::Topology topo = net::mci_backbone();
  const net::ServerGraph graph(topo, 6u);
  const bench::VoipScenario scenario;
  const auto demands = traffic::all_ordered_pairs(topo);
  std::vector<net::ServerPath> sp_routes;
  for (const auto& d : demands)
    sp_routes.push_back(
        graph.map_path(net::shortest_path(topo, d.src, d.dst).value()));

  bench::print_header(
      "Analysis microbenchmarks",
      "MCI backbone, all-ordered-pairs voice demands; minimum wall time\n"
      "over --reps runs per case.");
  std::vector<bench::BenchSummary> summaries;
  auto report = [&](bench::BenchSummary summary) {
    std::printf("%s\n", summary.line().c_str());
    summaries.push_back(std::move(summary));
  };

  // Cold fixed-point verification vs committed-set size.
  for (const std::size_t route_count : {std::size_t{16}, std::size_t{64},
                                        sp_routes.size()}) {
    const std::vector<net::ServerPath> routes(
        sp_routes.begin(), sp_routes.begin() + route_count);
    analysis::FeasibilityStatus status{};
    const double ms = time_min_ms(reps, [&] {
      status = analysis::solve_two_class(graph, 0.30, scenario.bucket,
                                         scenario.deadline, routes)
                   .status;
    });
    bench::BenchSummary summary("analysis_perf");
    summary.set("case", "fixed_point_verify")
        .set("routes", static_cast<std::uint64_t>(route_count))
        .set("status", analysis::to_string(status))
        .set("min_ms", ms, 3);
    report(std::move(summary));
  }

  // The Section 5.2 heuristic at a fixed alpha (engine-backed).
  for (const std::size_t k : {std::size_t{2}, std::size_t{8}}) {
    routing::HeuristicOptions opts;
    opts.candidates_per_pair = k;
    bool success = false;
    const double ms = time_min_ms(reps, [&] {
      success = routing::select_routes_heuristic(graph, 0.40, scenario.bucket,
                                                 scenario.deadline, demands,
                                                 opts)
                    .success;
    });
    bench::BenchSummary summary("analysis_perf");
    summary.set("case", "heuristic_select")
        .set("k", static_cast<std::uint64_t>(k))
        .set("success", success ? "yes" : "no")
        .set("min_ms", ms, 3);
    report(std::move(summary));
  }

  // k-shortest-paths candidate generation across the diameter pair
  // (Boston 17 -> Sacramento 1).
  for (const std::size_t k : {std::size_t{4}, std::size_t{16},
                              std::size_t{64}}) {
    std::size_t found = 0;
    const double ms = time_min_ms(
        reps, [&] { found = net::k_shortest_paths(topo, 17, 1, k).size(); });
    bench::BenchSummary summary("analysis_perf");
    summary.set("case", "ksp")
        .set("k", static_cast<std::uint64_t>(k))
        .set("found", static_cast<std::uint64_t>(found))
        .set("min_ms", ms, 3);
    report(std::move(summary));
  }

  // Incremental probe vs cold oracle: evaluate "committed + 1 candidate"
  // against the full committed SP set. The probe re-iterates only the
  // candidate's dirty closure warm-started from the committed delays; the
  // oracle re-solves everything from zero.
  {
    std::vector<net::ServerPath> committed(sp_routes.begin(),
                                           sp_routes.end() - 1);
    const net::ServerPath candidate = sp_routes.back();
    analysis::AnalysisEngine engine(graph, 0.30, scenario.bucket,
                                    scenario.deadline);
    for (const auto& route : committed) engine.add_route(route);
    engine.solve();

    const double warm_ms =
        time_min_ms(reps * 10, [&] { (void)engine.probe_route(candidate); });
    std::vector<net::ServerPath> all = committed;
    all.push_back(candidate);
    const double cold_ms = time_min_ms(reps, [&] {
      (void)analysis::solve_two_class(graph, 0.30, scenario.bucket,
                                      scenario.deadline, all);
    });
    bench::BenchSummary summary("analysis_perf");
    summary.set("case", "engine_probe_vs_cold")
        .set("routes", static_cast<std::uint64_t>(all.size()))
        .set("probe_min_ms", warm_ms, 4)
        .set("cold_min_ms", cold_ms, 4)
        .set("speedup", warm_ms > 0.0 ? cold_ms / warm_ms : 0.0, 1);
    report(std::move(summary));
  }

  if (args.has("json"))
    bench::write_summary_json(args.get("json", "BENCH_analysis_perf.json"),
                              "analysis_perf", summaries);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args(argc, argv);
  args.describe("reps", "timing repetitions per case (default 20)")
      .describe("json",
                "write BENCH rows as JSON (default BENCH_analysis_perf.json)")
      .describe("trace-out", bench::kTraceOutHelp);
  return util::run_main(args, "bench_analysis_perf", [&] { return run(args); });
}
