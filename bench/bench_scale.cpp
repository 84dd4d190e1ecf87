// Extension figure N: configuration cost at scale. The paper's pitch is
// that the expensive analysis happens once, offline; this bench shows the
// offline cost itself stays tractable as the network grows — full
// maximum-utilization searches (binary search x route selection x fixed
// point) on random ISP-like graphs of increasing size, with wall time.
//
// Options:
//   --nodes=10,20,30,40   comma-separated graph sizes (CI uses a reduced
//                         list to keep the smoke job fast)
//   --json[=path]         also write the BENCH rows as JSON
//                         (default path BENCH_scale.json)

#include <chrono>
#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "bench_common.hpp"
#include "net/shortest_path.hpp"
#include "routing/max_util_search.hpp"
#include "util/cli.hpp"
#include "util/parse_number.hpp"

using namespace ubac;

namespace {

std::vector<std::size_t> parse_sizes(const std::string& spec) {
  std::vector<std::size_t> sizes;
  std::stringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    const auto size = util::parse_number<std::size_t>(item);
    if (!size)
      throw std::invalid_argument("--nodes: bad graph size '" + item + "'");
    sizes.push_back(*size);
  }
  if (sizes.empty()) throw std::invalid_argument("--nodes: empty list");
  return sizes;
}

int run(const util::ArgParser& args) {
  bench::ScopedBenchTracing tracing(args);

  const auto sizes = parse_sizes(args.get("nodes", "10,20,30,40"));

  const bench::VoipScenario scenario;
  bench::print_header(
      "Fig. N (extension): configuration cost vs network size",
      "Random connected graphs (avg degree 3.5), all-ordered-pairs voice\n"
      "demands; full max-utilization search (SP and heuristic k=4) with\n"
      "wall-clock time per search.");

  util::TextTable table({"nodes", "demands", "links", "L", "SP alpha*",
                         "SP time", "heuristic alpha*", "heuristic time"});
  std::vector<std::vector<std::string>> rows;
  std::vector<bench::BenchSummary> summaries;

  for (const std::size_t nodes : sizes) {
    const auto topo = net::random_connected(nodes, 3.5, 42 + nodes);
    const net::ServerGraph graph(topo);
    const auto demands = traffic::all_ordered_pairs(topo);
    const int l = net::diameter(topo);

    const auto t0 = std::chrono::steady_clock::now();
    const auto sp = routing::maximize_utilization_shortest_path(
        graph, scenario.bucket, scenario.deadline, demands);
    const auto t1 = std::chrono::steady_clock::now();
    routing::HeuristicOptions opts;
    opts.candidates_per_pair = 4;
    const auto heuristic = routing::maximize_utilization_heuristic(
        graph, scenario.bucket, scenario.deadline, demands, opts);
    const auto t2 = std::chrono::steady_clock::now();

    auto elapsed_ms = [](auto a, auto b) {
      return std::chrono::duration<double, std::milli>(b - a).count();
    };
    const double sp_ms = elapsed_ms(t0, t1);
    const double heuristic_ms = elapsed_ms(t1, t2);
    rows.push_back({std::to_string(nodes), std::to_string(demands.size()),
                    std::to_string(topo.link_count()), std::to_string(l),
                    util::TextTable::fmt(sp.max_alpha, 3),
                    util::TextTable::fmt(sp_ms, 0) + " ms",
                    util::TextTable::fmt(heuristic.max_alpha, 3),
                    util::TextTable::fmt(heuristic_ms, 0) + " ms"});
    table.add_row(rows.back());

    bench::BenchSummary summary("scale");
    summary.set("nodes", static_cast<std::uint64_t>(nodes))
        .set("demands", static_cast<std::uint64_t>(demands.size()))
        .set("links", static_cast<std::uint64_t>(topo.link_count()))
        .set("diameter", static_cast<std::uint64_t>(l))
        .set("sp_alpha", sp.max_alpha, 4)
        .set("sp_ms", sp_ms, 1)
        .set("heuristic_alpha", heuristic.max_alpha, 4)
        .set("heuristic_ms", heuristic_ms, 1)
        .set("heuristic_probes",
             static_cast<std::uint64_t>(heuristic.probes))
        .set("heuristic_reverify_hits",
             static_cast<std::uint64_t>(heuristic.reverify_hits));
    std::printf("%s\n", summary.line().c_str());
    summaries.push_back(std::move(summary));
  }
  bench::emit(table,
              {"nodes", "demands", "links", "diameter", "sp_alpha", "sp_ms",
               "heuristic_alpha", "heuristic_ms"},
              rows, "scale");
  if (args.has("json"))
    bench::write_summary_json(args.get("json", "BENCH_scale.json"), "scale",
                              summaries);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args(argc, argv);
  args.describe("nodes", "comma-separated graph sizes (default 10,20,30,40)")
      .describe("json", "write BENCH rows as JSON (default BENCH_scale.json)")
      .describe("trace-out", bench::kTraceOutHelp);
  return util::run_main(args, "bench_scale", [&] { return run(args); });
}
