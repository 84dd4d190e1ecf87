// Admission benchmark entry point.
//
//   perfbench --workload <churn|churn_observed|overload|configure>
//             --seed <n> --seconds <n> --trace <0|1>
//
// Prints what the workload measured, one metric per line with its unit,
// then as its last line one JSON object: correct, attempted, failed and the
// metrics (the end-to-end set, or with --trace 1 the per-layer set). Exits
// 0 when every output check passed, 1 when one failed, 2 on bad arguments.

#include <malloc.h>

#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace perfbench {

std::string format(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, reported by every workload. On the run-time
/// workloads an op is one admission decision; on configure it is one
/// configuration.
constexpr MetricSpec kEndToEnd[] = {
    {"ops_per_s", "1/s"},  {"op_p50_ns", "ns"}, {"op_tail_ns", "ns"},
    {"quality", "ratio"},  {"setup_s", "s"},    {"peak_rss_mb", "MB"},
};

/// Per-layer metrics of the traced run. A layer a workload does not call
/// reads 0 there.
constexpr MetricSpec kPerLayer[] = {
    {"admission.request_ns_p50", "ns"},
    {"admission.request_ns_p99", "ns"},
    {"admission.release_ns_p50", "ns"},
    {"admission.release_ns_p99", "ns"},
    {"admission.admit_batch_ns_p50", "ns"},
    {"admission.release_batch_ns_p50", "ns"},
    {"admission.hops_per_decision", "hops"},
    {"admission.rollback_hops_per_reject", "hops"},
    {"admission.first_hop_reject_ratio", "ratio"},
    {"admission.worker_spread", "ratio"},
    {"admission.construct_s", "s"},
    {"telemetry.scrape_s_p50", "s"},
    {"telemetry.tracer_recorded", "count"},
    {"telemetry.tracer_sampled_out", "count"},
    {"telemetry.dropped_registrations", "count"},
    {"telemetry.dropped_records", "count"},
    {"telemetry.base_decisions", "count"},
    {"telemetry.base_admits", "count"},
    {"net.ksp_s", "s"},
    {"routing.maximize_s", "s"},
    {"routing.select_s", "s"},
    {"routing.maximize_probes", "count"},
    {"routing.reverify_hits", "count"},
    {"analysis.verify_s", "s"},
    {"config.commit_s", "s"},
    {"harness.replay_ns_per_op", "ns"},
    {"harness.untraced_ops_per_s", "1/s"},
    {"harness.traced_ops_per_s", "1/s"},
    {"harness.trace_overhead", "ratio"},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<churn|churn_observed|overload|configure> --seed <n> "
               "--seconds <n> --trace <0|1>\n",
               why);
  return 2;
}

/// Strict unsigned parse: digits only, within [lo, hi].
bool parse_uint(const char* text, unsigned long long lo, unsigned long long hi,
                unsigned long long& out) {
  if (text == nullptr || *text == '\0') return false;
  for (const char* p = text; *p; ++p)
    if (*p < '0' || *p > '9') return false;
  errno = 0;
  char* end = nullptr;
  out = std::strtoull(text, &end, 10);
  return errno == 0 && *end == '\0' && out >= lo && out <= hi;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    if (const auto eq = flag.find('='); eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return usage(("missing value for " + flag).c_str());
    }
    unsigned long long n = 0;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!parse_uint(value.c_str(), 0, ~0ull, n)) return usage("bad --seed");
      options.seed = n;
    } else if (flag == "--seconds") {
      if (!parse_uint(value.c_str(), 1, 3600, n))
        return usage("bad --seconds");
      options.seconds = static_cast<int>(n);
    } else if (flag == "--trace") {
      if (!parse_uint(value.c_str(), 0, 1, n)) return usage("bad --trace");
      options.trace = n == 1;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");

  // A fixed mmap threshold: glibc's adaptive one makes the peak resident
  // set depend on the order of earlier frees.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  Outcome out;
  try {
    if (options.workload == "churn")
      out = run_churn(options, false);
    else if (options.workload == "churn_observed")
      out = run_churn(options, true);
    else if (options.workload == "overload")
      out = run_overload(options);
    else if (options.workload == "configure")
      out = run_configure(options);
    else
      return usage(("unknown workload " + options.workload).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n",
                 options.workload.c_str(), e.what());
    return 1;
  }
  out.values["peak_rss_mb"] = peak_rss_mb();

  std::vector<Metric> metrics;
  if (!options.trace) {
    for (const MetricSpec& m : kEndToEnd) {
      const auto it = out.values.find(m.name);
      if (it == out.values.end() || !(it->second > 0.0))
        out.checks.fail(1, std::string("end-to-end metric ") + m.name +
                               " was not measured");
      metrics.push_back({m.name, it == out.values.end() ? 0.0 : it->second,
                         m.unit});
    }
  } else {
    for (const MetricSpec& m : kPerLayer) {
      const auto it = out.values.find(m.name);
      metrics.push_back({m.name, it == out.values.end() ? 0.0 : it->second,
                         m.unit});
    }
  }

  std::printf("workload %s seed %llu seconds %d trace %d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  for (const std::string& note : out.notes) std::printf("%s\n", note.c_str());
  for (const std::string& f : out.checks.failures())
    std::printf("CHECK FAILED: %s\n", f.c_str());
  std::printf("failed_ratio %.9g (%llu of %llu operations)\n",
              out.checks.failed_ratio(),
              static_cast<unsigned long long>(out.checks.failed()),
              static_cast<unsigned long long>(out.checks.attempted()));
  for (const Metric& m : metrics)
    std::printf("%-36s %.10g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("%s\n", result_json(out.checks, metrics).c_str());
  return out.checks.correct() ? 0 : 1;
}
