#pragma once

/// \file workloads.hpp
/// \brief The benchmark's workloads. Each builds its inputs from the seed,
///        measures for the requested time and checks the outputs; main.cpp
///        prints what they report.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  /// Per-layer run: time every call into a layer instead of the
  /// end-to-end metrics.
  bool trace = false;
};

/// What one workload run measured.
struct Outcome {
  Checks checks;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run),
  /// by the names BENCHMARK.json lists.
  std::map<std::string, double> values;
  /// Human-readable lines printed ahead of the result line.
  std::vector<std::string> notes;
};

/// MCI flow churn through request()/release(); `observed` attaches the
/// serve instrument bundle and scrapes it while the workers run.
Outcome run_churn(const Options& options, bool observed);

/// MCI prefilled to capacity, admit_batch(16) offers with one
/// release_batch per 1,024 offers.
Outcome run_overload(const Options& options);

/// Configurator::maximize plus commit to run time over random topologies.
Outcome run_configure(const Options& options);

/// printf into a std::string, for notes.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace perfbench
