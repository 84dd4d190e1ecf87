#pragma once

/// \file cli.hpp
/// \brief Tiny command-line option parsing for examples and benches.
///
/// Supports `--key=value` and boolean `--flag` forms (the space-separated
/// `--key value` form is ambiguous with flags and is not supported).
/// Unknown options throw so typos do not silently change experiments.
/// `--help` is always accepted; run_main() answers it.

#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace ubac::util {

class ArgParser {
 public:
  ArgParser(int argc, const char* const* argv);

  /// Declare an option with a help string; returns *this for chaining.
  ArgParser& describe(const std::string& key, const std::string& help);

  /// After all describe() calls, validate that every provided option was
  /// declared (or is --help). Throws std::invalid_argument listing unknown
  /// options.
  void validate() const;

  bool has(const std::string& key) const;
  std::string get(const std::string& key, const std::string& def) const;
  /// Numeric values must be the whole token: an empty, malformed,
  /// trailing-garbage (`--threads=4x`) or out-of-range value throws
  /// std::invalid_argument naming the option.
  double get_double(const std::string& key, double def) const;
  long get_long(const std::string& key, long def) const;
  bool get_bool(const std::string& key, bool def) const;

  /// Positional arguments (non-option tokens), in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Usage text built from describe() calls.
  std::string usage(const std::string& program) const;

 private:
  std::map<std::string, std::string> values_;
  std::set<std::string> flags_;
  std::vector<std::string> positional_;
  std::vector<std::pair<std::string, std::string>> descriptions_;
};

/// The entry-point policy of the tools, benches and examples: `--help`
/// prints the usage and returns 0; otherwise `body` runs after validate().
/// A std::invalid_argument (unknown option, malformed value) prints the
/// error and the usage and returns 2; any other exception prints the error
/// and returns 1.
int run_main(const ArgParser& args, const std::string& program,
             const std::function<int()>& body);

}  // namespace ubac::util
