#include "util/cli.hpp"

#include <cstdio>
#include <stdexcept>

#include "util/parse_number.hpp"

namespace ubac::util {

namespace {

/// All of `text` as a T; throws std::invalid_argument naming --key
/// otherwise.
template <class T>
T number_or_throw(const std::string& key, const std::string& text,
                  const char* expected) {
  if (const auto value = parse_number<T>(text)) return *value;
  throw std::invalid_argument("--" + key + ": expected " + expected +
                              ", got '" + text +
                              "' (malformed or out of range)");
}

}  // namespace

ArgParser::ArgParser(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string tok = argv[i];
    if (tok.rfind("--", 0) != 0) {
      positional_.push_back(tok);
      continue;
    }
    tok = tok.substr(2);
    // Only the unambiguous forms: --key=value and boolean --flag.
    const auto eq = tok.find('=');
    if (eq != std::string::npos) {
      values_[tok.substr(0, eq)] = tok.substr(eq + 1);
    } else {
      flags_.insert(tok);
    }
  }
}

ArgParser& ArgParser::describe(const std::string& key,
                               const std::string& help) {
  descriptions_.emplace_back(key, help);
  return *this;
}

void ArgParser::validate() const {
  std::set<std::string> known{"help"};
  for (const auto& [key, help] : descriptions_) known.insert(key);
  std::string unknown;
  for (const auto& [key, value] : values_)
    if (!known.count(key)) unknown += " --" + key;
  for (const auto& key : flags_)
    if (!known.count(key)) unknown += " --" + key;
  if (!unknown.empty())
    throw std::invalid_argument("unknown options:" + unknown);
}

bool ArgParser::has(const std::string& key) const {
  return values_.count(key) > 0 || flags_.count(key) > 0;
}

std::string ArgParser::get(const std::string& key,
                           const std::string& def) const {
  const auto it = values_.find(key);
  return it == values_.end() ? def : it->second;
}

double ArgParser::get_double(const std::string& key, double def) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return def;
  return number_or_throw<double>(key, it->second, "a finite number");
}

long ArgParser::get_long(const std::string& key, long def) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return def;
  return number_or_throw<long>(key, it->second, "an integer");
}

bool ArgParser::get_bool(const std::string& key, bool def) const {
  if (flags_.count(key)) return true;
  const auto it = values_.find(key);
  if (it == values_.end()) return def;
  return it->second == "1" || it->second == "true" || it->second == "yes";
}

std::string ArgParser::usage(const std::string& program) const {
  std::string out = "usage: " + program + " [options]\n";
  for (const auto& [key, help] : descriptions_)
    out += "  --" + key + "  " + help + "\n";
  out += "  --help  print this message and exit\n";
  return out;
}

int run_main(const ArgParser& args, const std::string& program,
             const std::function<int()>& body) {
  try {
    if (args.has("help")) {
      std::fputs(args.usage(program).c_str(), stdout);
      return 0;
    }
    args.validate();
    return body();
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n\n%s", e.what(),
                 args.usage(program).c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

}  // namespace ubac::util
