// Tests for util/log.hpp: threshold gating and — the property the
// telemetry PR depends on — that log_line emits each record with one
// stdio write, so records from concurrent threads never interleave.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "util/log.hpp"

namespace ubac::util {
namespace {

/// Redirect the log sink to a temp file for the test's duration. The file
/// is named after the process and the test, so tests that run at the same
/// time in separate processes never share one.
class SinkCapture {
 public:
  SinkCapture()
      : path_(::testing::TempDir() + "/ubac_log_test_" +
              std::to_string(getpid()) + "_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name() +
              ".txt") {
    file_ = std::fopen(path_.c_str(), "w");
    set_log_sink(file_);
  }
  ~SinkCapture() {
    set_log_sink(nullptr);  // restore stderr
    std::fclose(file_);
    std::remove(path_.c_str());
  }

  std::vector<std::string> lines() const {
    std::ifstream in(path_);
    std::vector<std::string> out;
    std::string line;
    while (std::getline(in, line)) out.push_back(line);
    return out;
  }

 private:
  std::string path_;
  std::FILE* file_;
};

TEST(Log, LineCarriesLevelPrefixAndMessage) {
  SinkCapture capture;
  const auto prev = log_threshold();
  set_log_threshold(LogLevel::kInfo);
  UBAC_LOG_INFO << "hello " << 7;
  set_log_threshold(prev);
  const auto lines = capture.lines();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "[info ] hello 7");
}

TEST(Log, ThresholdSuppressesLowerLevels) {
  SinkCapture capture;
  const auto prev = log_threshold();
  set_log_threshold(LogLevel::kError);
  UBAC_LOG_INFO << "dropped";
  UBAC_LOG_WARN << "dropped";
  UBAC_LOG_ERROR << "kept";
  set_log_threshold(prev);
  const auto lines = capture.lines();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "[error] kept");
}

TEST(Log, ConcurrentWritersNeverInterleaveWithinALine) {
  SinkCapture capture;
  const auto prev = log_threshold();
  set_log_threshold(LogLevel::kInfo);

  constexpr std::size_t kThreads = 8;
  constexpr int kLines = 500;
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t)
    workers.emplace_back([t] {
      for (int i = 0; i < kLines; ++i)
        UBAC_LOG_INFO << "thread=" << t << " line=" << i
                      << " payload=xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx";
    });
  for (auto& w : workers) w.join();
  set_log_threshold(prev);

  // Every emitted line must be exactly one intact record: correct prefix,
  // correct payload, and the (thread, line) pairs must cover the full
  // cross product with no duplicates — any interleaving would corrupt at
  // least one of them.
  const auto lines = capture.lines();
  ASSERT_EQ(lines.size(), kThreads * kLines);
  std::set<std::pair<std::size_t, int>> seen;
  for (const auto& line : lines) {
    std::size_t thread = 0;
    int index = -1;
    char payload[64] = {0};
    ASSERT_EQ(std::sscanf(line.c_str(),
                          "[info ] thread=%zu line=%d payload=%63s",
                          &thread, &index, payload),
              3)
        << "interleaved or corrupt line: " << line;
    EXPECT_STREQ(payload, "xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx")
        << "interleaved payload in: " << line;
    EXPECT_TRUE(seen.emplace(thread, index).second)
        << "duplicate record: " << line;
  }
  EXPECT_EQ(seen.size(), kThreads * kLines);
}

TEST(Log, SetSinkReturnsThePreviousSink) {
  std::FILE* tmp = std::tmpfile();
  ASSERT_NE(tmp, nullptr);
  std::FILE* prev = set_log_sink(tmp);
  EXPECT_EQ(set_log_sink(nullptr), tmp);  // restore; returns what was set
  EXPECT_EQ(set_log_sink(prev == stderr ? nullptr : prev), stderr);
  set_log_sink(nullptr);
  std::fclose(tmp);
}

}  // namespace
}  // namespace ubac::util
