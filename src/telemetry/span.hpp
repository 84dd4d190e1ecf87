#pragma once

/// \file span.hpp
/// \brief Low-overhead span tracing for the configuration pipeline.
///
/// A SpanRecorder captures nested wall-clock spans (name, category, lane,
/// start, duration, one optional numeric argument) on a LaneRing
/// (lane_ring.hpp), the ring EventTracer records into: a completed span
/// is stamped with its end on its thread's lane, lanes are handed back
/// when a thread exits (so pools started in waves reuse the same few),
/// and memory is lanes used x capacity slots. A span's `thread` is its
/// lane, not an OS thread. Each lane also lists its *open* spans under
/// the lane's mutex, tagged with their thread, so spans nest per thread
/// even on the shared overflow lane, and a flight-recorder dump can say
/// what every lane was doing when a guarantee was violated
/// (sim/audit.hpp). Tracing is *runtime-gated*: the disabled path of
/// UBAC_SPAN(...) is one acquire load and branch.
///
/// Export is Chrome trace-event JSON (the "X" complete-event flavour),
/// loadable in Perfetto or chrome://tracing. ChromeTraceWriter is the
/// shared sink: SpanRecorder contributes one tid per lane, EventTracer
/// events become instant events on the same timeline, and
/// sim::append_chrome_packet_lanes (sim/trace.hpp) adds one lane per link
/// server so config phases and packet flow sit side by side in one file.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/event_trace.hpp"
#include "telemetry/lane_ring.hpp"

namespace ubac::telemetry {

/// One completed span as retained by the ring.
struct SpanEvent {
  const char* name = "";      ///< static string (never owned)
  const char* category = "";  ///< static string (never owned)
  std::uint32_t thread = 0;   ///< the recorder lane the span ran on
  std::int64_t start_ns = 0;  ///< EventTracer::now_ns clock
  std::int64_t duration_ns = 0;
  const char* arg_key = nullptr;  ///< optional numeric argument
  double arg_value = 0.0;
  std::uint64_t seq = 0;  ///< position in SpanRecorder::snapshot()
};

/// A span still in progress on some lane (flight-recorder view).
struct OpenSpanInfo {
  const char* name = "";
  const char* category = "";
  std::uint32_t thread = 0;  ///< the recorder lane the span runs on
  std::int64_t start_ns = 0;
  const char* arg_key = nullptr;
  double arg_value = 0.0;
};

class SpanRecorder {
 public:
  /// `capacity` is rounded up to a power of two; the ring keeps the most
  /// recent `capacity` completed spans.
  explicit SpanRecorder(std::size_t capacity = 1 << 16);
  ~SpanRecorder();

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  // -- global gate -------------------------------------------------------

  /// Install `recorder` as the process-wide active recorder (nullptr
  /// disables tracing). Also hooks util::ThreadPool task execution. The
  /// recorder must stay alive, and all traced threads quiescent, until
  /// after install(nullptr).
  static void install(SpanRecorder* recorder);

  /// The active recorder, or nullptr when tracing is off. This load is
  /// the entire cost of a disabled UBAC_SPAN.
  static SpanRecorder* active() noexcept {
    return g_active_.load(std::memory_order_acquire);
  }

  // -- recording (normally via ScopedSpan / UBAC_SPAN) -------------------

  /// Open a span on the calling thread. Pointers must be static strings.
  void begin(const char* name, const char* category,
             const char* arg_key = nullptr, double arg_value = 0.0);

  /// Close the calling thread's innermost open span and retain it.
  void end();

  /// Replace the innermost open span's argument (e.g. once a solve knows
  /// whether it ran warm or cold).
  void set_arg(const char* key, double value);

  // -- inspection --------------------------------------------------------

  std::size_t capacity() const noexcept { return ring_.capacity(); }
  /// Completed spans recorded, total (the snapshot keeps the last
  /// capacity()); exact at quiescence.
  std::uint64_t recorded() const noexcept { return ring_.recorded(); }
  /// Retained completed spans, oldest (first completed) first.
  std::vector<SpanEvent> snapshot() const;
  /// Spans currently open across all lanes (best effort under churn;
  /// exact at quiescence). Ordered by (lane, depth).
  std::vector<OpenSpanInfo> open_spans() const;
  /// Lanes holding a ring: memory is lanes_used() x capacity() slots.
  std::size_t lanes_used() const noexcept { return ring_.lanes_used(); }

  static std::int64_t now_ns() noexcept { return ring_now_ns(); }

 private:
  /// A slot's payload: a completed span, stamped with its end.
  struct Record {
    std::int64_t stamp_ns;
    std::int64_t start_ns;
    const char* name;
    const char* category;
    const char* arg_key;
    double arg_value;
  };

  /// One lane's open spans, oldest first, each tagged with its thread's
  /// token: a thread's innermost span is its newest entry.
  struct OpenSpans {
    mutable std::mutex mutex;
    std::vector<std::pair<std::uint64_t, OpenSpanInfo>> spans;
  };

  static std::atomic<SpanRecorder*> g_active_;

  LaneRing<Record> ring_;
  OpenSpans open_[LaneRing<Record>::kLaneCount];
  std::int64_t epoch_ns_;  ///< construction time; exporter time zero

  friend std::int64_t span_epoch_ns(const SpanRecorder&);
};

/// Epoch (time zero) the recorder's spans are exported against.
std::int64_t span_epoch_ns(const SpanRecorder& recorder);

/// RAII span. Captures the active recorder once at construction; a
/// recorder uninstalled mid-span still receives the matching end().
class ScopedSpan {
 public:
  ScopedSpan(const char* name, const char* category)
      : recorder_(SpanRecorder::active()) {
    if (recorder_) recorder_->begin(name, category);
  }
  ScopedSpan(const char* name, const char* category, const char* arg_key,
             double arg_value)
      : recorder_(SpanRecorder::active()) {
    if (recorder_) recorder_->begin(name, category, arg_key, arg_value);
  }
  ~ScopedSpan() {
    if (recorder_) recorder_->end();
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// True when this span is actually being recorded.
  bool active() const noexcept { return recorder_ != nullptr; }
  /// Attach/replace the numeric argument (no-op when tracing is off).
  void set_arg(const char* key, double value) {
    if (recorder_) recorder_->set_arg(key, value);
  }

 private:
  SpanRecorder* recorder_;
};

// Instrumentation macros: zero-cost name mangling, one atomic load when
// tracing is off. Name/category/arg-key must be string literals (or other
// static storage).
#define UBAC_SPAN_CAT2(a, b) a##b
#define UBAC_SPAN_CAT(a, b) UBAC_SPAN_CAT2(a, b)
#define UBAC_SPAN(name, category) \
  ::ubac::telemetry::ScopedSpan UBAC_SPAN_CAT(ubac_span_, __LINE__)(name, \
                                                                    category)
#define UBAC_SPAN_ARG(name, category, key, value)                       \
  ::ubac::telemetry::ScopedSpan UBAC_SPAN_CAT(ubac_span_, __LINE__)(    \
      name, category, key, static_cast<double>(value))

/// Assembles one Chrome trace-event JSON file from several producers.
/// Timestamps are microseconds (double); each producer picks its (pid,
/// tid) lanes. The output is the object form {"traceEvents": [...]},
/// which Perfetto and chrome://tracing both load.
class ChromeTraceWriter {
 public:
  /// Process/thread naming metadata events (ph "M").
  void add_process_name(int pid, const std::string& name);
  void add_thread_name(int pid, int tid, const std::string& name);

  /// A complete span (ph "X"). `args_json` is either empty or a full JSON
  /// object literal like {"alpha":0.3}.
  void add_complete_event(const std::string& name, const std::string& category,
                          int pid, int tid, double ts_us, double dur_us,
                          const std::string& args_json = "");

  /// A thread-scoped instant event (ph "i").
  void add_instant_event(const std::string& name, const std::string& category,
                         int pid, int tid, double ts_us,
                         const std::string& args_json = "");

  /// All completed spans of `recorder` as pid `pid`, one tid per recorder
  /// lane holding one, plus naming metadata. Span timestamps are rebased
  /// to the recorder's construction time.
  void add_spans(const SpanRecorder& recorder, int pid = 1,
                 const std::string& process_name = "ubac config pipeline");

  /// Retained EventTracer events as instant events on one lane. Events
  /// carry wall-clock now_ns() stamps; `epoch_ns` rebases them (use
  /// span_epoch_ns of the co-installed recorder so both land on the same
  /// axis; pass 0 for sim-time tracers).
  void add_tracer_events(const EventTracer& tracer, std::int64_t epoch_ns,
                         int pid = 1, int tid = 9999,
                         const std::string& lane_name = "admission events");

  std::size_t event_count() const { return events_.size(); }

  std::string to_json() const;
  /// write_file(path, to_json()).
  void write(const std::string& path) const;

 private:
  std::vector<std::string> events_;
};

}  // namespace ubac::telemetry
