#pragma once

/// \file span.hpp
/// \brief Low-overhead span tracing for the configuration pipeline.
///
/// A SpanRecorder captures nested wall-clock spans (name, category, thread,
/// start, duration, one optional numeric argument) into a bounded
/// power-of-two ring: one fetch_add claims a seq, and the slot is
/// published through the SeqlockSlot protocol EventTracer's lanes share
/// (seqlock.hpp), so recording is safe from pool workers and the
/// admission hot path alike. Tracing is *runtime-gated*: code is
/// instrumented with UBAC_SPAN(...), whose disabled path is a single
/// relaxed atomic load and branch (no recorder installed), measured to keep
/// bench_analysis_perf within noise of the uninstrumented build.
///
/// Each thread additionally keeps a small stack of its currently *open*
/// spans (guarded by a per-thread mutex the owner only touches while
/// tracing is on), so a flight-recorder dump can say what every thread was
/// doing when a guarantee was violated (sim/audit.hpp).
///
/// Export is Chrome trace-event JSON (the "X" complete-event flavour),
/// loadable in Perfetto or chrome://tracing. ChromeTraceWriter is the
/// shared sink: SpanRecorder contributes the config-pipeline lanes,
/// EventTracer events become instant events on the same timeline, and
/// sim::append_chrome_packet_lanes (sim/trace.hpp) adds one lane per link
/// server so config phases and packet flow sit side by side in one file.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "telemetry/event_trace.hpp"
#include "telemetry/seqlock.hpp"

namespace ubac::telemetry {

/// One completed span as retained by the ring.
struct SpanEvent {
  const char* name = "";      ///< static string (never owned)
  const char* category = "";  ///< static string (never owned)
  std::uint32_t thread = 0;   ///< dense recorder-assigned thread id
  std::int64_t start_ns = 0;  ///< EventTracer::now_ns clock
  std::int64_t duration_ns = 0;
  const char* arg_key = nullptr;  ///< optional numeric argument
  double arg_value = 0.0;
  std::uint64_t seq = 0;  ///< claim order (filled by record)
};

/// A span still in progress on some thread (flight-recorder view).
struct OpenSpanInfo {
  const char* name = "";
  const char* category = "";
  std::uint32_t thread = 0;
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

  std::size_t capacity() const noexcept { return capacity_; }
  /// Completed spans recorded, total (ring keeps the last capacity()).
  std::uint64_t recorded() const noexcept {
    return head_.load(std::memory_order_acquire);
  }
  /// Retained completed spans, oldest first.
  std::vector<SpanEvent> snapshot() const;
  /// Spans currently open across all threads (best effort under churn;
  /// exact at quiescence). Ordered by (thread, depth).
  std::vector<OpenSpanInfo> open_spans() const;
  /// Threads that have recorded at least one span.
  std::size_t thread_count() const;

  static std::int64_t now_ns() noexcept { return EventTracer::now_ns(); }

 private:
  using Slot = SeqlockSlot<SpanEvent>;

  /// Per-thread open-span stack. The owning thread pushes/pops under
  /// `mutex`; open_spans() takes the same mutex, so the flight-recorder
  /// view is race-free (the mutex is uncontended in steady state).
  struct ThreadState {
    explicit ThreadState(std::uint32_t thread_id) : id(thread_id) {}
    std::uint32_t id;
    mutable std::mutex mutex;
    std::vector<OpenSpanInfo> open;
  };

  ThreadState& thread_state();
  void record(const SpanEvent& ev) noexcept;

  static std::atomic<SpanRecorder*> g_active_;

  std::size_t capacity_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<std::uint64_t> head_{0};
  std::int64_t epoch_ns_;  ///< construction time; exporter time zero
  /// Distinguishes recorders that reuse a freed recorder's address, so the
  /// per-thread state cache never dereferences stale pointers.
  std::uint64_t generation_;

  mutable std::mutex threads_mutex_;
  std::vector<std::unique_ptr<ThreadState>> threads_;

  friend class ChromeTraceWriter;
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
  /// thread, plus naming metadata. Span timestamps are rebased to the
  /// recorder's construction time.
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
