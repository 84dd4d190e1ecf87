#include "telemetry/span.hpp"

#include <algorithm>
#include <cstdio>

#include "telemetry/exporters.hpp"
#include "util/thread_pool.hpp"

namespace ubac::telemetry {

std::atomic<SpanRecorder*> SpanRecorder::g_active_{nullptr};

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

// util::ThreadPool cannot depend on telemetry (layering), so worker tasks
// are wrapped through these function-pointer hooks instead.
void* pool_task_begin() {
  SpanRecorder* const r = SpanRecorder::active();
  if (r == nullptr) return nullptr;
  r->begin("pool.task", "pool");
  return r;
}

void pool_task_end(void* token) {
  if (token != nullptr) static_cast<SpanRecorder*>(token)->end();
}

std::string fmt_us(double us) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", us);
  return buf;
}

}  // namespace

SpanRecorder::SpanRecorder(std::size_t capacity)
    : capacity_(round_up_pow2(capacity == 0 ? 1 : capacity)),
      slots_(std::make_unique<Slot[]>(capacity_)),
      epoch_ns_(now_ns()) {
  static std::atomic<std::uint64_t> next_generation{1};
  generation_ = next_generation.fetch_add(1, std::memory_order_relaxed);
}

SpanRecorder::~SpanRecorder() {
  if (active() == this) install(nullptr);
}

void SpanRecorder::install(SpanRecorder* recorder) {
  g_active_.store(recorder, std::memory_order_release);
  util::TaskTraceHooks hooks;
  if (recorder != nullptr) {
    hooks.begin = &pool_task_begin;
    hooks.end = &pool_task_end;
  }
  util::set_task_trace_hooks(hooks);
}

SpanRecorder::ThreadState& SpanRecorder::thread_state() {
  // One-recorder fast path: the cache is keyed to the recorder, so a
  // thread alternating between recorders re-registers (gets a fresh lane)
  // on each switch. The process-wide install() pattern never does that.
  thread_local std::uint64_t cached_generation = 0;
  thread_local ThreadState* cached_state = nullptr;
  if (cached_generation == generation_) return *cached_state;
  std::lock_guard<std::mutex> lock(threads_mutex_);
  threads_.push_back(
      std::make_unique<ThreadState>(static_cast<std::uint32_t>(threads_.size())));
  cached_generation = generation_;
  cached_state = threads_.back().get();
  return *cached_state;
}

void SpanRecorder::begin(const char* name, const char* category,
                         const char* arg_key, double arg_value) {
  ThreadState& ts = thread_state();
  OpenSpanInfo info;
  info.name = name;
  info.category = category;
  info.thread = ts.id;
  info.start_ns = now_ns();
  info.arg_key = arg_key;
  info.arg_value = arg_value;
  std::lock_guard<std::mutex> lock(ts.mutex);
  ts.open.push_back(info);
}

void SpanRecorder::set_arg(const char* key, double value) {
  ThreadState& ts = thread_state();
  std::lock_guard<std::mutex> lock(ts.mutex);
  if (ts.open.empty()) return;
  ts.open.back().arg_key = key;
  ts.open.back().arg_value = value;
}

void SpanRecorder::end() {
  const std::int64_t end_ns = now_ns();
  ThreadState& ts = thread_state();
  OpenSpanInfo info;
  {
    std::lock_guard<std::mutex> lock(ts.mutex);
    if (ts.open.empty()) return;  // unbalanced end(); drop
    info = ts.open.back();
    ts.open.pop_back();
  }
  SpanEvent ev;
  ev.name = info.name;
  ev.category = info.category;
  ev.thread = info.thread;
  ev.start_ns = info.start_ns;
  ev.duration_ns = end_ns - info.start_ns;
  ev.arg_key = info.arg_key;
  ev.arg_value = info.arg_value;
  record(ev);
}

void SpanRecorder::record(const SpanEvent& ev) noexcept {
  SpanEvent stamped = ev;
  stamped.seq = head_.fetch_add(1, std::memory_order_acq_rel);
  slots_[stamped.seq & (capacity_ - 1)].publish(stamped.seq, stamped);
}

std::vector<SpanEvent> SpanRecorder::snapshot() const {
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  const std::uint64_t n = head < capacity_ ? head : capacity_;
  std::vector<SpanEvent> events;
  events.reserve(n);
  for (std::uint64_t seq = head - n; seq < head; ++seq) {
    SpanEvent ev;
    // Skip a slot mid-write or already overwritten by a newer span.
    if (slots_[seq & (capacity_ - 1)].read(ev) == seq) events.push_back(ev);
  }
  return events;
}

std::vector<OpenSpanInfo> SpanRecorder::open_spans() const {
  std::lock_guard<std::mutex> lock(threads_mutex_);
  std::vector<OpenSpanInfo> out;
  for (const auto& ts : threads_) {
    std::lock_guard<std::mutex> thread_lock(ts->mutex);
    out.insert(out.end(), ts->open.begin(), ts->open.end());
  }
  return out;
}

std::size_t SpanRecorder::thread_count() const {
  std::lock_guard<std::mutex> lock(threads_mutex_);
  return threads_.size();
}

std::int64_t span_epoch_ns(const SpanRecorder& recorder) {
  return recorder.epoch_ns_;
}

// -- ChromeTraceWriter ----------------------------------------------------

void ChromeTraceWriter::add_process_name(int pid, const std::string& name) {
  events_.push_back("{\"ph\":\"M\",\"pid\":" + std::to_string(pid) +
                    ",\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"" +
                    json_escape(name) + "\"}}");
}

void ChromeTraceWriter::add_thread_name(int pid, int tid,
                                        const std::string& name) {
  events_.push_back("{\"ph\":\"M\",\"pid\":" + std::to_string(pid) +
                    ",\"tid\":" + std::to_string(tid) +
                    ",\"name\":\"thread_name\",\"args\":{\"name\":\"" +
                    json_escape(name) + "\"}}");
}

void ChromeTraceWriter::add_complete_event(const std::string& name,
                                           const std::string& category,
                                           int pid, int tid, double ts_us,
                                           double dur_us,
                                           const std::string& args_json) {
  std::string ev = "{\"ph\":\"X\",\"name\":\"" + json_escape(name) +
                   "\",\"cat\":\"" + json_escape(category) +
                   "\",\"pid\":" + std::to_string(pid) +
                   ",\"tid\":" + std::to_string(tid) + ",\"ts\":" +
                   fmt_us(ts_us) + ",\"dur\":" + fmt_us(dur_us);
  if (!args_json.empty()) ev += ",\"args\":" + args_json;
  ev += "}";
  events_.push_back(std::move(ev));
}

void ChromeTraceWriter::add_instant_event(const std::string& name,
                                          const std::string& category,
                                          int pid, int tid, double ts_us,
                                          const std::string& args_json) {
  std::string ev = "{\"ph\":\"i\",\"s\":\"t\",\"name\":\"" +
                   json_escape(name) + "\",\"cat\":\"" +
                   json_escape(category) + "\",\"pid\":" +
                   std::to_string(pid) + ",\"tid\":" + std::to_string(tid) +
                   ",\"ts\":" + fmt_us(ts_us);
  if (!args_json.empty()) ev += ",\"args\":" + args_json;
  ev += "}";
  events_.push_back(std::move(ev));
}

void ChromeTraceWriter::add_spans(const SpanRecorder& recorder, int pid,
                                  const std::string& process_name) {
  add_process_name(pid, process_name);
  const std::int64_t epoch = span_epoch_ns(recorder);
  const auto spans = recorder.snapshot();
  std::uint32_t max_thread = 0;
  for (const SpanEvent& s : spans) max_thread = std::max(max_thread, s.thread);
  const std::size_t lanes =
      std::max<std::size_t>(recorder.thread_count(), max_thread + 1);
  for (std::size_t t = 0; t < lanes; ++t)
    add_thread_name(pid, static_cast<int>(t),
                    t == 0 ? "main" : "worker " + std::to_string(t));
  for (const SpanEvent& s : spans) {
    std::string args;
    if (s.arg_key != nullptr) {
      char buf[96];
      std::snprintf(buf, sizeof(buf), "{\"%s\":%g}", s.arg_key, s.arg_value);
      args = buf;
    }
    add_complete_event(s.name, s.category, pid, static_cast<int>(s.thread),
                       static_cast<double>(s.start_ns - epoch) / 1e3,
                       static_cast<double>(s.duration_ns) / 1e3, args);
  }
}

void ChromeTraceWriter::add_tracer_events(const EventTracer& tracer,
                                          std::int64_t epoch_ns, int pid,
                                          int tid,
                                          const std::string& lane_name) {
  add_thread_name(pid, tid, lane_name);
  for (const TraceEvent& ev : tracer.snapshot()) {
    char args[192];
    std::snprintf(args, sizeof(args),
                  "{\"flow\":%llu,\"class\":%u,\"src\":%u,\"dst\":%u,"
                  "\"utilization\":%g,\"reason\":\"%s\"}",
                  static_cast<unsigned long long>(ev.flow_id), ev.class_index,
                  ev.src, ev.dst, ev.utilization,
                  json_escape(ev.reason).c_str());
    add_instant_event(to_string(ev.kind), "admission", pid, tid,
                      static_cast<double>(ev.timestamp_ns - epoch_ns) / 1e3,
                      args);
  }
}

std::string ChromeTraceWriter::to_json() const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < events_.size(); ++i) {
    if (i) out += ",";
    out += "\n";
    out += events_[i];
  }
  out += "\n]}\n";
  return out;
}

void ChromeTraceWriter::write(const std::string& path) const {
  write_file(path, to_json());
}

}  // namespace ubac::telemetry
