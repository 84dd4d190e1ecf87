#include "telemetry/span.hpp"

#include <algorithm>
#include <cstdio>
#include <set>

#include "telemetry/exporters.hpp"
#include "util/thread_pool.hpp"

namespace ubac::telemetry {

std::atomic<SpanRecorder*> SpanRecorder::g_active_{nullptr};

namespace {

/// Names the calling thread among those sharing a lane's open spans.
std::uint64_t thread_token() noexcept {
  static std::atomic<std::uint64_t> next{1};
  thread_local const std::uint64_t token =
      next.fetch_add(1, std::memory_order_relaxed);
  return token;
}

/// The calling thread's innermost open span on `spans`, or rend().
template <class Spans>
auto innermost(Spans& spans) noexcept {
  const std::uint64_t token = thread_token();
  return std::find_if(spans.rbegin(), spans.rend(),
                      [token](const auto& s) { return s.first == token; });
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
    : ring_(capacity), epoch_ns_(now_ns()) {}

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

void SpanRecorder::begin(const char* name, const char* category,
                         const char* arg_key, double arg_value) {
  const std::uint32_t lane = ring_.lane();
  const OpenSpanInfo info{name, category, lane, now_ns(), arg_key, arg_value};
  OpenSpans& open = open_[lane];
  std::lock_guard<std::mutex> lock(open.mutex);
  open.spans.emplace_back(thread_token(), info);
}

void SpanRecorder::set_arg(const char* key, double value) {
  OpenSpans& open = open_[ring_.lane()];
  std::lock_guard<std::mutex> lock(open.mutex);
  const auto it = innermost(open.spans);
  if (it == open.spans.rend()) return;
  it->second.arg_key = key;
  it->second.arg_value = value;
}

void SpanRecorder::end() {
  OpenSpans& open = open_[ring_.lane()];
  OpenSpanInfo info;
  {
    std::lock_guard<std::mutex> lock(open.mutex);
    const auto it = innermost(open.spans);
    if (it == open.spans.rend()) return;  // unbalanced end(); drop
    info = it->second;
    open.spans.erase(std::next(it).base());
  }
  ring_.record([&info](std::int64_t stamp) {
    return Record{stamp,        info.start_ns, info.name,
                  info.category, info.arg_key,  info.arg_value};
  });
}

std::vector<SpanEvent> SpanRecorder::snapshot() const {
  const auto entries = ring_.snapshot();
  std::vector<SpanEvent> events;
  events.reserve(entries.size());
  for (const auto& [r, lane, seq] : entries)
    events.push_back(SpanEvent{r.name, r.category, lane, r.start_ns,
                               r.stamp_ns - r.start_ns, r.arg_key,
                               r.arg_value, seq});
  return events;
}

std::vector<OpenSpanInfo> SpanRecorder::open_spans() const {
  std::vector<OpenSpanInfo> out;
  for (const OpenSpans& lane : open_) {
    std::lock_guard<std::mutex> lock(lane.mutex);
    for (const auto& span : lane.spans) out.push_back(span.second);
  }
  return out;
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
  std::set<std::uint32_t> lanes;
  for (const SpanEvent& s : spans) lanes.insert(s.thread);
  for (const std::uint32_t lane : lanes)
    add_thread_name(pid, static_cast<int>(lane),
                    "lane " + std::to_string(lane));
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
