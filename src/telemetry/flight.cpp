#include "telemetry/flight.hpp"

#include <cstdio>
#include <sstream>

namespace ubac::telemetry {

namespace {

std::string fmt_labels(const Labels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i) out += ",";
    out += labels[i].first + "=" + labels[i].second;
  }
  out += "}";
  return out;
}

}  // namespace

FlightSnapshot FlightSnapshot::capture(const EventTracer* tracer,
                                       const MetricsRegistry* metrics,
                                       std::size_t max_events) {
  FlightSnapshot snapshot;
  snapshot.wall_ns = EventTracer::now_ns();
  if (tracer != nullptr) {
    snapshot.events = tracer->snapshot();
    if (snapshot.events.size() > max_events)
      snapshot.events.erase(
          snapshot.events.begin(),
          snapshot.events.end() - static_cast<std::ptrdiff_t>(max_events));
  }
  if (SpanRecorder* recorder = SpanRecorder::active())
    snapshot.open_spans = recorder->open_spans();
  if (metrics != nullptr) {
    for (MetricFamily& family : metrics->snapshot().families)
      if (family.kind == InstrumentKind::kGauge)
        snapshot.gauges.push_back(std::move(family));
  }
  return snapshot;
}

std::string FlightSnapshot::to_text() const {
  std::ostringstream out;
  char buf[160];
  out << "-- last " << events.size() << " trace events (oldest first):\n";
  for (const TraceEvent& ev : events) {
    std::snprintf(buf, sizeof(buf),
                  "  [%llu] %s flow=%llu class=%u util=%.4f %s\n",
                  static_cast<unsigned long long>(ev.seq), to_string(ev.kind),
                  static_cast<unsigned long long>(ev.flow_id), ev.class_index,
                  ev.utilization, ev.reason);
    out << buf;
  }
  out << "-- open spans (" << open_spans.size() << "):\n";
  for (const OpenSpanInfo& span : open_spans) {
    out << "  lane " << span.thread << ": " << span.name << " ["
        << span.category << "]";
    if (span.arg_key != nullptr) {
      std::snprintf(buf, sizeof(buf), " %s=%g", span.arg_key, span.arg_value);
      out << buf;
    }
    out << "\n";
  }
  out << "-- gauges (" << gauges.size() << " families):\n";
  for (const MetricFamily& family : gauges) {
    for (const MetricSample& sample : family.samples) {
      std::snprintf(buf, sizeof(buf), "%g", sample.value);
      out << "  " << family.name << fmt_labels(sample.labels) << " = " << buf
          << "\n";
    }
  }
  return out.str();
}

}  // namespace ubac::telemetry
