#include "admission/controller.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "admission/telemetry.hpp"
#include "telemetry/envelope.hpp"
#include "telemetry/span.hpp"

namespace ubac::admission {

namespace {

/// This thread's lane on the controller it last admitted through.
thread_local util::LaneClaims::Cache t_lane_cache;

}  // namespace

const char* to_string(AdmissionOutcome outcome) {
  switch (outcome) {
    case AdmissionOutcome::kAdmitted: return "admitted";
    case AdmissionOutcome::kNoRoute: return "no-route";
    case AdmissionOutcome::kUtilizationExceeded: return "utilization-exceeded";
    case AdmissionOutcome::kBadClass: return "bad-class";
  }
  return "?";
}

ConcurrentAdmissionController::ConcurrentAdmissionController(
    const net::ServerGraph& graph, const traffic::ClassSet& classes,
    RoutingTable table)
    : graph_(&graph), classes_(&classes), table_(std::move(table)),
      servers_(graph.size()),
      slots_(std::make_unique<Slot[]>(classes.size() * graph.size())),
      lanes_(std::make_unique<Lane[]>(kLaneCount)) {
  // The fixed-point overflow proof (traffic/flow.hpp) only covers graphs
  // within the grid's static bounds; refuse anything larger up front.
  if (servers_ > traffic::kMaxServers)
    throw std::invalid_argument(
        "ConcurrentAdmissionController: server count exceeds kMaxServers");
  for (net::ServerId s = 0; s < servers_; ++s)
    if (graph.server(s).capacity > traffic::kMaxCapacityBps)
      throw std::invalid_argument(
          "ConcurrentAdmissionController: server capacity exceeds "
          "kMaxCapacityBps");
  rho_units_.resize(classes.size(), 0);
  live_share_ = std::make_unique<std::atomic<double>[]>(classes.size());
  for (std::size_t c = 0; c < classes.size(); ++c) {
    const traffic::ServiceClass& cls = classes.at(c);
    live_share_[c].store(cls.realtime ? cls.share : 0.0,
                         std::memory_order_relaxed);
    if (!cls.realtime) continue;
    if (cls.bucket.rate > traffic::kMaxCapacityBps)
      throw std::invalid_argument(
          "ConcurrentAdmissionController: class rate exceeds kMaxCapacityBps");
    // Demand quantized once, at class registration (round up); budgets
    // rounded down. alpha <= 1, so share * capacity stays in range.
    rho_units_[c] = cls.spec.rate_units;
    for (net::ServerId s = 0; s < servers_; ++s)
      slots_[c * servers_ + s].limit.store(
          traffic::quantize_budget_down(cls.share * graph.server(s).capacity),
          std::memory_order_relaxed);
  }
  for (std::size_t i = 0; i < classes.size() * servers_; ++i)
    slots_[i].capacity = graph.server(i % servers_).capacity;

  for (std::size_t l = 0; l < kLaneCount; ++l)
    lanes_[l].last_id = static_cast<traffic::FlowId>(l) << kLaneShift;
  // The conformance recorder keys its regions by these lane bits.
  static_assert(telemetry::ArrivalRecorder::kRegionShift == kLaneShift &&
                telemetry::ArrivalRecorder::kRegions == kLaneCount);

  // Dense route index: one cell load plus a flat hop-array walk instead of
  // a hash lookup and a pointer chase through the table's nodes on every
  // request. Every topology the repo builds numbers its nodes densely, so
  // the (class, node, node) cube stays small; sparse ids are refused.
  net::NodeId max_node = 0;
  std::size_t total_hops = 0;
  table_.for_each([&](net::NodeId src, net::NodeId dst, std::size_t,
                      const net::ServerPath& route) {
    max_node = std::max({max_node, src, dst});
    total_hops += route.size();
  });
  const std::size_t stride = static_cast<std::size_t>(max_node) + 1;
  if (stride > kMaxRouteCells ||
      classes.size() * stride * stride > kMaxRouteCells)
    throw std::invalid_argument(
        "ConcurrentAdmissionController: route index exceeds kMaxRouteCells "
        "(node ids too sparse)");
  index_nodes_ = static_cast<std::uint32_t>(stride);
  route_index_.assign(classes.size() * stride * stride, RouteRef{});
  // The arena is sized up front so the hop pointers stored in the cells
  // never dangle from reallocation.
  route_arena_.reserve(total_hops);
  table_.for_each([&](net::NodeId src, net::NodeId dst, std::size_t c,
                      const net::ServerPath& route) {
    if (c >= classes.size()) return;  // unconfigured class: never routed
    const std::size_t offset = route_arena_.size();
    // slot-index translation done once here: indices are bounded by
    // classes*servers_, the extent of the slots_ allocation itself.
    for (const net::ServerId s : route)
      route_arena_.push_back(static_cast<std::uint32_t>(c * servers_ + s));
    RouteRef ref;
    ref.slots = route_arena_.data() + offset;
    ref.len = static_cast<std::uint32_t>(route.size());
    ref.first = route.empty() ? 0 : route_arena_[offset];
    ref.path = &route;
    route_index_[(c * stride + src) * stride + dst] = ref;
  });
}

bool ConcurrentAdmissionController::try_reserve(Slot& s, RateFx rho,
                                                RateFx cap) {
  // Relaxed ordering is sufficient: the safety invariant (reserved <= cap
  // at every instant) is a property of the values produced by this single
  // atomic object's RMW history, not of cross-object ordering. Per-flow
  // data is published via the lane mutex, never via these counters.
  // `cur + rho` cannot wrap: cur <= cap <= 2^51 and rho <= 2^52 saturated
  // demands never pass the guard (see traffic/flow.hpp overflow proof).
  RateFx cur = s.reserved.load(std::memory_order_relaxed);
  do {
    // Subtraction form is overflow-proof; the explicit cur > cap branch
    // covers the live-reconfiguration transient where a shrunken budget
    // leaves the counter above the new cap — cap - cur would wrap and
    // wrongly admit into an already over-committed slot.
    if (cur > cap || rho > cap - cur) return false;
  } while (!s.reserved.compare_exchange_weak(cur, cur + rho,
                                             std::memory_order_relaxed));
  // Record the high watermark. Every successful reservation publishes its
  // own post-add value, so the max over all published values is the max
  // the counter ever held.
  const RateFx now = cur + rho;
  RateFx peak = s.peak.load(std::memory_order_relaxed);
  while (peak < now && !s.peak.compare_exchange_weak(
                           peak, now, std::memory_order_relaxed)) {
  }
  return true;
}

bool ConcurrentAdmissionController::route_for(
    net::NodeId src, net::NodeId dst, std::size_t class_index,
    std::uint32_t& cell, AdmissionDecision& decision) const {
  if (class_index >= classes_->size() ||
      !classes_->at(class_index).realtime) {
    decision.outcome = AdmissionOutcome::kBadClass;
    return false;
  }
  // The dense index covers every configured entry: an out-of-range or
  // empty cell *is* the no-route answer.
  if (src >= index_nodes_ || dst >= index_nodes_) {
    decision.outcome = AdmissionOutcome::kNoRoute;
    return false;
  }
  cell = static_cast<std::uint32_t>(
      (class_index * index_nodes_ + src) * index_nodes_ + dst);
  if (route_index_[cell].path == nullptr) {
    decision.outcome = AdmissionOutcome::kNoRoute;
    return false;
  }
  return true;
}

bool ConcurrentAdmissionController::reserve_route(
    const RouteRef& route, std::size_t class_index,
    AdmissionDecision& decision) {
  const RateFx rho = rho_units_[class_index];

  // Read-only precheck: in the overload regime most requests are rejected,
  // and a rejection should cost loads, not CAS traffic plus rollback.
  // Observing a full hop here is the same decision the CAS pass would make
  // at that hop; under concurrency the precheck is only advisory — a pass
  // here still has to win every per-hop CAS below, so the safety invariant
  // never rests on this scan. Hop 0 — where a uniformly saturated network
  // blocks almost every rejection — reads its slot index straight from the
  // route cell (RouteRef::first): demand, cell, slot, three dependent
  // loads and the decision is made.
  std::size_t hop = 0;
  if (route.len != 0) {
    const Slot& s0 = slots_[route.first];
    const RateFx cap0 = s0.limit.load(std::memory_order_relaxed);
    const RateFx cur0 = s0.reserved.load(std::memory_order_relaxed);
    if (cur0 > cap0 || rho > cap0 - cur0) {
      decision.outcome = AdmissionOutcome::kUtilizationExceeded;
      decision.blocking_hop = 0;
      return false;
    }
    hop = 1;
  }
  for (; hop < route.len; ++hop) {
    const Slot& sl = slots_[route.slots[hop]];
    const RateFx cap = sl.limit.load(std::memory_order_relaxed);
    const RateFx cur = sl.reserved.load(std::memory_order_relaxed);
    if (cur > cap || rho > cap - cur) {
      decision.outcome = AdmissionOutcome::kUtilizationExceeded;
      decision.blocking_hop = hop;
      return false;
    }
  }

  // The run-time test: along the path, does the class stay within its
  // verified share alpha on every link? Reserve hop by hop; on a
  // saturated hop roll back what this request already took.
  for (hop = 0; hop < route.len; ++hop) {
    Slot& sl = slots_[route.slots[hop]];
    if (!try_reserve(sl, rho, sl.limit.load(std::memory_order_relaxed))) {
      for (std::size_t h = 0; h < hop; ++h)
        slots_[route.slots[h]].reserved.fetch_sub(rho,
                                                  std::memory_order_relaxed);
      decision.outcome = AdmissionOutcome::kUtilizationExceeded;
      decision.blocking_hop = hop;
      return false;
    }
  }
  decision.outcome = AdmissionOutcome::kAdmitted;
  return true;
}

ConcurrentAdmissionController::Lane&
ConcurrentAdmissionController::own_lane() {
  return lanes_[claims_.own(t_lane_cache)];
}

traffic::FlowId ConcurrentAdmissionController::register_flow(
    std::uint32_t cell) {
  Lane& lane = own_lane();
  std::lock_guard<std::mutex> lock(lane.mutex);
  const traffic::FlowId id = ++lane.last_id;
  lane.flows.insert(FlowRecord{id, cell});
  return id;
}

void ConcurrentAdmissionController::unreserve(std::uint32_t cell) {
  const RouteRef& route = route_index_[cell];
  const RateFx rho = rho_units_[class_of(cell)];
  for (std::uint32_t hop = 0; hop < route.len; ++hop)
    slots_[route.slots[hop]].reserved.fetch_sub(rho,
                                                std::memory_order_relaxed);
}

AdmissionDecision ConcurrentAdmissionController::request(
    net::NodeId src, net::NodeId dst, std::size_t class_index) {
  UBAC_SPAN_ARG("admission.request", "admission", "class", class_index);
  ControllerTelemetry* const t = telemetry_;
  if (t == nullptr) return request_impl(src, dst, class_index);

  const bool timed = t->should_time();
  const std::int64_t start_ns = timed ? telemetry::EventTracer::now_ns() : 0;
  const AdmissionDecision decision = request_impl(src, dst, class_index);
  record_request_telemetry(decision, src, dst, class_index, timed, start_ns);
  return decision;
}

void ConcurrentAdmissionController::record_request_telemetry(
    const AdmissionDecision& decision, net::NodeId src, net::NodeId dst,
    std::size_t class_index, bool timed, std::int64_t start_ns) {
  ControllerTelemetry* const t = telemetry_;
  if (timed)
    t->decision_latency->record(
        static_cast<double>(telemetry::EventTracer::now_ns() - start_ns) *
        1e-9);
  t->decision(decision.outcome).add();
  const bool rolled_back =
      decision.outcome == AdmissionOutcome::kUtilizationExceeded &&
      decision.blocking_hop > 0;
  if (rolled_back) t->rollback_hops->add(decision.blocking_hop);
  if (t->tracer == nullptr || !t->tracer->should_sample()) return;

  telemetry::TraceEvent ev;
  ev.kind = decision.admitted() ? telemetry::TraceEventKind::kAdmit
                                : telemetry::TraceEventKind::kReject;
  ev.flow_id = decision.flow_id;
  ev.class_index = static_cast<std::uint32_t>(class_index);
  ev.src = src;
  ev.dst = dst;
  ev.blocking_hop = static_cast<std::uint32_t>(decision.blocking_hop);
  ev.reason = decision.admitted() ? "" : to_string(decision.outcome);
  // Per-hop utilization at decision time: the worst hop along the route,
  // read from the route's ledger slots with the live share loaded once
  // (only paid on sampled events). Same expression as class_utilization().
  std::uint32_t cell = 0;
  AdmissionDecision lookup;
  if (route_for(src, dst, class_index, cell, lookup)) {
    const double share =
        live_share_[class_index].load(std::memory_order_relaxed);
    const RouteRef& route = route_index_[cell];
    double worst = 0.0;
    for (std::uint32_t hop = 0; share > 0.0 && hop < route.len; ++hop) {
      const Slot& sl = slots_[route.slots[hop]];
      worst = std::max(worst, traffic::bps_from_units(sl.reserved.load(
                                  std::memory_order_relaxed)) /
                                  (share * sl.capacity));
    }
    ev.utilization = worst;
  }
  t->tracer->record(ev);
  if (rolled_back) {
    ev.kind = telemetry::TraceEventKind::kRollback;
    t->tracer->record(ev);
  }
}

AdmissionDecision ConcurrentAdmissionController::request_impl(
    net::NodeId src, net::NodeId dst, std::size_t class_index) {
  AdmissionDecision decision;
  std::uint32_t cell = 0;
  if (!route_for(src, dst, class_index, cell, decision)) return decision;
  if (!reserve_route(route_index_[cell], class_index, decision))
    return decision;

  const traffic::FlowId id = register_flow(cell);
  // Conformance-plane registration: one relaxed-ordering gate load when
  // no ArrivalRecorder is installed (same pattern as UBAC_SPAN).
  if (auto* recorder = telemetry::ArrivalRecorder::active())
    recorder->on_admit(id, static_cast<std::uint32_t>(class_index));
  decision.flow_id = id;
  return decision;
}

std::size_t ConcurrentAdmissionController::admit_batch(
    std::span<const traffic::Demand> requests,
    std::span<AdmissionDecision> results) {
  if (results.size() < requests.size())
    throw std::invalid_argument("admit_batch: results span too small");
  UBAC_SPAN_ARG("admission.admit_batch", "admission", "batch",
                requests.size());
  ControllerTelemetry* const t = telemetry_;
  if (t == nullptr) return admit_batch_impl(requests, results);

  const bool timed = t->should_time();
  const std::int64_t start_ns = timed ? telemetry::EventTracer::now_ns() : 0;
  const std::size_t admitted = admit_batch_impl(requests, results);

  // One flush per batch: outcome counts and rollback hops accumulated
  // locally, each counter touched at most once.
  std::uint64_t outcomes[4] = {0, 0, 0, 0};
  std::uint64_t rollback_hops = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ++outcomes[static_cast<std::size_t>(results[i].outcome)];
    if (results[i].outcome == AdmissionOutcome::kUtilizationExceeded)
      rollback_hops += results[i].blocking_hop;
  }
  for (std::size_t o = 0; o < 4; ++o)
    if (outcomes[o] != 0) t->decisions[o]->add(outcomes[o]);
  if (rollback_hops != 0) t->rollback_hops->add(rollback_hops);
  t->batches->add();
  t->batch_size->record(static_cast<double>(requests.size()));
  if (timed && !requests.empty())
    t->decision_latency->record(
        static_cast<double>(telemetry::EventTracer::now_ns() - start_ns) *
        1e-9 / static_cast<double>(requests.size()));
  return admitted;
}

std::size_t ConcurrentAdmissionController::admit_batch_impl(
    std::span<const traffic::Demand> requests,
    std::span<AdmissionDecision> results) {
  // Phase 1 — decide, strictly in order. Each request runs the same
  // route lookup + hop-by-hop CAS reservation as request(), so the
  // decisions (and any mid-batch capacity race) are exactly what k
  // sequential calls would have produced; a request that hits a
  // saturated hop rolls back only its own partial reservation.
  // `hits[j]` is the j-th admitted request: its index into `requests` and
  // its route cell, kept for phase-2 registration. Populated lazily so a
  // batch that admits nothing — the common case under overload —
  // allocates nothing.
  std::vector<std::pair<std::size_t, std::uint32_t>> hits;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    AdmissionDecision& decision = results[i];
    decision = AdmissionDecision{};
    const traffic::Demand& d = requests[i];
    std::uint32_t cell = 0;
    if (!route_for(d.src, d.dst, d.class_index, cell, decision)) continue;
    if (!reserve_route(route_index_[cell], d.class_index, decision)) continue;
    hits.emplace_back(i, cell);
  }
  if (hits.empty()) return 0;

  // Phase 2 — register the admitted subset under one lock of the caller's
  // lane. Ids come off the lane sequence in admit order, exactly what
  // sequential request() calls would have drawn (rejected requests
  // consume no id).
  {
    Lane& lane = own_lane();
    std::lock_guard<std::mutex> lock(lane.mutex);
    for (const auto& [i, cell] : hits) {
      results[i].flow_id = ++lane.last_id;
      lane.flows.insert(FlowRecord{results[i].flow_id, cell});
    }
  }
  if (auto* recorder = telemetry::ArrivalRecorder::active())
    for (const auto& [i, cell] : hits)
      recorder->on_admit(results[i].flow_id,
                         static_cast<std::uint32_t>(requests[i].class_index));
  return hits.size();
}

bool ConcurrentAdmissionController::release(traffic::FlowId id) {
  ControllerTelemetry* const t = telemetry_;
  if (t == nullptr) return release_impl(id);
  const bool ok = release_impl(id);
  (ok ? t->releases : t->unknown_releases)->add();
  if (t->tracer != nullptr && t->tracer->should_sample()) {
    telemetry::TraceEvent ev;
    ev.kind = telemetry::TraceEventKind::kRelease;
    ev.flow_id = id;
    ev.reason = ok ? "" : "unknown-flow";
    t->tracer->record(ev);
  }
  return ok;
}

bool ConcurrentAdmissionController::release_impl(traffic::FlowId id) {
  Lane* lane = lane_of(id);
  if (lane == nullptr) return false;  // never issued here
  FlowRecord record;
  {
    std::lock_guard<std::mutex> lock(lane->mutex);
    if (!lane->flows.erase(id, record)) return false;  // unknown/double
  }
  if (auto* recorder = telemetry::ArrivalRecorder::active())
    recorder->on_release(id);
  unreserve(record.cell);
  return true;
}

std::size_t ConcurrentAdmissionController::release_batch(
    std::span<const traffic::FlowId> ids) {
  ControllerTelemetry* const t = telemetry_;
  std::size_t unknown = 0;
  const std::size_t released = release_batch_impl(ids, unknown);
  if (t != nullptr) {
    if (released != 0) t->releases->add(released);
    if (unknown != 0) t->unknown_releases->add(unknown);
  }
  return released;
}

std::size_t ConcurrentAdmissionController::release_batch_impl(
    std::span<const traffic::FlowId> ids, std::size_t& unknown) {
  // Extract records lane by lane (each lock taken at most once, only for
  // lanes the batch names), then return the reservations outside any lock.
  std::uint32_t named = 0;  // bit l: some id decodes to lane l
  for (const traffic::FlowId id : ids) {
    if (lane_of(id) == nullptr)
      ++unknown;
    else
      named |= 1u << (id >> kLaneShift);
  }
  std::vector<FlowRecord> records;
  records.reserve(ids.size());
  for (; named != 0; named &= named - 1) {
    const unsigned l = static_cast<unsigned>(std::countr_zero(named));
    std::lock_guard<std::mutex> lock(lanes_[l].mutex);
    for (const traffic::FlowId id : ids) {
      if ((id >> kLaneShift) != l) continue;
      FlowRecord record;
      if (lanes_[l].flows.erase(id, record))
        records.push_back(record);
      else
        ++unknown;
    }
  }
  if (auto* recorder = telemetry::ArrivalRecorder::active())
    for (const FlowRecord& record : records) recorder->on_release(record.id);
  for (const FlowRecord& record : records) unreserve(record.cell);
  return records.size();
}

std::size_t ConcurrentAdmissionController::active_flows() const {
  std::size_t total = 0;
  for (std::size_t l = 0; l < kLaneCount; ++l) {
    std::lock_guard<std::mutex> lock(lanes_[l].mutex);
    total += lanes_[l].flows.size();
  }
  return total;
}

double ConcurrentAdmissionController::class_utilization(
    net::ServerId server, std::size_t class_index) const {
  const traffic::ServiceClass& cls = classes_->at(class_index);
  if (!cls.realtime) return 0.0;
  // Denominator is the *live* share, so after an apply_shares() swap the
  // gauge reports against the budget admits are actually decided by.
  const double share = live_share_[class_index].load(std::memory_order_relaxed);
  if (share <= 0.0) return 0.0;
  const BitsPerSecond limit = share * graph_->server(server).capacity;
  return reserved_rate(server, class_index) / limit;
}

BitsPerSecond ConcurrentAdmissionController::reserved_rate(
    net::ServerId server, std::size_t class_index) const {
  return traffic::bps_from_units(reserved_units(server, class_index));
}

traffic::RateUnits ConcurrentAdmissionController::reserved_units(
    net::ServerId server, std::size_t class_index) const {
  if (class_index >= classes_->size() || server >= servers_)
    throw std::out_of_range("reserved_units: bad class or server");
  return slot(class_index, server).reserved.load(std::memory_order_relaxed);
}

traffic::RateUnits ConcurrentAdmissionController::limit_units(
    net::ServerId server, std::size_t class_index) const {
  if (class_index >= classes_->size() || server >= servers_)
    throw std::out_of_range("limit_units: bad class or server");
  return limit(class_index, server);
}

BitsPerSecond ConcurrentAdmissionController::peak_reserved_rate(
    net::ServerId server, std::size_t class_index) const {
  if (class_index >= classes_->size() || server >= servers_)
    throw std::out_of_range("peak_reserved_rate: bad class or server");
  return traffic::bps_from_units(
      slot(class_index, server).peak.load(std::memory_order_relaxed));
}

BudgetSwapReport ConcurrentAdmissionController::apply_shares(
    std::span<const ShareUpdate> updates) {
  UBAC_SPAN_ARG("admission.apply_shares", "admission", "updates",
                updates.size());
  std::lock_guard<std::mutex> lock(reconfig_mutex_);
  // Validate everything before touching any budget: a swap is all-or-
  // nothing with respect to bad input.
  for (const ShareUpdate& u : updates) {
    if (u.class_index >= classes_->size())
      throw std::invalid_argument("apply_shares: unknown class index");
    if (!(u.share >= 0.0 && u.share <= 1.0))
      throw std::invalid_argument("apply_shares: share outside [0, 1]");
  }

  BudgetSwapReport report;
  std::vector<std::size_t> shrunk;
  // Phase 1 — fence. Store every new budget first: from this point on new
  // admits are decided against the new limits (a shrunken slot transiently
  // holding reserved > limit reads as saturated, never as wrapped).
  for (const ShareUpdate& u : updates) {
    if (!classes_->at(u.class_index).realtime) continue;
    bool lowered = false;
    for (net::ServerId s = 0; s < servers_; ++s) {
      Slot& sl = slot(u.class_index, s);
      const RateFx next =
          traffic::quantize_budget_down(u.share * graph_->server(s).capacity);
      const RateFx prev = sl.limit.exchange(next, std::memory_order_relaxed);
      if (next > prev) {
        ++report.slots_raised;
      } else if (next < prev) {
        ++report.slots_lowered;
        lowered = true;
      }
    }
    live_share_[u.class_index].store(u.share, std::memory_order_relaxed);
    if (lowered) shrunk.push_back(u.class_index);
  }
  if (shrunk.empty()) return report;

  // Phase 2 — shed. Reverse priority order (class index = priority, 0
  // highest): best-effort/statistical classes give ground before
  // guaranteed ones.
  std::sort(shrunk.rbegin(), shrunk.rend());
  for (const std::size_t c : shrunk) shed_class(c, report);
  return report;
}

bool ConcurrentAdmissionController::any_over_budget(
    std::size_t class_index) const {
  for (net::ServerId s = 0; s < servers_; ++s) {
    const Slot& sl = slot(class_index, s);
    if (sl.reserved.load(std::memory_order_relaxed) >
        sl.limit.load(std::memory_order_relaxed))
      return true;
  }
  return false;
}

void ConcurrentAdmissionController::shed_class(std::size_t class_index,
                                               BudgetSwapReport& report) {
  const RateFx rho = rho_units_[class_index];
  if (rho == 0) return;
  ControllerTelemetry* const t = telemetry_;
  while (any_over_budget(class_index)) {
    // Collect the class's registered flows; shed newest first, so the
    // longest-lived reservations survive a shrink. Rotating the id puts
    // the lane-local sequence on top and the lane below it, so descending
    // order is "highest sequence, then highest lane".
    std::vector<std::pair<traffic::FlowId, std::uint32_t>> flows;
    for (std::size_t l = 0; l < kLaneCount; ++l) {
      std::lock_guard<std::mutex> lock(lanes_[l].mutex);
      lanes_[l].flows.for_each([&](const FlowRecord& record) {
        if (class_of(record.cell) == class_index)
          flows.emplace_back(record.id, record.cell);
      });
    }
    std::sort(flows.begin(), flows.end(), [](const auto& a, const auto& b) {
      return std::rotr(a.first, kLaneShift) > std::rotr(b.first, kLaneShift);
    });
    bool progressed = false;
    for (const auto& [id, cell] : flows) {
      const RouteRef& route = route_index_[cell];
      bool crosses = false;
      for (std::uint32_t hop = 0; hop < route.len; ++hop) {
        const Slot& sl = slots_[route.slots[hop]];
        if (sl.reserved.load(std::memory_order_relaxed) >
            sl.limit.load(std::memory_order_relaxed)) {
          crosses = true;
          break;
        }
      }
      if (!crosses) continue;  // sheds nothing that isn't over-committed
      // Normal release path: a racing external release of the same id
      // makes exactly one of the two succeed.
      if (!release_impl(id)) continue;
      progressed = true;
      ++report.shed_flows;
      report.shed_ids.push_back(id);
      if (t != nullptr) {
        t->releases->add();
        if (t->tracer != nullptr && t->tracer->should_sample()) {
          telemetry::TraceEvent ev;
          ev.kind = telemetry::TraceEventKind::kRelease;
          ev.flow_id = id;
          ev.class_index = static_cast<std::uint32_t>(class_index);
          ev.reason = "reconfig-shed";
          t->tracer->record(ev);
        }
      }
      if (!any_over_budget(class_index)) return;
    }
    // No registered flow crosses an over-committed hop: the remainder is
    // owned by admits racing the fence (they register right after their
    // CAS). A re-scan only helps once they appear; without progress this
    // pass, leave the transient to the next swap/scan — admits against
    // those slots stay fenced out meanwhile.
    if (!progressed) return;
  }
}

std::optional<FlowView> ConcurrentAdmissionController::find_flow(
    traffic::FlowId id) const {
  Lane* lane = lane_of(id);
  if (lane == nullptr) return std::nullopt;
  std::uint32_t cell = 0;
  {
    std::lock_guard<std::mutex> lock(lane->mutex);
    const FlowRecord* record = lane->flows.find(id);
    if (record == nullptr) return std::nullopt;
    cell = record->cell;
  }
  const std::uint32_t n = index_nodes_;
  return FlowView{id, class_of(cell), (cell / n) % n, cell % n,
                  route_index_[cell].path};
}

}  // namespace ubac::admission
