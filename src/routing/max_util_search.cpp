#include "routing/max_util_search.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include "net/shortest_path.hpp"
#include "routing/candidate_set.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace ubac::routing {

namespace {

/// The search's helper threads: two when the host has at least three
/// hardware threads, else none.
int default_helpers() {
  return std::thread::hardware_concurrency() >= 3 ? 2 : 0;
}

/// A pool of `helpers` threads (at most 2), or none.
std::unique_ptr<util::ThreadPool> helper_pool(int helpers) {
  if (helpers <= 0) return nullptr;
  return std::make_unique<util::ThreadPool>(
      static_cast<std::size_t>(std::min(helpers, 2)));
}

/// Speculative selector runs for the bisection, on the search's helper
/// pool (nullptr: none; the pool runs nothing else meanwhile). take()
/// hands the search the result at an alpha: a helper's once it has
/// started that run, else a run on the calling thread. prune() cancels the
/// runs the search can no longer reach; nothing reads their results or
/// exceptions. Destruction cancels every run, then waits for the helpers
/// to let go of them.
class Speculation {
 public:
  Speculation(const RouteSelector& selector, util::ThreadPool* pool)
      : selector_(selector), pool_(pool) {}

  ~Speculation() {
    prune(0.0, 0.0);
    if (pool_ != nullptr) pool_->wait_idle();
  }

  Speculation(const Speculation&) = delete;
  Speculation& operator=(const Speculation&) = delete;

  /// The selector's result at `alpha`, or its exception. Unless a helper
  /// has already finished it, helpers first start on `next`: alphas the
  /// search may probe after this one, most likely first.
  RouteSelectionResult take(double alpha,
                            std::initializer_list<std::optional<double>> next) {
    std::unique_lock lock(mu_);
    std::shared_ptr<Run> run;
    if (const auto it = find(alpha); it != runs_.end()) {
      run = *it;
      runs_.erase(it);
    }
    if (!run || !run->done)
      for (const std::optional<double> a : next) launch(a);
    if (!run || !run->started) {
      if (run) run->started = true;  // claimed: its helper task skips it
      lock.unlock();
      return selector_(alpha);
    }
    done_.wait(lock, [&] { return run->done; });
    if (run->error) std::rethrow_exception(run->error);
    return std::move(run->result);
  }

  /// Cancel every run at an alpha outside the open interval (lo, hi).
  void prune(double lo, double hi) {
    const std::lock_guard lock(mu_);
    std::erase_if(runs_, [&](const std::shared_ptr<Run>& run) {
      if (lo < run->alpha && run->alpha < hi) return false;
      run->stop = true;
      return true;
    });
  }

 private:
  struct Run {
    explicit Run(double a) : alpha(a) {}
    const double alpha;
    std::atomic<bool> stop{false};
    // Guarded by mu_.
    bool started = false;
    bool done = false;
    RouteSelectionResult result;
    std::exception_ptr error;
  };

  std::vector<std::shared_ptr<Run>>::iterator find(double alpha) {
    return std::find_if(runs_.begin(), runs_.end(),
                        [&](const auto& run) { return run->alpha == alpha; });
  }

  /// Queue a helper run at `alpha` (mu_ held); nothing without helpers or
  /// an alpha, or when a run at `alpha` exists.
  void launch(std::optional<double> alpha) {
    if (!pool_ || !alpha || find(*alpha) != runs_.end()) return;
    auto run = std::make_shared<Run>(*alpha);
    runs_.push_back(run);
    pool_->submit([this, run] {
      {
        const std::lock_guard lock(mu_);
        if (run->started || run->stop) return;
        run->started = true;
      }
      RouteSelectionResult result;
      std::exception_ptr error;
      detail::set_stop_flag(&run->stop);
      try {
        result = selector_(run->alpha);
      } catch (...) {
        error = std::current_exception();
      }
      detail::set_stop_flag(nullptr);
      const std::lock_guard lock(mu_);
      run->result = std::move(result);
      run->error = error;
      run->done = true;
      done_.notify_all();
    });
  }

  const RouteSelector& selector_;
  util::ThreadPool* const pool_;
  std::mutex mu_;
  std::condition_variable done_;  ///< a helper finished a run
  std::vector<std::shared_ptr<Run>> runs_;  ///< launched, not taken or pruned
};

/// The bisection, speculating on `pool` (nullptr: sequential).
MaxUtilResult search(double fan_in, int diameter,
                     const traffic::LeakyBucket& bucket, Seconds deadline,
                     const RouteSelector& selector,
                     const MaxUtilOptions& options,
                     const RouteReverifier& reverifier,
                     util::ThreadPool* pool) {
  if (options.resolution <= 0.0)
    throw std::invalid_argument("maximize_utilization: bad resolution");

  telemetry::Counter* probes_metric = nullptr;
  telemetry::Counter* reverify_metric = nullptr;
  if (options.metrics != nullptr) {
    probes_metric = &options.metrics->counter(
        "ubac_maxutil_probes_total",
        "Route-selector invocations made by the max-utilization search");
    reverify_metric = &options.metrics->counter(
        "ubac_maxutil_reverify_hits_total",
        "Selector runs skipped because the last feasible route set "
        "re-verified at the probed alpha");
  }

  MaxUtilResult result;
  result.theorem4_lower =
      analysis::alpha_lower_bound(fan_in, diameter, bucket, deadline);
  result.theorem4_upper =
      analysis::alpha_upper_bound(fan_in, diameter, bucket, deadline);

  double lo = options.search_lo >= 0.0 ? options.search_lo
                                       : result.theorem4_lower;
  double hi = options.search_hi >= 0.0 ? options.search_hi
                                       : result.theorem4_upper;
  if (lo > hi) throw std::invalid_argument("maximize_utilization: lo > hi");

  // The midpoint the search probes next on [low, high], if it goes on.
  const auto next_mid = [&](double low,
                            double high) -> std::optional<double> {
    if (!(high - low > options.resolution)) return std::nullopt;
    const double mid = 0.5 * (low + high);
    if (mid <= 0.0) return std::nullopt;
    return mid;
  };

  // Speculation: while the selector runs at `alpha`, helpers start on the
  // alphas the search may probe next. The search still consumes every
  // step in the sequential order, so its result is the sequential one;
  // prune() drops the runs an outcome made unreachable.
  Speculation speculation(selector, pool);
  auto probe = [&](double alpha,
                   std::initializer_list<std::optional<double>> next) {
    UBAC_SPAN_ARG("maxutil.probe", "routing", "alpha", alpha);
    ++result.probes;
    if (probes_metric != nullptr) probes_metric->add();
    RouteSelectionResult r = speculation.take(alpha, next);
    UBAC_LOG_DEBUG << "max-util probe alpha=" << alpha
                   << " -> " << (r.success ? "feasible" : "infeasible");
    return r;
  };

  // Fast path for the upward half-steps: the route set committed at
  // alpha_lo is a feasibility *witness* at alpha_mid whenever it
  // re-verifies there, so the (much more expensive) selector run can be
  // skipped. Warm-starting that re-verification from the alpha_lo delays
  // is sound because Z grows pointwise in alpha (fixed_point.hpp). When
  // the witness fails the selector still gets its full chance — it may
  // route differently at the higher alpha — so the search result can only
  // improve, never degrade.
  auto try_reuse = [&](double alpha) -> bool {
    if (!options.reuse_feasible_routes || !reverifier || !result.any_feasible)
      return false;
    UBAC_SPAN_ARG("maxutil.reverify", "routing", "alpha", alpha);
    analysis::DelaySolution sol = reverifier(alpha, result.best);
    if (!sol.safe()) return false;
    ++result.reverify_hits;
    if (reverify_metric != nullptr) reverify_metric->add();
    UBAC_LOG_DEBUG << "max-util probe alpha=" << alpha
                   << " -> feasible (reused route set)";
    result.best.solution = std::move(sol);
    return true;
  };

  // The Theorem 4 lower bound should always be feasible for selectors that
  // keep routes within the diameter; verify rather than assume, and fall
  // back to searching below it if needed. As it rarely fails, its helpers
  // take the first midpoint and the step after it on the feasible side,
  // which is also the next step when the first midpoint is a reuse hit.
  const std::optional<double> first_mid = next_mid(lo, hi);
  RouteSelectionResult at_lo =
      probe(lo, {first_mid,
                 first_mid ? next_mid(*first_mid, hi) : std::nullopt});
  if (!at_lo.success) {
    UBAC_LOG_WARN << "selector infeasible at the Theorem 4 lower bound "
                  << lo << "; searching below it";
    hi = lo;
    lo = 0.0;
    result.any_feasible = false;
  } else {
    result.any_feasible = true;
    result.max_alpha = lo;
    result.best = std::move(at_lo);
  }
  speculation.prune(lo, hi);

  while (const std::optional<double> mid = next_mid(lo, hi)) {
    if (try_reuse(*mid)) {
      lo = *mid;
      result.max_alpha = *mid;
    } else {
      RouteSelectionResult r =
          probe(*mid, {next_mid(*mid, hi), next_mid(lo, *mid)});
      if (r.success) {
        lo = *mid;
        result.any_feasible = true;
        result.max_alpha = *mid;
        result.best = std::move(r);
      } else {
        hi = *mid;
      }
    }
    speculation.prune(lo, hi);
  }
  return result;
}

double uniform_fan_in(const net::ServerGraph& graph) {
  if (graph.size() == 0)
    throw std::invalid_argument("maximize_utilization: empty graph");
  return graph.server(0).fan_in;
}

/// Warm-started re-verification of a previously committed route set at a
/// higher alpha (sound lower bound: Z grows pointwise in alpha).
RouteReverifier make_reverifier(const net::ServerGraph& graph,
                                const traffic::LeakyBucket& bucket,
                                Seconds deadline,
                                const analysis::FixedPointOptions& fixed_point) {
  return [&graph, bucket, deadline, fixed_point](
             double alpha, const RouteSelectionResult& last) {
    const std::vector<Seconds>* warm =
        last.solution.safe() ? &last.solution.server_delay : nullptr;
    return analysis::solve_two_class(graph, alpha, bucket, deadline,
                                     last.server_routes, fixed_point, warm);
  };
}

}  // namespace

MaxUtilResult maximize_utilization(double fan_in, int diameter,
                                   const traffic::LeakyBucket& bucket,
                                   Seconds deadline,
                                   const RouteSelector& selector,
                                   const MaxUtilOptions& options,
                                   const RouteReverifier& reverifier) {
  return detail::maximize_utilization(fan_in, diameter, bucket, deadline,
                                      selector, options, reverifier,
                                      default_helpers());
}

MaxUtilResult detail::maximize_utilization(double fan_in, int diameter,
                                           const traffic::LeakyBucket& bucket,
                                           Seconds deadline,
                                           const RouteSelector& selector,
                                           const MaxUtilOptions& options,
                                           const RouteReverifier& reverifier,
                                           int helpers) {
  const auto pool = helper_pool(helpers);
  return search(fan_in, diameter, bucket, deadline, selector, options,
                reverifier, pool.get());
}

MaxUtilResult maximize_utilization_heuristic(
    const net::ServerGraph& graph, const traffic::LeakyBucket& bucket,
    Seconds deadline, const std::vector<traffic::Demand>& demands,
    const HeuristicOptions& heuristic, const MaxUtilOptions& options) {
  const int l = net::diameter(graph.topology());
  // Candidate routes depend only on the topology, not on alpha: build them
  // and their link-server mapping once, on the caller and the helpers the
  // search speculates on next, and share them across every probe of the
  // binary search.
  const auto pool = helper_pool(default_helpers());
  const detail::CandidateSet candidates(graph, demands,
                                        heuristic.candidates_per_pair,
                                        heuristic.candidates, pool.get());
  return search(
      uniform_fan_in(graph), l, bucket, deadline,
      [&](double alpha) {
        return detail::select_routes_heuristic(graph, alpha, bucket, deadline,
                                               demands, heuristic, candidates);
      },
      options,
      make_reverifier(graph, bucket, deadline, heuristic.fixed_point),
      pool.get());
}

MaxUtilResult maximize_utilization_shortest_path(
    const net::ServerGraph& graph, const traffic::LeakyBucket& bucket,
    Seconds deadline, const std::vector<traffic::Demand>& demands,
    const analysis::FixedPointOptions& fixed_point,
    const MaxUtilOptions& options) {
  const int l = net::diameter(graph.topology());
  return maximize_utilization(
      uniform_fan_in(graph), l, bucket, deadline,
      [&](double alpha) {
        return select_routes_shortest_path(graph, alpha, bucket, deadline,
                                           demands, fixed_point);
      },
      options, make_reverifier(graph, bucket, deadline, fixed_point));
}

}  // namespace ubac::routing
