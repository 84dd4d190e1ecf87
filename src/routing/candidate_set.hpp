#pragma once

/// \file candidate_set.hpp
/// \brief Candidate routes of a demand list, mapped to link servers once.
///
/// The Section 5.2 heuristic scores each demand's k shortest paths. They
/// depend only on the topology, so the Section 5.3 search over alpha
/// builds them once — Yen's algorithm plus the link-server mapping — and
/// every probe reads them in place from two flat arenas. The search builds
/// them on its helper threads too, before it speculates on them.

#include <cstddef>
#include <span>
#include <vector>

#include "routing/multiclass_selection.hpp"
#include "routing/route_selection.hpp"

namespace ubac::util {
class ThreadPool;
}

namespace ubac::routing::detail {

class CandidateSet {
 public:
  using Cache = std::vector<std::vector<net::NodePath>>;

  /// Candidates of every demand: the rows of `cache` (aligned with
  /// `demands`) when given, else the `k` shortest paths of each demand.
  /// With a `pool` (idle, and idle again on return) the calling thread and
  /// the pool's workers build the rows in chunks, and the chunks are
  /// joined in demand order, so the arenas are the serial build's. A demand
  /// that throws is rethrown here: the first one in demand order.
  CandidateSet(const net::ServerGraph& graph,
               const std::vector<traffic::Demand>& demands, std::size_t k,
               const Cache* cache, util::ThreadPool* pool = nullptr);

  /// Same demands, same candidates, same arenas.
  bool operator==(const CandidateSet&) const = default;

  /// Number of candidates of demand `d`.
  std::size_t count(std::size_t d) const { return first_[d + 1] - first_[d]; }

  /// Candidate `c` of demand `d`, as routers and as link servers.
  std::span<const net::NodeId> nodes(std::size_t d, std::size_t c) const {
    const std::size_t j = first_[d] + c;
    return {nodes_.data() + node_begin_[j],
            node_begin_[j + 1] - node_begin_[j]};
  }
  std::span<const net::ServerId> servers(std::size_t d, std::size_t c) const {
    const std::size_t j = first_[d] + c;
    return {servers_.data() + server_begin_[j],
            server_begin_[j + 1] - server_begin_[j]};
  }

 private:
  CandidateSet() = default;
  /// Append the rows of demands [begin, end).
  void add_rows(const net::ServerGraph& graph,
                const std::vector<traffic::Demand>& demands, std::size_t k,
                const Cache* cache, std::size_t begin, std::size_t end);
  /// Append the rows of `rows` after this set's.
  void append(const CandidateSet& rows);

  // Offsets: first candidate of each demand, and where each candidate
  // starts in the two arenas; each vector ends with its end offset.
  std::vector<std::size_t> first_{0};
  std::vector<std::size_t> node_begin_{0};
  std::vector<std::size_t> server_begin_{0};
  std::vector<net::NodeId> nodes_;
  std::vector<net::ServerId> servers_;
};

/// The Section 5.2 heuristic over a prebuilt candidate set aligned with
/// `demands` (options.candidates and candidates_per_pair are not read).
RouteSelectionResult select_routes_heuristic(
    const net::ServerGraph& graph, double alpha,
    const traffic::LeakyBucket& bucket, Seconds deadline,
    const std::vector<traffic::Demand>& demands,
    const HeuristicOptions& options, const CandidateSet& candidates);

/// The multi-class heuristic over a prebuilt candidate set, likewise.
MulticlassSelectionResult select_routes_multiclass(
    const net::ServerGraph& graph, const traffic::ClassSet& classes,
    const std::vector<traffic::Demand>& demands,
    const HeuristicOptions& options, const CandidateSet& candidates);

}  // namespace ubac::routing::detail
