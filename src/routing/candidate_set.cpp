#include "routing/candidate_set.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <stdexcept>

#include "net/ksp.hpp"
#include "util/thread_pool.hpp"

namespace ubac::routing::detail {

namespace {

/// Demands per chunk of a parallel build: 870 demands make ~55 chunks,
/// enough to even out Yen's uneven cost across three threads.
constexpr std::size_t kRowsPerChunk = 16;

}  // namespace

CandidateSet::CandidateSet(const net::ServerGraph& graph,
                           const std::vector<traffic::Demand>& demands,
                           std::size_t k, const Cache* cache,
                           util::ThreadPool* pool) {
  if (k == 0)
    throw std::invalid_argument("heuristic: candidates_per_pair must be >= 1");
  if (cache != nullptr && cache->size() != demands.size())
    throw std::invalid_argument(
        "heuristic: candidate cache misaligned with demands");
  first_.reserve(demands.size() + 1);
  if (pool == nullptr) {
    add_rows(graph, demands, k, cache, 0, demands.size());
    return;
  }

  // Workers and the calling thread claim chunks until none is left. Pool
  // tasks must not throw, so each chunk keeps its own exception.
  const std::size_t chunks =
      (demands.size() + kRowsPerChunk - 1) / kRowsPerChunk;
  const std::unique_ptr<CandidateSet[]> parts(new CandidateSet[chunks]);
  std::vector<std::exception_ptr> errors(chunks);
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (std::size_t c; (c = next.fetch_add(1, std::memory_order_relaxed)) <
                        chunks;) {
      try {
        parts[c].add_rows(graph, demands, k, cache, c * kRowsPerChunk,
                          std::min(demands.size(), (c + 1) * kRowsPerChunk));
      } catch (...) {
        errors[c] = std::current_exception();
      }
    }
  };
  for (std::size_t t = 0; t < pool->thread_count(); ++t) pool->submit(work);
  work();
  pool->wait_idle();

  for (const std::exception_ptr& error : errors)
    if (error) std::rethrow_exception(error);
  for (std::size_t c = 0; c < chunks; ++c) append(parts[c]);
}

void CandidateSet::add_rows(const net::ServerGraph& graph,
                            const std::vector<traffic::Demand>& demands,
                            std::size_t k, const Cache* cache,
                            std::size_t begin, std::size_t end) {
  const auto add_row = [&](const std::vector<net::NodePath>& paths) {
    for (const net::NodePath& path : paths) {
      const net::ServerPath servers = graph.map_path(path);
      nodes_.insert(nodes_.end(), path.begin(), path.end());
      servers_.insert(servers_.end(), servers.begin(), servers.end());
      node_begin_.push_back(nodes_.size());
      server_begin_.push_back(servers_.size());
    }
    first_.push_back(node_begin_.size() - 1);
  };
  for (std::size_t d = begin; d < end; ++d) {
    if (cache != nullptr)
      add_row((*cache)[d]);
    else
      add_row(net::k_shortest_paths(graph.topology(), demands[d].src,
                                    demands[d].dst, k));
  }
}

void CandidateSet::append(const CandidateSet& rows) {
  const std::size_t candidates = node_begin_.size() - 1;
  const std::size_t node_base = nodes_.size();
  const std::size_t server_base = servers_.size();
  for (std::size_t i = 1; i < rows.first_.size(); ++i)
    first_.push_back(candidates + rows.first_[i]);
  for (std::size_t i = 1; i < rows.node_begin_.size(); ++i) {
    node_begin_.push_back(node_base + rows.node_begin_[i]);
    server_begin_.push_back(server_base + rows.server_begin_[i]);
  }
  nodes_.insert(nodes_.end(), rows.nodes_.begin(), rows.nodes_.end());
  servers_.insert(servers_.end(), rows.servers_.begin(), rows.servers_.end());
}

}  // namespace ubac::routing::detail
