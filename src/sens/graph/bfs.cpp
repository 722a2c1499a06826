#include "sens/graph/bfs.hpp"

#include <stdexcept>

#include "sens/obs/obs.hpp"
#include "sens/support/parallel.hpp"

namespace sens {

namespace {

constexpr std::uint32_t kNoTarget = 0xffffffffu;

/// Shared engine: label vertices outward from `source`; stops at the
/// discovery of `target` (its distance/parent are final at discovery).
/// Returns true when the target was reached.
bool bfs_run(const CsrGraph& g, std::uint32_t source, BfsScratch& s,
             std::uint32_t target = kNoTarget) {
  // Stack-local tally, flushed once per run on every exit path; per-source
  // visit counts are pure functions of (graph, source, target), so the
  // registry totals are thread-invariant (DESIGN.md §2.10).
  SENS_OBS(struct ObsTally {
    std::uint64_t visits = 0;
    ~ObsTally() {
      obs::add(obs::Counter::kBfsRuns, 1);
      obs::add(obs::Counter::kBfsVisits, visits);
    }
  } obs_tally;)
  s.prepare(g.num_vertices());
  s.dist[source] = 0;
  s.parent[source] = source;
  s.stamp[source] = s.epoch;
  SENS_OBS(++obs_tally.visits;)
  if (source == target) return true;
  s.queue.push_back(source);
  std::size_t head = 0;
  while (head < s.queue.size()) {
    const std::uint32_t u = s.queue[head++];
    const std::uint32_t du = s.dist[u];
    for (const std::uint32_t v : g.neighbors(u)) {
      if (s.reached(v)) continue;
      s.dist[v] = du + 1;
      s.parent[v] = u;
      s.stamp[v] = s.epoch;
      SENS_OBS(++obs_tally.visits;)
      if (v == target) return true;
      s.queue.push_back(v);
    }
  }
  return false;
}

}  // namespace

void bfs_distances_into(const CsrGraph& g, std::uint32_t source, BfsScratch& scratch,
                        std::span<std::uint32_t> out) {
  if (out.size() != g.num_vertices()) {
    throw std::invalid_argument("bfs_distances_into: out.size() != num_vertices()");
  }
  check_vertex_id(g, source, "bfs_distances_into");
  bfs_run(g, source, scratch);
  for (std::size_t v = 0; v < out.size(); ++v) {
    out[v] = scratch.stamp[v] == scratch.epoch ? scratch.dist[v] : kUnreachable;
  }
}

bool bfs_path_into(const CsrGraph& g, std::uint32_t source, std::uint32_t target,
                   BfsScratch& scratch, std::vector<std::uint32_t>& path) {
  check_vertex_id(g, source, "bfs_path_into");
  check_vertex_id(g, target, "bfs_path_into");
  path.clear();
  if (!bfs_run(g, source, scratch, target)) return false;
  for (std::uint32_t v = target;; v = scratch.parent[v]) {
    path.push_back(v);
    if (v == source) break;
  }
  std::reverse(path.begin(), path.end());
  return true;
}

void bfs_many_into(const CsrGraph& g, std::span<const std::uint32_t> sources,
                   std::span<std::uint32_t> out) {
  const std::size_t n = g.num_vertices();
  if (out.size() != sources.size() * n) {
    throw std::invalid_argument("bfs_many_into: out.size() != sources.size() * n");
  }
  for (const std::uint32_t s : sources) check_vertex_id(g, s, "bfs_many_into");
  // Per-participant scratch for the same reason as dijkstra_many_into:
  // chunks often hold one source, rows depend only on (graph, source), and
  // the scratch dies with this call so no per-thread allocation outlives it
  // (DESIGN.md §2.4, §2.6).
  parallel_for_chunks<BfsScratch>(
      sources.size(), [&](BfsScratch& scratch, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          bfs_distances_into(g, sources[i], scratch, out.subspan(i * n, n));
        }
      });
}

}  // namespace sens
