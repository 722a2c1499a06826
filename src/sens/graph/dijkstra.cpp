#include "sens/graph/dijkstra.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "sens/obs/obs.hpp"
#include "sens/support/parallel.hpp"

namespace sens {

namespace {

constexpr std::uint32_t kNoTarget = 0xffffffffu;

/// Shared engine: settle vertices from `source` until the heap drains or
/// `target` is settled. `w[arc]` is the weight of the arc with index `arc`,
/// so the relaxation loop is a flat array read.
void dijkstra_run(const CsrGraph& g, std::uint32_t source, const double* w, DijkstraScratch& s,
                  std::uint32_t target = kNoTarget) {
  // Work tallies live in plain stack locals and flush to the obs registry
  // once per exit path — the hot loop never touches shared state, and the
  // flush is a call, not a destructor: a non-trivial destructor here makes
  // the compiler thread EH cleanups through the relaxation loop, which
  // costs ~5% wall clock on Dijkstra-bound benches. uint32 tallies cannot
  // overflow (pops <= n, relaxed <= m, both < 2^32 by CSR's arc indexing)
  // and keep register pressure down. Per-source work is a pure function of
  // (graph, source, target), so totals are thread-invariant (§2.10).
  SENS_OBS(std::uint32_t obs_pops = 0; std::uint32_t obs_relaxed = 0;)
  SENS_OBS(const auto obs_flush = [&]() noexcept {
    obs::add(obs::Counter::kDijkstraRuns, 1);
    obs::add(obs::Counter::kDijkstraHeapPops, obs_pops);
    obs::add(obs::Counter::kDijkstraRelaxedArcs, obs_relaxed);
  };)
  s.prepare(g.num_vertices());
  s.push(source, 0.0, source);
  while (!s.heap.empty()) {
    const std::uint32_t u = s.pop_min();
    if (u == target) {
      SENS_OBS(++obs_pops; obs_flush();)
      return;
    }
    const double du = s.dist[u];
    const std::uint32_t begin = g.arc_begin(u);
    const std::uint32_t end = g.arc_end(u);
    SENS_OBS(++obs_pops; obs_relaxed += end - begin;)
    for (std::uint32_t a = begin; a < end; ++a) {
      const std::uint32_t v = g.arc_target(a);
      const double nc = du + w[a];
      if (!s.reached(v)) {
        s.push(v, nc, u);
      } else if (nc < s.dist[v] && s.pos[v] != DijkstraScratch::kSettled) {
        s.decrease(v, nc, u);
      }
    }
  }
  SENS_OBS(obs_flush();)
}

/// Copy a finished run's costs into a caller buffer (unreached = kInfCost).
void export_costs(const DijkstraScratch& s, std::span<double> out) {
  for (std::size_t v = 0; v < out.size(); ++v) {
    out[v] = s.stamp[v] == s.epoch ? s.dist[v] : kInfCost;
  }
}

/// Walk the parent chain of a finished run into `path` (cleared; empty when
/// `target` was not reached; includes both endpoints).
void export_path(const DijkstraScratch& s, std::uint32_t source, std::uint32_t target,
                 std::vector<std::uint32_t>& path) {
  path.clear();
  if (!s.reached(target)) return;
  for (std::uint32_t v = target;; v = s.parent[v]) {
    path.push_back(v);
    if (v == source) break;
  }
  std::reverse(path.begin(), path.end());
}

}  // namespace

void dijkstra_costs_into(const CsrGraph& g, std::uint32_t source,
                         std::span<const double> arc_weights, DijkstraScratch& scratch,
                         std::span<double> out) {
  if (out.size() != g.num_vertices()) {
    throw std::invalid_argument("dijkstra_costs_into: out.size() != num_vertices()");
  }
  check_vertex_id(g, source, "dijkstra_costs_into");
  dijkstra_run(g, source, arc_weights.data(), scratch);
  export_costs(scratch, out);
}

double dijkstra_cost(const CsrGraph& g, std::uint32_t source, std::uint32_t target,
                     std::span<const double> arc_weights, DijkstraScratch& scratch) {
  check_vertex_id(g, source, "dijkstra_cost");
  check_vertex_id(g, target, "dijkstra_cost");
  dijkstra_run(g, source, arc_weights.data(), scratch, target);
  return scratch.reached(target) ? scratch.dist[target] : kInfCost;
}

bool dijkstra_path_into(const CsrGraph& g, std::uint32_t source, std::uint32_t target,
                        std::span<const double> arc_weights, DijkstraScratch& scratch,
                        std::vector<std::uint32_t>& path) {
  check_vertex_id(g, source, "dijkstra_path_into");
  check_vertex_id(g, target, "dijkstra_path_into");
  dijkstra_run(g, source, arc_weights.data(), scratch, target);
  export_path(scratch, source, target, path);
  return !path.empty();
}

void check_arc_weights(const CsrGraph& g, std::span<const double> arc_weights, const char* who) {
  if (arc_weights.size() != g.num_arcs()) {
    throw std::invalid_argument(std::string(who) + ": arc_weights.size() != num_arcs()");
  }
}

void dijkstra_many_into(const CsrGraph& g, std::span<const std::uint32_t> sources,
                        std::span<const double> arc_weights, std::span<double> out) {
  const std::size_t n = g.num_vertices();
  check_arc_weights(g, arc_weights, "dijkstra_many_into");
  if (out.size() != sources.size() * n) {
    throw std::invalid_argument("dijkstra_many_into: out.size() != sources.size() * n");
  }
  for (const std::uint32_t s : sources) check_vertex_id(g, s, "dijkstra_many_into");
  // One warm scratch per participant — chunks frequently hold a single
  // source, so a per-chunk scratch would pay the O(n) allocation per
  // source, and a thread_local would retain one n-sized allocation per
  // worker thread for the process lifetime. Rows depend only on (graph,
  // weights, source), so scratch reuse keeps the output bit-identical at
  // any thread count (DESIGN.md §2.4, §2.6).
  parallel_for_chunks<DijkstraScratch>(
      sources.size(), [&](DijkstraScratch& scratch, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          dijkstra_costs_into(g, sources[i], arc_weights, scratch, out.subspan(i * n, n));
        }
      });
}

}  // namespace sens
