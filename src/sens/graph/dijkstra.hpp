// Dijkstra shortest paths with arbitrary non-negative edge weights.
//
// The power-efficiency experiments (Li-Wan-Wang comparison, E12) need
// shortest paths under Euclidean length and under the radio power metric
// w(u,v) = d(u,v)^beta, beta in [2, 5], over the same CSR graph. Weights
// are data (DESIGN.md §2.4): a precomputed per-arc array aligned with the
// CSR adjacency (`CsrGraph::arc_weights`), so the inner loop is a flat
// array read and one array serves every source of a batch.
//
// Each job has one entry point, and every query is allocation-free: the
// caller owns a `DijkstraScratch` whose distance/heap arrays are
// timestamp-versioned, so consecutive sources skip the O(n) clear, and the
// 4-ary indexed heap decrease-keys in place instead of enqueueing stale
// entries. The batched `dijkstra_many_into` chunk-parallelizes over
// sources; every source's row is computed independently, so the output is
// bit-identical at any thread count (§2.4).
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "sens/graph/csr.hpp"

namespace sens {

inline constexpr double kInfCost = std::numeric_limits<double>::infinity();

/// Caller-owned working memory for Dijkstra runs. A vertex's entries are
/// valid only while `stamp[v] == epoch`, so `prepare()` is O(1): bumping
/// the epoch invalidates the previous source's state without touching the
/// arrays (a full clear happens only on resize and on the 2^32-epoch
/// wrap). Contents are opaque to callers and clobbered by every run; never
/// share one scratch between threads (DESIGN.md §2.4).
struct DijkstraScratch {
  static constexpr std::uint32_t kSettled = 0xffffffffu;

  std::vector<double> dist;           ///< tentative cost (heap key), valid when stamped
  std::vector<std::uint32_t> parent;  ///< predecessor on the best path found
  std::vector<std::uint32_t> pos;     ///< heap position, or kSettled after pop
  std::vector<std::uint32_t> stamp;   ///< per-vertex epoch mark
  std::vector<std::uint32_t> heap;    ///< 4-ary min-heap of vertex ids, keyed by dist
  std::uint32_t epoch = 0;
  /// Path cost of the goal-directed search (`LandmarkOracle::exact_cost`),
  /// whose heap orders `dist` by A* key instead. Plain Dijkstra never
  /// touches it; the search sizes it on first use.
  std::vector<double> path_cost;

  /// Start a new run over a graph with n vertices.
  void prepare(std::size_t n) {
    if (stamp.size() != n) {
      dist.assign(n, 0.0);
      parent.assign(n, 0);
      pos.assign(n, 0);
      stamp.assign(n, 0);
      epoch = 0;
    }
    if (++epoch == 0) {  // epoch wrapped: hard reset once per 2^32 runs
      std::fill(stamp.begin(), stamp.end(), 0u);
      epoch = 1;
    }
    heap.clear();
  }

  [[nodiscard]] bool reached(std::uint32_t v) const { return stamp[v] == epoch; }

  void push(std::uint32_t v, double cost, std::uint32_t from) {
    dist[v] = cost;
    parent[v] = from;
    stamp[v] = epoch;
    pos[v] = static_cast<std::uint32_t>(heap.size());
    heap.push_back(v);
    sift_up(static_cast<std::uint32_t>(heap.size()) - 1);
  }

  void decrease(std::uint32_t v, double cost, std::uint32_t from) {
    dist[v] = cost;
    parent[v] = from;
    sift_up(pos[v]);
  }

  std::uint32_t pop_min() {
    const std::uint32_t top = heap.front();
    const std::uint32_t last = heap.back();
    heap.pop_back();
    if (!heap.empty()) {
      heap[0] = last;
      pos[last] = 0;
      sift_down(0);
    }
    pos[top] = kSettled;
    return top;
  }

 private:
  void sift_up(std::uint32_t i) {
    const std::uint32_t v = heap[i];
    const double key = dist[v];
    while (i > 0) {
      const std::uint32_t p = (i - 1) / 4;
      if (dist[heap[p]] <= key) break;
      heap[i] = heap[p];
      pos[heap[i]] = i;
      i = p;
    }
    heap[i] = v;
    pos[v] = i;
  }

  void sift_down(std::uint32_t i) {
    const auto size = static_cast<std::uint32_t>(heap.size());
    const std::uint32_t v = heap[i];
    const double key = dist[v];
    for (;;) {
      const std::uint32_t first = 4 * i + 1;
      if (first >= size) break;
      std::uint32_t best = first;
      double best_key = dist[heap[first]];
      const std::uint32_t end = first + 4 < size ? first + 4 : size;
      for (std::uint32_t c = first + 1; c < end; ++c) {
        const double ck = dist[heap[c]];
        if (ck < best_key) {
          best = c;
          best_key = ck;
        }
      }
      if (best_key >= key) break;
      heap[i] = heap[best];
      pos[heap[i]] = i;
      i = best;
    }
    heap[i] = v;
    pos[v] = i;
  }
};

// Every entry point throws std::out_of_range, before any work, when
// `source` (or `target`) is >= the vertex count: the id would index past
// every per-vertex array of the scratch.

/// Costs from `source` to all vertices, written into `out` (size n, else
/// std::invalid_argument); unreachable vertices get kInfCost.
/// `arc_weights` is aligned with the CSR arcs (see CsrGraph::arc_weights).
/// Allocation-free given a warm scratch.
void dijkstra_costs_into(const CsrGraph& g, std::uint32_t source,
                         std::span<const double> arc_weights, DijkstraScratch& scratch,
                         std::span<double> out);

/// Cost from source to target with early exit; kInfCost when disconnected.
[[nodiscard]] double dijkstra_cost(const CsrGraph& g, std::uint32_t source, std::uint32_t target,
                                   std::span<const double> arc_weights, DijkstraScratch& scratch);

/// Min-cost path into `path` (cleared; empty when unreachable; includes
/// both endpoints). Returns true when target was reached.
bool dijkstra_path_into(const CsrGraph& g, std::uint32_t source, std::uint32_t target,
                        std::span<const double> arc_weights, DijkstraScratch& scratch,
                        std::vector<std::uint32_t>& path);

/// Input contract of every batched weighted entry point: one weight per
/// CSR arc. Throws std::invalid_argument (message prefixed with `who`)
/// otherwise, before any work is dispatched.
void check_arc_weights(const CsrGraph& g, std::span<const double> arc_weights, const char* who);

/// Batched multi-source costs, chunk-parallel over `sources`: row i of
/// `out` (stride n, size sources.size() * n) receives the costs from
/// sources[i]. Rows are computed independently, each participant of the
/// parallel call reusing its own scratch (no allocation outlives the call),
/// so the output is bit-identical at any thread count (DESIGN.md §2.4,
/// §2.6). Throws std::invalid_argument when `out` is not sources.size() * n
/// long or `arc_weights` does not match the arcs, and std::out_of_range
/// when any source is >= n — the whole span is checked before dispatch.
void dijkstra_many_into(const CsrGraph& g, std::span<const std::uint32_t> sources,
                        std::span<const double> arc_weights, std::span<double> out);

}  // namespace sens
