// Breadth-first search utilities: single-source hop distances, distances to
// a single target (early exit), shortest hop paths, and the batched
// multi-source `bfs_many_into`. Distances use uint32 with `kUnreachable` as
// the sentinel.
//
// Every query is allocation-free: the caller owns a `BfsScratch` whose
// distance/parent arrays are timestamp-versioned, so consecutive sources
// skip the O(n) clear (DESIGN.md §2.4).
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "sens/graph/csr.hpp"

namespace sens {

inline constexpr std::uint32_t kUnreachable = std::numeric_limits<std::uint32_t>::max();

/// Caller-owned working memory for BFS runs. Entries of a vertex are valid
/// only while `stamp[v] == epoch`; `prepare()` is O(1) between sources.
/// Contents are opaque and clobbered by every run; never share one scratch
/// between threads (DESIGN.md §2.4).
struct BfsScratch {
  std::vector<std::uint32_t> dist;    ///< hop count, valid when stamped
  std::vector<std::uint32_t> parent;  ///< predecessor on the discovery tree
  std::vector<std::uint32_t> stamp;   ///< per-vertex epoch mark
  std::vector<std::uint32_t> queue;   ///< frontier, reused across runs
  std::uint32_t epoch = 0;

  void prepare(std::size_t n) {
    if (stamp.size() != n) {
      dist.assign(n, 0);
      parent.assign(n, 0);
      stamp.assign(n, 0);
      epoch = 0;
    }
    if (++epoch == 0) {  // epoch wrapped: hard reset once per 2^32 runs
      std::fill(stamp.begin(), stamp.end(), 0u);
      epoch = 1;
    }
    queue.clear();
  }

  [[nodiscard]] bool reached(std::uint32_t v) const { return stamp[v] == epoch; }
};

// Every entry point throws std::out_of_range, before any work, when
// `source` (or `target`) is >= the vertex count, like the Dijkstra ones.

/// Hop distances from `source` written into `out` (size n, else
/// std::invalid_argument; kUnreachable where disconnected).
/// Allocation-free given a warm scratch.
void bfs_distances_into(const CsrGraph& g, std::uint32_t source, BfsScratch& scratch,
                        std::span<std::uint32_t> out);

/// Shortest hop path from source to target written into `path` (cleared;
/// empty when disconnected; includes both endpoints). Returns true when
/// the target was reached.
bool bfs_path_into(const CsrGraph& g, std::uint32_t source, std::uint32_t target,
                   BfsScratch& scratch, std::vector<std::uint32_t>& path);

/// Batched multi-source hop distances, chunk-parallel over `sources`: row i
/// of `out` (stride n, size sources.size() * n) receives the distances from
/// sources[i]. Rows are computed independently, each participant of the
/// parallel call reusing its own scratch (no allocation outlives the call),
/// so the output is bit-identical at any thread count (DESIGN.md §2.4,
/// §2.6). Throws std::invalid_argument when `out` is not
/// sources.size() * n long.
void bfs_many_into(const CsrGraph& g, std::span<const std::uint32_t> sources,
                   std::span<std::uint32_t> out);

}  // namespace sens
