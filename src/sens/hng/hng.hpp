// Hierarchical neighbor graphs (Bagchi-Madan-Premi, arXiv:0903.0742).
//
// The same authors' follow-up construction to SENS: an energy-efficient
// bounded-expected-degree connected structure over the identical Poisson
// workload, built from p-thinning instead of tile goodness. Every node
// starts at level 1 and is independently promoted one level at a time with
// probability p, so P(level >= i) = p^(i-1) and the level-i population
// S_i = {u : level(u) >= i} is a p-thinning of S_{i-1}. Each node of exact
// level i links to its k nearest neighbors in S_{i+1}; the nodes of the
// topmost occupied level are mutually interconnected (their expected count
// is O(1/(1-p)), so the clique is constant-sized in expectation). The
// result is connected — every node has an upward path to the top clique —
// with constant expected degree and constant expected stretch.
//
// Determinism: promotion draws come from the per-node seeded stream
// (seed, kHngLevelStream, node) of the rng layer, and the per-level k-NN
// linking runs on exact GridKnn subset views (one per level, over the
// caller's points), each node writing its own disjoint selection slice —
// so the overlay is bit-identical at any `--threads` value (construction
// contract: DESIGN.md §2.5).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sens/geograph/geo_graph.hpp"
#include "sens/geometry/vec2.hpp"

namespace sens {

struct HngParams {
  /// Promotion probability of the p-thinning; must be in (0, 1).
  double promote_p = 0.25;
  /// Neighbors each node links to in the level above (paper: small
  /// constant; k >= 1). Larger k buys fault tolerance and lower stretch.
  std::size_t k = 3;
  /// Hard cap on the promotion chain, a guard against the geometric tail;
  /// p^(cap-1) is astronomically small for every sane (p, n).
  std::uint32_t max_level = 48;
};

struct HngResult {
  /// The overlay over *all* input points (HNG elects nobody), consumable
  /// by the batched spatial/traversal engines like any other GeoGraph.
  GeoGraph geo;
  /// Exact (1-based) level per node; level[u] == top_level for clique nodes.
  std::vector<std::uint32_t> level;
  /// Topmost occupied level (0 iff the input is empty).
  std::uint32_t top_level = 0;
  /// cumulative_size[i] = |S_(i+1)| = #nodes with level >= i+1, for
  /// i in [0, top_level): cumulative_size[0] == n, strictly positive.
  std::vector<std::uint32_t> cumulative_size;
};

/// Build the hierarchical neighbor graph H(p, k) over `points`. Throws
/// std::invalid_argument unless 0 < p < 1, k >= 1 and max_level >= 2.
[[nodiscard]] HngResult build_hng(std::span<const Vec2> points, const HngParams& params,
                                  std::uint64_t seed);

// --- per-node kernels, shared with the incremental maintainer ---
// (sens/dynamic). `build_hng` is exactly: draw every node's level with
// `hng_promotion_level`, then link every node of exact level l < top to
// its min(k, |S_{l+1}|) nearest members of S_{l+1}, excluding itself
// (`GridKnn::nearest_into` on a subset view of S_{l+1}, (distance, index)
// order), and the top cohort by the clique rule — so an incremental
// structure using the same kernels agrees with the batch build bit for bit
// (DESIGN.md §2.7).

/// Validate `params` (same rules as build_hng); throws
/// std::invalid_argument on violation.
void validate_hng_params(const HngParams& params);

/// The promotion level of `node`: the length of the opening run of heads
/// in its dedicated rng stream (seed, "HNG", node), capped at max_level.
/// Pure in (seed, node, params) — a node's level never depends on when it
/// joined, which is what makes incremental maintenance exact.
[[nodiscard]] std::uint32_t hng_promotion_level(std::uint64_t seed, std::uint64_t node,
                                                const HngParams& params);

}  // namespace sens
