// Cache-ordered layouts: spatial relabeling permutations (DESIGN.md §2.8).
//
// The builders and batched engines are label-order sensitive in *memory*
// terms only: `GridKnn` ring scans, CSR adjacency walks and the
// `dijkstra_many_into`/`bfs_many_into` sweeps all touch per-node arrays
// indexed by vertex id, so ids that are spatially local should be
// numerically close.
// A freshly generated Poisson store is grid-major (good); a store in
// deployment order — ids assigned by arrival, the realistic regime for a
// sensor network — is effectively random (bad: every adjacency hop is a
// cache miss at 10^6 nodes). This module computes a relabeling permutation
// from the point geometry (Hilbert curve, or plain grid-major as the
// cheaper baseline) and applies it to every structure the build pipeline
// passes around.
//
// Conventions, used consistently everywhere:
//   perm[new_id] = old_id      (a permutation is "who lands in slot i")
//   inv  = invert_permutation(perm), inv[old_id] = new_id
// Relabeling commutes with every geometry-pure builder: building on
// permuted points equals permuting the built structure, bit for bit
// (`Reorder.*` oracle tests; the HNG caveat — promotion levels are keyed
// by node id, so relabeling resamples the hierarchy — is documented in
// DESIGN.md §2.8). Per-node experiment output stays byte-identical under
// reordering by mapping results back through `inv` before reporting.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sens/geograph/geo_graph.hpp"
#include "sens/geometry/vec2.hpp"
#include "sens/graph/csr.hpp"

namespace sens {

enum class SpatialOrder {
  kHilbert,    ///< Hilbert space-filling curve over a 2^16 x 2^16 quantization
  kGridMajor,  ///< row-major over the same quantization (the generator's order)
};

/// The Hilbert index of quantized coordinates (x, y), each in [0, 2^16):
/// the standard bit-interleaving walk, so the result fits in 32 bits.
[[nodiscard]] std::uint64_t hilbert_index_16(std::uint32_t x, std::uint32_t y);

/// The relabeling permutation (perm[new_id] = old_id) that sorts `points`
/// by the chosen spatial key over their bounding box, ties broken by old
/// id — deterministic for any input. Throws std::overflow_error when the
/// point count exceeds the 32-bit id space.
[[nodiscard]] std::vector<std::uint32_t> spatial_order_permutation(std::span<const Vec2> points,
                                                                   SpatialOrder order);

/// inv with inv[perm[new_id]] = new_id. Validates that `perm` is a
/// permutation of [0, n) (throws std::invalid_argument otherwise), so a
/// round trip through experiment JSON can trust the map.
[[nodiscard]] std::vector<std::uint32_t> invert_permutation(
    std::span<const std::uint32_t> perm);

/// `points` relabeled: result[new_id] = points[perm[new_id]].
[[nodiscard]] std::vector<Vec2> apply_permutation(std::span<const Vec2> points,
                                                  std::span<const std::uint32_t> perm);

/// The isomorphic graph under the relabeling: vertex new_id is old vertex
/// perm[new_id], adjacency lists re-sorted into the new id order (CSR lists
/// are sorted by construction). Exact two-pass build, chunk-parallel,
/// bit-identical at any thread count.
[[nodiscard]] CsrGraph apply_permutation(const CsrGraph& g,
                                         std::span<const std::uint32_t> perm);

/// Points and topology relabeled together.
[[nodiscard]] GeoGraph apply_permutation(const GeoGraph& gg,
                                         std::span<const std::uint32_t> perm);

}  // namespace sens
