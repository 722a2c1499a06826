// NN-SENS(2, k) construction (Section 2.2).
//
// The tile pipeline shared with UDG-SENS (DESIGN.md §1.1), with three
// differences:
//   * points are sampled on a window enlarged by a buffer so that k-NN
//     neighborhoods of interior tiles are not distorted by the boundary;
//   * each exit chain has two relays (E, then C) and goodness also caps
//     the tile at k/2 points;
//   * the link test: overlay edges must exist in the k-NN graph NN(2, k)
//     (edge {u,v} exists iff v in kNN(u) or u in kNN(v)). Each prescribed
//     pair is tested on its own by `knn_selects`, an early-exit count over
//     one `GridKnn` bucket grid, chunk-parallel over the pairs — the full
//     3M-edge CSR graph is never materialized (DESIGN.md §2.3).
//
// Per Claim 2.3, when adjacent tiles are both good the 5-edge path
// rep - E relay - C relay - C' relay - E' relay - rep' is guaranteed; the
// builder counts any violation (expected zero; verified by tests and E5).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "sens/core/overlay.hpp"
#include "sens/geograph/point_set.hpp"
#include "sens/spatial/grid_knn.hpp"
#include "sens/tiles/classify.hpp"

namespace sens {

class KdTree;

/// The NN(2, k) link test: true iff `to` is among the k nearest points of
/// `from` in `grid` under the (distance, index) order of
/// `GridKnn::nearest_into` (`from` itself excluded). Counts the points j
/// not in {from, to} that come before `to` within radius |from - to| and
/// stops at k, so no selection is materialized. Pure in its arguments;
/// adds the points it is offered to the `nn_link_points_counted` counter.
/// Requires from != to, both live in `grid`.
[[nodiscard]] bool knn_selects(const GridKnn& grid, std::size_t k, std::uint32_t from,
                               std::uint32_t to);

/// Overlay from an existing classification of exactly these `points`.
/// Throws std::invalid_argument when a leader index of a good tile is
/// >= points.size().
[[nodiscard]] Overlay build_nn_overlay(const NnClassification& cls, std::span<const Vec2> points);

/// Forwards to `build_nn_overlay(cls, points)`; the tree is unused. Kept
/// only because perfbench/src/build_1m.cpp still calls it, and perfbench
/// changes only with the benchmark.
[[nodiscard]] Overlay build_nn_overlay(const NnClassification& cls, std::span<const Vec2> points,
                                       const KdTree& tree);

struct NnSensResult {
  PointSet points;
  NnClassification classification;
  Overlay overlay;
};

/// End-to-end build of NN-SENS on a tiles_x x tiles_y window (unit density;
/// the NN model is scale free). `buffer_tiles` widens the sampling window on
/// every side so interior k-NN neighborhoods are exact.
[[nodiscard]] NnSensResult build_nn_sens(const NnTileSpec& spec, int tiles_x, int tiles_y,
                                         std::uint64_t seed, double buffer_tiles = 1.0);

}  // namespace sens
