// NN-SENS(2, k) construction (Section 2.2).
//
// The tile pipeline shared with UDG-SENS (DESIGN.md §1.1), with three
// differences:
//   * points are sampled on a window enlarged by a buffer so that k-NN
//     neighborhoods of interior tiles are not distorted by the boundary;
//   * each exit chain has two relays (E, then C) and goodness also caps
//     the tile at k/2 points;
//   * the link test: overlay edges must exist in the k-NN graph NN(2, k).
//     Existence is checked against actual k-nearest selections (edge {u,v}
//     exists iff v in kNN(u) or u in kNN(v)), queried on demand from a
//     kd-tree — the full 3M-edge CSR graph is never materialized.
//
// Per Claim 2.3, when adjacent tiles are both good the 5-edge path
// rep - E relay - C relay - C' relay - E' relay - rep' is guaranteed; the
// builder counts any violation (expected zero; verified by tests and E5).
#pragma once

#include <cstdint>
#include <span>

#include "sens/core/overlay.hpp"
#include "sens/geograph/point_set.hpp"
#include "sens/spatial/kdtree.hpp"
#include "sens/tiles/classify.hpp"

namespace sens {

/// Overlay from an existing classification; `tree` must index exactly the
/// same `points` the classification was built from.
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
