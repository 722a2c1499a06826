// UDG-SENS(2, lambda) construction (Section 2.1 + Figure 7, centralized
// equivalent of the distributed protocol in sens/runtime).
//
// Pipeline: Poisson points -> tile classification (goodness + per-region
// leader election) -> overlay graph over the elected reps/relays, through
// the tile pipeline shared with NN-SENS (DESIGN.md §1.1). Overlay edges
// follow Figure 7: rep(t)-relay(t, dir) inside every good tile and
// relay(t, dir)-relay(t', opposite) across every pair of adjacent good
// tiles. This file contributes only the link test: an edge is realized
// when the two nodes are within the UDG link radius; with the strict()
// spec this always holds (Claim 2.1), with the paper() spec violations are
// possible and are counted.
#pragma once

#include <cstdint>
#include <span>

#include "sens/core/overlay.hpp"
#include "sens/geograph/point_set.hpp"
#include "sens/tiles/classify.hpp"

namespace sens {

/// Overlay from an existing classification (points in the same indexing the
/// classification was built from). Throws std::invalid_argument when a
/// leader index of a good tile is >= points.size().
[[nodiscard]] Overlay build_udg_overlay(const UdgClassification& cls,
                                        std::span<const Vec2> points);

struct UdgSensResult {
  PointSet points;
  UdgClassification classification;
  Overlay overlay;
};

/// End-to-end build on a tiles_x x tiles_y tile window anchored at the
/// origin, with PPP(lambda) input sampled from `seed`.
[[nodiscard]] UdgSensResult build_udg_sens(const UdgTileSpec& spec, double lambda, int tiles_x,
                                           int tiles_y, std::uint64_t seed);

}  // namespace sens
