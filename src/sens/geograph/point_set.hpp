// Homogeneous Poisson point process on finite windows of R^2.
//
// Sampling is *cell consistent*: the plane is divided into unit cells
// aligned to the integer lattice, and the points of cell (i, j) are drawn
// from the deterministic stream (seed, i, j). Restricting a window or
// enlarging it therefore never changes the points inside — matching the
// restriction property of the Poisson process and making buffered-window
// experiments exactly consistent with their interior.
#pragma once

#include <cstdint>
#include <vector>

#include "sens/geometry/box.hpp"
#include "sens/geometry/vec2.hpp"

namespace sens {

struct PointSet {
  Box window;
  double intensity = 0.0;
  std::vector<Vec2> points;

  [[nodiscard]] std::size_t size() const { return points.size(); }
};

/// Sample PPP(lambda) restricted to `window` from `seed` (cell consistent),
/// in grid-major order (unit cells row-major, each cell's points in stream
/// order). The one generator (DESIGN.md §2.8): a two-pass count-then-fill
/// sweep over the per-cell streams, so the store is allocated exactly once
/// at its final size and both passes run chunk-parallel over cells, each
/// cell writing its own disjoint slice. Because every cell re-derives its
/// stream (seed, ix, iy) independently, the result is identical at any
/// `--threads` value. Every point lies in the half-open `window`, at any
/// coordinate magnitude. Throws std::invalid_argument when lambda < 0.
[[nodiscard]] PointSet poisson_point_set(Box window, double lambda, std::uint64_t seed);

/// Forwards to `poisson_point_set`; kept for the frozen perfbench sources.
[[nodiscard]] PointSet poisson_point_set_ordered(Box window, double lambda, std::uint64_t seed);

/// Points of PPP(lambda) falling in a single axis-aligned box, sampled
/// directly (N ~ Poisson(lambda * area), uniform positions). Used by the
/// per-tile Monte-Carlo estimators where cell consistency is irrelevant.
[[nodiscard]] std::vector<Vec2> poisson_points_in_box(Box box, double lambda, std::uint64_t seed,
                                                      std::uint64_t stream);

}  // namespace sens
