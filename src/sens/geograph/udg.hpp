// Unit-disk graph builder: UDG(2, lambda) of Section 1.1 — an edge between
// every pair of points at Euclidean distance <= radius (paper: radius 1).
#pragma once

#include <span>

#include "sens/geometry/box.hpp"
#include "sens/geograph/geo_graph.hpp"

namespace sens {

/// Build the unit-disk graph over `points` with connection radius `radius`
/// (grid-accelerated; O(n) expected for Poisson inputs). `bounds` is
/// ignored: the grid spans the points' own bounding box, so points outside
/// `bounds` get every edge too. Throws std::invalid_argument unless
/// `radius` is finite and > 0 and every point coordinate is finite.
[[nodiscard]] GeoGraph build_udg(std::span<const Vec2> points, Box bounds, double radius = 1.0);

}  // namespace sens
