// Convex polygons in counter-clockwise order with O(log n) point location.
//
// Region geometry in this project reduces to convex sets (intersections of
// disks are convex), so a polygon approximation with a few hundred vertices
// gives fast, accurate membership tests for the tile-classification hot path.
#pragma once

#include <cstddef>
#include <vector>

#include "sens/geometry/box.hpp"
#include "sens/geometry/vec2.hpp"

namespace sens {

class ConvexPolygon {
 public:
  ConvexPolygon() = default;
  /// Vertices must be in counter-clockwise order and form a convex chain
  /// (not checked).
  explicit ConvexPolygon(std::vector<Vec2> vertices);

  [[nodiscard]] bool empty() const { return vertices_.size() < 3; }
  [[nodiscard]] const std::vector<Vec2>& vertices() const { return vertices_; }

  /// Signed (shoelace) area; >= 0 for CCW polygons.
  [[nodiscard]] double area() const;

  /// Point membership (closed set, tolerance eps) by fan binary search from
  /// vertices_[0]: O(log n).
  [[nodiscard]] bool contains(Vec2 p, double eps = 1e-12) const;

  /// Clip by half-plane {p : n.dot(p) <= c} (Sutherland-Hodgman step).
  [[nodiscard]] ConvexPolygon clip_halfplane(Vec2 n, double c) const;

  /// Clip to an axis-aligned box.
  [[nodiscard]] ConvexPolygon clip_box(const Box& box) const;

 private:
  std::vector<Vec2> vertices_;
};

}  // namespace sens
