// Uniform grid over a point set for fixed-radius neighbor queries.
//
// The unit-disk graph builder needs all pairs within distance 1; bucketing
// points into cells of side >= query radius makes that a 3x3 cell scan per
// point. Storage is CSR-style (offsets + permuted indices), cache friendly
// and allocation free at query time.
//
// The visitor entry points are templates (header-only hot path): the
// caller's lambda is invoked directly with zero type erasure — no
// `std::function` construction or indirect call per query, which matters
// because `build_udg` issues one query per point (DESIGN.md §2.3).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sens/geometry/box.hpp"
#include "sens/geometry/vec2.hpp"

namespace sens {

class GridIndex {
 public:
  /// Builds an index over `points` with cells of side `cell_size` (finite
  /// and > 0) and finite point coordinates, else std::invalid_argument.
  /// Points outside `bounds` are clamped into the edge cells.
  GridIndex(std::span<const Vec2> points, Box bounds, double cell_size);

  /// Invoke `visit(j)` for every point j with dist(points[j], q) <= radius.
  /// Exhaustive for every radius: the scan covers ceil(radius / cell_size)
  /// rings of cells around q's cell (3x3 when radius <= cell_size, growing
  /// quadratically for larger radii). Visit order is deterministic:
  /// row-major over cells, then bucket order within a cell.
  template <typename Visitor>
  void for_each_in_radius(Vec2 q, double radius, Visitor&& visit) const {
    for_each_in_radius_until(q, radius, [&](std::uint32_t j) {
      visit(j);
      return false;
    });
  }

  /// Like `for_each_in_radius`, but `visit(j)` returns true to stop the
  /// scan early. Returns true when a visitor stopped it (i.e. some point
  /// satisfied the visitor), false when the scan ran to completion.
  template <typename Visitor>
  bool for_each_in_radius_until(Vec2 q, double radius, Visitor&& visit) const {
    const double r2 = radius * radius;
    const long reach = std::max<long>(1, static_cast<long>(std::ceil(radius / cell_size_)));
    const long cx = std::clamp<long>(
        static_cast<long>(std::floor((q.x - bounds_.lo.x) / cell_size_)), 0,
        static_cast<long>(nx_) - 1);
    const long cy = std::clamp<long>(
        static_cast<long>(std::floor((q.y - bounds_.lo.y) / cell_size_)), 0,
        static_cast<long>(ny_) - 1);
    const long y_lo = std::max<long>(cy - reach, 0);
    const long y_hi = std::min<long>(cy + reach, static_cast<long>(ny_) - 1);
    const long x_lo = std::max<long>(cx - reach, 0);
    const long x_hi = std::min<long>(cx + reach, static_cast<long>(nx_) - 1);
    for (long y = y_lo; y <= y_hi; ++y) {
      for (long x = x_lo; x <= x_hi; ++x) {
        const std::size_t cell = static_cast<std::size_t>(y) * nx_ + static_cast<std::size_t>(x);
        for (std::uint32_t k = offsets_[cell]; k < offsets_[cell + 1]; ++k) {
          const std::uint32_t j = order_[k];
          if (dist2(points_[j], q) <= r2 && visit(j)) return true;
        }
      }
    }
    return false;
  }

  [[nodiscard]] std::size_t size() const { return points_.size(); }
  [[nodiscard]] std::span<const Vec2> points() const { return points_; }

 private:
  [[nodiscard]] std::size_t cell_of(Vec2 p) const;

  std::vector<Vec2> points_;
  Box bounds_;
  double cell_size_;
  std::size_t nx_ = 0;
  std::size_t ny_ = 0;
  std::vector<std::uint32_t> offsets_;  // nx*ny + 1
  std::vector<std::uint32_t> order_;    // point indices grouped by cell
};

}  // namespace sens
