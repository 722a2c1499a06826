// Axis-aligned box (closed on the low edge, open on the high edge, matching
// the half-open tiling convention used to partition R^2 without overlap).
#pragma once

#include <algorithm>

#include "sens/geometry/vec2.hpp"

namespace sens {

struct Box {
  Vec2 lo;
  Vec2 hi;

  constexpr Box() = default;
  constexpr Box(Vec2 lo_, Vec2 hi_) : lo(lo_), hi(hi_) {}
  static constexpr Box centered(Vec2 center, double half_w, double half_h) {
    return {{center.x - half_w, center.y - half_h}, {center.x + half_w, center.y + half_h}};
  }
  static constexpr Box square(Vec2 center, double side) {
    return centered(center, side / 2.0, side / 2.0);
  }

  [[nodiscard]] constexpr double width() const { return hi.x - lo.x; }
  [[nodiscard]] constexpr double height() const { return hi.y - lo.y; }
  [[nodiscard]] constexpr double area() const { return width() * height(); }
  [[nodiscard]] constexpr Vec2 center() const { return {(lo.x + hi.x) / 2.0, (lo.y + hi.y) / 2.0}; }

  /// Half-open containment: lo <= p < hi (tiling convention).
  [[nodiscard]] constexpr bool contains(Vec2 p) const {
    return p.x >= lo.x && p.x < hi.x && p.y >= lo.y && p.y < hi.y;
  }

  /// Largest radius r such that disk(p, r) stays inside this box; negative
  /// if p is outside.
  [[nodiscard]] constexpr double inscribed_radius(Vec2 p) const {
    return std::min(std::min(p.x - lo.x, hi.x - p.x), std::min(p.y - lo.y, hi.y - p.y));
  }

  [[nodiscard]] constexpr Box expanded(double margin) const {
    return {{lo.x - margin, lo.y - margin}, {hi.x + margin, hi.y + margin}};
  }

  [[nodiscard]] constexpr Box united(const Box& o) const {
    return {{std::min(lo.x, o.lo.x), std::min(lo.y, o.lo.y)},
            {std::max(hi.x, o.hi.x), std::max(hi.y, o.hi.y)}};
  }
};

}  // namespace sens
