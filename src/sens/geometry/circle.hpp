// A disk: center and radius, the generator shape of the relay-region
// machinery (circle_clip, disk_family).
#pragma once

#include "sens/geometry/vec2.hpp"

namespace sens {

struct Circle {
  Vec2 center;
  double radius = 0.0;

  constexpr Circle() = default;
  constexpr Circle(Vec2 c, double r) : center(c), radius(r) {}
};

}  // namespace sens
