// 2-D vector/point type. Everything in the library works in double precision
// Euclidean coordinates on R^2 (the paper's setting).
#pragma once

#include <cmath>

namespace sens {

struct Vec2 {
  double x = 0.0;
  double y = 0.0;

  constexpr Vec2() = default;
  constexpr Vec2(double x_, double y_) : x(x_), y(y_) {}

  constexpr Vec2 operator+(Vec2 o) const { return {x + o.x, y + o.y}; }
  constexpr Vec2 operator-(Vec2 o) const { return {x - o.x, y - o.y}; }
  constexpr Vec2 operator*(double s) const { return {x * s, y * s}; }

  [[nodiscard]] constexpr double dot(Vec2 o) const { return x * o.x + y * o.y; }
  /// z-component of the 3-D cross product; >0 when `o` is CCW from *this.
  [[nodiscard]] constexpr double cross(Vec2 o) const { return x * o.y - y * o.x; }
  [[nodiscard]] constexpr double norm2() const { return x * x + y * y; }
  [[nodiscard]] double norm() const { return std::hypot(x, y); }
};

constexpr Vec2 operator*(double s, Vec2 v) { return v * s; }

[[nodiscard]] inline double dist(Vec2 a, Vec2 b) { return (a - b).norm(); }
[[nodiscard]] constexpr double dist2(Vec2 a, Vec2 b) { return (a - b).norm2(); }

/// Unit vector at angle theta (radians).
[[nodiscard]] inline Vec2 unit_vec(double theta) { return {std::cos(theta), std::sin(theta)}; }

}  // namespace sens
