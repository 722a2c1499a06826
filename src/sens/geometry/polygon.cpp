#include "sens/geometry/polygon.hpp"

namespace sens {

ConvexPolygon::ConvexPolygon(std::vector<Vec2> vertices) : vertices_(std::move(vertices)) {}

double ConvexPolygon::area() const {
  if (empty()) return 0.0;
  double twice = 0.0;
  for (std::size_t i = 0; i < vertices_.size(); ++i) {
    const Vec2 a = vertices_[i];
    const Vec2 b = vertices_[(i + 1) % vertices_.size()];
    twice += a.cross(b);
  }
  return twice / 2.0;
}

bool ConvexPolygon::contains(Vec2 p, double eps) const {
  const std::size_t n = vertices_.size();
  if (n < 3) return false;
  const Vec2 v0 = vertices_[0];
  // Outside the fan wedge [v1, v_{n-1}]?
  if ((vertices_[1] - v0).cross(p - v0) < -eps) return false;
  if ((vertices_[n - 1] - v0).cross(p - v0) > eps) return false;
  // Binary search for the fan triangle containing direction (p - v0).
  std::size_t lo = 1, hi = n - 1;
  while (hi - lo > 1) {
    const std::size_t mid = (lo + hi) / 2;
    if ((vertices_[mid] - v0).cross(p - v0) >= 0.0)
      lo = mid;
    else
      hi = mid;
  }
  return (vertices_[hi] - vertices_[lo]).cross(p - vertices_[lo]) >= -eps;
}

ConvexPolygon ConvexPolygon::clip_halfplane(Vec2 n, double c) const {
  std::vector<Vec2> out;
  const std::size_t count = vertices_.size();
  out.reserve(count + 1);
  for (std::size_t i = 0; i < count; ++i) {
    const Vec2 a = vertices_[i];
    const Vec2 b = vertices_[(i + 1) % count];
    const double da = n.dot(a) - c;
    const double db = n.dot(b) - c;
    if (da <= 0.0) out.push_back(a);
    if ((da < 0.0 && db > 0.0) || (da > 0.0 && db < 0.0)) {
      const double t = da / (da - db);
      out.push_back(a + (b - a) * t);
    }
  }
  return ConvexPolygon(std::move(out));
}

ConvexPolygon ConvexPolygon::clip_box(const Box& box) const {
  return clip_halfplane({1.0, 0.0}, box.hi.x)
      .clip_halfplane({-1.0, 0.0}, -box.lo.x)
      .clip_halfplane({0.0, 1.0}, box.hi.y)
      .clip_halfplane({0.0, -1.0}, -box.lo.y);
}

}  // namespace sens
