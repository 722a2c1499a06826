#include "sens/geometry/disk_family.hpp"

#include <cmath>
#include <limits>
#include <numbers>
#include <stdexcept>

#include "sens/support/parallel.hpp"

namespace sens {

DiskFamilyGenerator DiskFamilyGenerator::inscribed(Circle c, Box domain) {
  return {c, [domain](Vec2 q) { return domain.inscribed_radius(q); }};
}

DiskFamilyRegion::DiskFamilyRegion(std::vector<DiskFamilyGenerator> generators,
                                   std::size_t scan_samples)
    : generators_(std::move(generators)), scan_samples_(scan_samples) {
  if (generators_.empty()) throw std::invalid_argument("DiskFamilyRegion: no generators");
  if (scan_samples_ < 8) scan_samples_ = 8;
}

double DiskFamilyRegion::generator_margin(const DiskFamilyGenerator& gen, Vec2 p) const {
  const Circle& g = gen.circle;
  if (g.radius <= 0.0) return gen.radius_at(g.center) - dist(p, g.center);

  auto f = [&](double theta) {
    const Vec2 q = g.center + g.radius * unit_vec(theta);
    return gen.radius_at(q) - dist(p, q);
  };

  // Coarse scan over the boundary circle.
  double best = std::numeric_limits<double>::infinity();
  double best_theta = 0.0;
  const double step = 2.0 * std::numbers::pi / static_cast<double>(scan_samples_);
  for (std::size_t i = 0; i < scan_samples_; ++i) {
    const double theta = static_cast<double>(i) * step;
    const double v = f(theta);
    if (v < best) {
      best = v;
      best_theta = theta;
    }
  }

  // Golden-section refinement in the bracketing interval around the coarse
  // minimizer. f restricted to the circle is piecewise smooth; the bracket
  // of one coarse step each side contains the true minimizer of its basin.
  const double gr = 0.6180339887498949;
  double a = best_theta - step;
  double b = best_theta + step;
  double x1 = b - gr * (b - a);
  double x2 = a + gr * (b - a);
  double f1 = f(x1);
  double f2 = f(x2);
  for (int iter = 0; iter < 48; ++iter) {
    if (f1 < f2) {
      b = x2;
      x2 = x1;
      f2 = f1;
      x1 = b - gr * (b - a);
      f1 = f(x1);
    } else {
      a = x1;
      x1 = x2;
      f1 = f2;
      x2 = a + gr * (b - a);
      f2 = f(x2);
    }
  }
  return std::min(best, std::min(f1, f2));
}

double DiskFamilyRegion::margin(Vec2 p) const {
  double m = std::numeric_limits<double>::infinity();
  for (const auto& gen : generators_) m = std::min(m, generator_margin(gen, p));
  return m;
}

bool DiskFamilyRegion::contains(Vec2 p, double eps) const { return margin(p) >= -eps; }

ConvexPolygon DiskFamilyRegion::polygonize(Vec2 interior, double max_radius,
                                           std::size_t directions) const {
  if (!contains(interior, 1e-9)) return ConvexPolygon{};
  // Each boundary ray is independent (contains() is const), so the casts run
  // under the chunked parallel layer; vertex i is always the ray at angle
  // 2*pi*i/directions, keeping the polygon bit-identical at any thread count.
  std::vector<Vec2> verts(directions);
  parallel_for(directions, [&](std::size_t i) {
    const double theta =
        2.0 * std::numbers::pi * static_cast<double>(i) / static_cast<double>(directions);
    const Vec2 dir = unit_vec(theta);
    double lo = 0.0;
    double hi = max_radius;
    // Expand hi only if needed (region could extend past max_radius guess).
    if (contains(interior + dir * hi)) {
      verts[i] = interior + dir * hi;
      return;
    }
    for (int iter = 0; iter < 48; ++iter) {
      const double mid = (lo + hi) / 2.0;
      if (contains(interior + dir * mid))
        lo = mid;
      else
        hi = mid;
    }
    verts[i] = interior + dir * lo;
  });
  return ConvexPolygon(std::move(verts));
}

}  // namespace sens
