// Tests for sens/geometry: vectors, boxes, polygons, the exact
// circle-polygon clip and the disk-family regions that define the paper's
// relay geometry.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <utility>
#include <vector>

#include "sens/geometry/box.hpp"
#include "sens/geometry/circle.hpp"
#include "sens/geometry/circle_clip.hpp"
#include "sens/geometry/disk_family.hpp"
#include "sens/geometry/polygon.hpp"
#include "sens/geometry/vec2.hpp"
#include "sens/rng/rng.hpp"

namespace sens {
namespace {

constexpr double kPi = std::numbers::pi;

/// A vector's coordinates as a pair, for exact comparisons.
std::pair<double, double> xy(Vec2 v) { return {v.x, v.y}; }

/// Exact area of the intersection of two disks: the closed form that
/// disk_polygon_area is checked against.
double lens_area(const Circle& a, const Circle& b) {
  const double d = dist(a.center, b.center);
  const double r = a.radius;
  const double s = b.radius;
  if (d >= r + s) return 0.0;                                  // disjoint
  if (d + std::min(r, s) <= std::max(r, s)) {                  // one inside the other
    const double rm = std::min(r, s);
    return kPi * rm * rm;
  }
  const double r2 = r * r, s2 = s * s, d2 = d * d;
  const double alpha = std::acos(std::clamp((d2 + r2 - s2) / (2.0 * d * r), -1.0, 1.0));
  const double beta = std::acos(std::clamp((d2 + s2 - r2) / (2.0 * d * s), -1.0, 1.0));
  return r2 * (alpha - std::sin(2.0 * alpha) / 2.0) + s2 * (beta - std::sin(2.0 * beta) / 2.0);
}

/// CCW rectangle polygon for a box.
ConvexPolygon box_polygon(const Box& box) {
  return ConvexPolygon({box.lo, {box.hi.x, box.lo.y}, box.hi, {box.lo.x, box.hi.y}});
}

/// Regular n-gon inscribed in a circle (CCW).
ConvexPolygon circle_polygon(Vec2 center, double radius, std::size_t n) {
  std::vector<Vec2> verts;
  for (std::size_t i = 0; i < n; ++i) {
    verts.push_back(center + radius * unit_vec(2.0 * kPi * static_cast<double>(i) /
                                               static_cast<double>(n)));
  }
  return ConvexPolygon(std::move(verts));
}

/// True if every turn of the vertex chain is a left turn (collinear runs
/// allowed) and there are at least 3 vertices.
bool is_convex(const ConvexPolygon& poly, double eps = 1e-12) {
  const auto& v = poly.vertices();
  const std::size_t n = v.size();
  if (n < 3) return false;
  for (std::size_t i = 0; i < n; ++i) {
    if ((v[(i + 1) % n] - v[i]).cross(v[(i + 2) % n] - v[(i + 1) % n]) < -eps) return false;
  }
  return true;
}

/// Generator with a constant radius r: the region is the closed-form disk
/// ball(c.center, r - c.radius).
DiskFamilyGenerator constant_generator(Circle c, double r) {
  return {c, [r](Vec2) { return r; }};
}

TEST(Vec2Test, Arithmetic) {
  const Vec2 a{1.0, 2.0}, b{3.0, -1.0};
  EXPECT_EQ(xy(a + b), xy({4.0, 1.0}));
  EXPECT_EQ(xy(a - b), xy({-2.0, 3.0}));
  EXPECT_EQ(xy(a * 2.0), xy({2.0, 4.0}));
  EXPECT_EQ(xy(2.0 * a), xy({2.0, 4.0}));
  EXPECT_DOUBLE_EQ(a.dot(b), 1.0);
  EXPECT_DOUBLE_EQ(a.cross(b), -7.0);
  EXPECT_DOUBLE_EQ(dist2(a, b), 13.0);
  EXPECT_DOUBLE_EQ(Vec2(3.0, 4.0).norm(), 5.0);
  EXPECT_NEAR(unit_vec(kPi / 2).y, 1.0, 1e-15);
}

TEST(BoxTest, ContainmentConventions) {
  const Box b = Box::square({0.0, 0.0}, 2.0);
  EXPECT_TRUE(b.contains({0.0, 0.0}));
  EXPECT_TRUE(b.contains({-1.0, -1.0}));   // low edge closed
  EXPECT_FALSE(b.contains({1.0, 0.0}));    // high edge open
  EXPECT_DOUBLE_EQ(b.area(), 4.0);
  EXPECT_EQ(xy(b.center()), xy({0.0, 0.0}));
}

TEST(BoxTest, InscribedRadiusAndOps) {
  const Box b{{0.0, 0.0}, {4.0, 2.0}};
  EXPECT_DOUBLE_EQ(b.inscribed_radius({1.0, 1.0}), 1.0);
  EXPECT_DOUBLE_EQ(b.inscribed_radius({2.0, 1.0}), 1.0);
  EXPECT_LT(b.inscribed_radius({-1.0, 1.0}), 0.0);
  const Box u = b.united({{3.0, 0.0}, {6.0, 2.0}});
  EXPECT_DOUBLE_EQ(u.width(), 6.0);
  EXPECT_DOUBLE_EQ(b.expanded(1.0).area(), 6.0 * 4.0);
}

TEST(LensArea, ClosedFormCases) {
  const Circle a{{0.0, 0.0}, 1.0};
  EXPECT_DOUBLE_EQ(lens_area(a, Circle{{3.0, 0.0}, 1.0}), 0.0);  // disjoint
  EXPECT_NEAR(lens_area(a, Circle{{0.0, 0.0}, 0.5}), kPi * 0.25, 1e-12);  // nested
  // Equal circles at distance d: 2 r^2 acos(d/2r) - (d/2) sqrt(4r^2 - d^2).
  const double d = 1.0;
  const double expect = 2.0 * std::acos(d / 2.0) - (d / 2.0) * std::sqrt(4.0 - d * d);
  EXPECT_NEAR(lens_area(a, Circle{{d, 0.0}, 1.0}), expect, 1e-12);
  // Symmetry.
  EXPECT_NEAR(lens_area(a, Circle{{d, 0.0}, 0.7}), lens_area(Circle{{d, 0.0}, 0.7}, a), 1e-12);
}

TEST(PolygonTest, AreaCentroidConvexity) {
  const ConvexPolygon square = box_polygon(Box{{0.0, 0.0}, {2.0, 2.0}});
  EXPECT_DOUBLE_EQ(square.area(), 4.0);
  EXPECT_TRUE(is_convex(square));
  EXPECT_TRUE(square.contains({1.0, 1.0}));
  EXPECT_TRUE(square.contains({0.0, 0.0}));
  EXPECT_FALSE(square.contains({2.5, 1.0}));
  EXPECT_FALSE(square.contains({-0.1, 1.0}));
}

TEST(PolygonTest, CirclePolygonApproximatesDisk) {
  const ConvexPolygon poly = circle_polygon({1.0, -2.0}, 3.0, 512);
  EXPECT_TRUE(is_convex(poly));
  EXPECT_NEAR(poly.area(), kPi * 9.0, kPi * 9.0 * 1e-3);
  EXPECT_TRUE(poly.contains({1.0, -2.0}));
  EXPECT_FALSE(poly.contains({4.5, -2.0}));
}

TEST(PolygonTest, ContainsMatchesBruteForce) {
  const ConvexPolygon poly = circle_polygon({0.0, 0.0}, 1.0, 64);
  Rng rng(21);
  for (int i = 0; i < 2000; ++i) {
    const Vec2 p{rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)};
    // Brute force: inside all edge half-planes.
    bool inside = true;
    const auto& v = poly.vertices();
    for (std::size_t e = 0; e < v.size(); ++e) {
      const Vec2 a = v[e], b = v[(e + 1) % v.size()];
      if ((b - a).cross(p - a) < -1e-12) inside = false;
    }
    EXPECT_EQ(poly.contains(p), inside) << "p=(" << p.x << "," << p.y << ")";
  }
}

TEST(PolygonTest, HalfplaneAndBoxClip) {
  const ConvexPolygon square = box_polygon(Box{{0.0, 0.0}, {2.0, 2.0}});
  const ConvexPolygon half = square.clip_halfplane({1.0, 0.0}, 1.0);  // x <= 1
  EXPECT_NEAR(half.area(), 2.0, 1e-12);
  const ConvexPolygon clipped = square.clip_box(Box{{0.5, 0.5}, {1.5, 1.5}});
  EXPECT_NEAR(clipped.area(), 1.0, 1e-12);
  // Clip to a disjoint box -> empty.
  EXPECT_TRUE(square.clip_box(Box{{5.0, 5.0}, {6.0, 6.0}}).empty());
}

// --- circle-polygon clip ---

TEST(DiskPolygonArea, PolygonInsideDisk) {
  const ConvexPolygon square = box_polygon(Box::square({0.0, 0.0}, 1.0));
  EXPECT_NEAR(disk_polygon_area(Circle{{0.0, 0.0}, 10.0}, square), 1.0, 1e-12);
}

TEST(DiskPolygonArea, DiskInsidePolygon) {
  const ConvexPolygon square = box_polygon(Box::square({0.0, 0.0}, 10.0));
  EXPECT_NEAR(disk_polygon_area(Circle{{1.0, 1.0}, 1.5}, square), kPi * 2.25, 1e-9);
}

TEST(DiskPolygonArea, Disjoint) {
  const ConvexPolygon square = box_polygon(Box::square({0.0, 0.0}, 1.0));
  EXPECT_NEAR(disk_polygon_area(Circle{{10.0, 0.0}, 1.0}, square), 0.0, 1e-12);
}

TEST(DiskPolygonArea, HalfDisk) {
  // Disk centered on the edge of a huge half-plane-like box: half its area.
  const ConvexPolygon right = box_polygon(Box{{0.0, -50.0}, {100.0, 50.0}});
  EXPECT_NEAR(disk_polygon_area(Circle{{0.0, 0.0}, 2.0}, right), kPi * 4.0 / 2.0, 1e-9);
}

TEST(DiskPolygonArea, MatchesLensClosedForm) {
  // Disk vs a fine polygon of another disk = lens area.
  const Circle a{{0.0, 0.0}, 1.0};
  const Circle b{{1.2, 0.3}, 0.8};
  const ConvexPolygon pb = circle_polygon(b.center, b.radius, 2048);
  EXPECT_NEAR(disk_polygon_area(a, pb), lens_area(a, b), 2e-4);
}

TEST(DiskPolygonArea, MonteCarloCrossCheck) {
  const Circle c{{0.3, -0.2}, 0.9};
  const ConvexPolygon tri({{-1.0, -1.0}, {1.5, -0.5}, {0.0, 1.4}});
  const double exact = disk_polygon_area(c, tri);
  Rng rng(77);
  int hits = 0;
  const int n = 200000;
  const Box bb{{-1.0, -1.0}, {1.5, 1.4}};  // the triangle's bounding box
  for (int i = 0; i < n; ++i) {
    const Vec2 p{rng.uniform(bb.lo.x, bb.hi.x), rng.uniform(bb.lo.y, bb.hi.y)};
    if (tri.contains(p) && dist2(p, c.center) <= c.radius * c.radius) ++hits;
  }
  const double mc = bb.area() * hits / n;
  EXPECT_NEAR(exact, mc, 0.02);
}

// --- disk-family regions ---

TEST(DiskFamily, ConstantGeneratorIsErodedDisk) {
  // All q in disk(c, r0) constrain d(p, q) <= R  =>  region = disk(c, R - r0).
  DiskFamilyRegion region({constant_generator(Circle{{0.0, 0.0}, 0.5}, 1.0)});
  EXPECT_TRUE(region.contains({0.49, 0.0}));
  EXPECT_TRUE(region.contains({0.0, -0.499}));
  EXPECT_FALSE(region.contains({0.51, 0.0}));
  EXPECT_NEAR(region.margin({0.0, 0.0}), 0.5, 1e-6);
}

TEST(DiskFamily, PolygonizeMatchesClosedForm) {
  DiskFamilyRegion region({constant_generator(Circle{{0.0, 0.0}, 0.5}, 1.0)});
  const ConvexPolygon poly = region.polygonize({0.0, 0.0}, 2.0, 256);
  EXPECT_TRUE(is_convex(poly));
  EXPECT_NEAR(poly.area(), kPi * 0.25, kPi * 0.25 * 5e-3);
}

TEST(DiskFamily, EmptyAtOutsideSeedGivesEmptyPolygon) {
  DiskFamilyRegion region({constant_generator(Circle{{0.0, 0.0}, 0.5}, 1.0)});
  EXPECT_TRUE(region.polygonize({5.0, 0.0}, 2.0, 64).empty());
}

TEST(DiskFamily, InscribedGeneratorRespectsDomain) {
  // Generator disk near the left wall of the domain: R(q) small there.
  const Box domain{{0.0, 0.0}, {10.0, 10.0}};
  DiskFamilyRegion region(
      {DiskFamilyGenerator::inscribed(Circle{{2.0, 5.0}, 1.0}, domain)});
  // q = (1, 5) has R = 1: points further than 1 from it are out.
  EXPECT_FALSE(region.contains({4.5, 5.0}));
  EXPECT_TRUE(region.contains({2.0, 5.0}));
}

class DiskFamilyConvexityTest : public ::testing::TestWithParam<int> {};

TEST_P(DiskFamilyConvexityTest, MidpointsOfMembersAreMembers) {
  const int seed = GetParam();
  const Box domain{{-5.0, -5.0}, {15.0, 5.0}};
  DiskFamilyRegion region({
      DiskFamilyGenerator::inscribed(Circle{{0.0, 0.0}, 1.0}, domain),
      DiskFamilyGenerator::inscribed(Circle{{4.0, 0.0}, 1.0}, domain),
  });
  Rng rng(static_cast<std::uint64_t>(seed) + 1000);
  int found = 0;
  for (int i = 0; i < 400 && found < 60; ++i) {
    const Vec2 p{rng.uniform(-1.0, 5.0), rng.uniform(-4.0, 4.0)};
    const Vec2 q{rng.uniform(-1.0, 5.0), rng.uniform(-4.0, 4.0)};
    if (region.contains(p, -1e-9) && region.contains(q, -1e-9)) {
      ++found;
      EXPECT_TRUE(region.contains((p + q) * 0.5, 1e-6));
    }
  }
  EXPECT_GT(found, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiskFamilyConvexityTest, ::testing::Range(0, 6));

TEST(DiskFamily, BoundaryMinimizerOnCircleMatchesInteriorScan) {
  // Concavity argument: the margin minimum over the generator disk is on
  // its boundary. Compare against scanning interior points.
  const Box domain{{-5.0, -5.0}, {15.0, 5.0}};
  DiskFamilyRegion region({DiskFamilyGenerator::inscribed(Circle{{0.0, 0.0}, 1.0}, domain)});
  const Vec2 p{2.5, 1.0};
  const double boundary_margin = region.margin(p);
  double interior_min = 1e18;
  // Integer-stepped loops so the rr = 1.0 boundary ring (where the concave
  // margin attains its minimum) is sampled exactly.
  for (int ir = 0; ir <= 20; ++ir) {
    const double rr = ir * 0.05;
    for (int it = 0; it < 640; ++it) {
      const Vec2 q = rr * unit_vec(it * 0.01);
      interior_min = std::min(interior_min, domain.inscribed_radius(q) - dist(p, q));
    }
  }
  // The interior scan is a coarse grid (steps of 0.05), so agreement is
  // within the grid's Lipschitz error; the refined boundary minimum must
  // never exceed the scanned minimum.
  EXPECT_NEAR(boundary_margin, interior_min, 0.05);
  EXPECT_LE(boundary_margin, interior_min + 1e-6);
}

}  // namespace
}  // namespace sens
