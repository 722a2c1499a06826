// Regions defined as the intersection of a family of disks.
//
// The paper's relay regions have the form
//     E = { p : d(p, q) <= R(q)  for every q in one or more disks },
// where R(q) is the radius of the largest disk centered at q that stays
// inside a rectangle union (NN construction, Sec 2.2) or a constant (UDG
// construction, Sec 2.1). Because R is concave (a min of linear functions)
// and -d(p, .) is concave, the margin f(q) = R(q) - d(p, q) is concave in q,
// so its minimum over the generator disk is attained on the boundary circle.
// Membership therefore reduces to a 1-D minimization per generator circle,
// done by coarse angular scan + golden-section refinement.
//
// Such intersections are convex, so each region is polygonized once (ray
// casting from an interior point) and the hot path is an O(log n)
// point-in-convex-polygon test.
#pragma once

#include <functional>
#include <vector>

#include "sens/geometry/box.hpp"
#include "sens/geometry/circle.hpp"
#include "sens/geometry/polygon.hpp"
#include "sens/geometry/vec2.hpp"

namespace sens {

/// One generator: all q on (and, by concavity, inside) `circle` constrain the
/// region through d(p, q) <= radius_at(q).
struct DiskFamilyGenerator {
  Circle circle;                              ///< generator disk (constraints from its boundary)
  std::function<double(Vec2)> radius_at;      ///< concave radius field R(q)

  /// Generator whose radius at q is the inscribed radius of `domain`
  /// (largest disk centered at q inside the rectangle), as in Sec 2.2.
  static DiskFamilyGenerator inscribed(Circle c, Box domain);
};

class DiskFamilyRegion {
 public:
  DiskFamilyRegion(std::vector<DiskFamilyGenerator> generators, std::size_t scan_samples = 128);

  /// min over all generators and q of R(q) - d(p, q); >= 0 iff p is in the
  /// region (up to refinement tolerance).
  [[nodiscard]] double margin(Vec2 p) const;

  /// Exact-oracle membership (slow path; scan + refinement per generator).
  [[nodiscard]] bool contains(Vec2 p, double eps = 1e-9) const;

  /// Polygonize the region (convex) with `directions` boundary rays cast
  /// from `interior`; `interior` must satisfy contains(). Returns an empty
  /// polygon when the region is empty at `interior`.
  [[nodiscard]] ConvexPolygon polygonize(Vec2 interior, double max_radius,
                                         std::size_t directions = 256) const;

 private:
  [[nodiscard]] double generator_margin(const DiskFamilyGenerator& gen, Vec2 p) const;

  std::vector<DiskFamilyGenerator> generators_;
  std::size_t scan_samples_;
};

}  // namespace sens
