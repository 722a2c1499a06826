#include "sens/tiles/udg_tile.hpp"

#include <cmath>
#include <numbers>
#include <vector>

#include "sens/geometry/box.hpp"
#include "sens/geometry/circle_clip.hpp"
#include "sens/geometry/polygon.hpp"

namespace sens {

UdgTileSpec UdgTileSpec::paper() { return UdgTileSpec{4.0 / 3.0, 0.5, 1.0, 1.0, "paper"}; }

UdgTileSpec UdgTileSpec::strict() { return UdgTileSpec{0.84, 0.35, 0.65, 1.0, "strict"}; }

UdgTileSpec UdgTileSpec::custom(double side, double rep_radius, double reach) {
  return UdgTileSpec{side, rep_radius, reach, 1.0, "custom"};
}

bool UdgTileSpec::in_relay_region(Vec2 local, int dir) const {
  if (!in_tile(local)) return false;
  if (in_rep_region(local)) return false;
  const Vec2 neighbor_center = kDirVec[static_cast<std::size_t>(dir)] * side;
  const double r2 = reach * reach;
  return local.norm2() <= r2 && dist2(local, neighbor_center) <= r2;
}

double UdgTileSpec::relay_region_area() const {
  // Lens of the two reach-disks, clipped to the tile, minus the C0 overlap.
  // The lens is convex; polygonize it finely and clip.
  const Vec2 nc = kDirVec[0] * side;
  const Circle own{{0.0, 0.0}, reach};
  const Circle nbr{nc, reach};
  const double d = side;
  if (d >= 2.0 * reach) return 0.0;  // empty lens

  // Polygonize the lens by intersecting two finely-sampled disk polygons:
  // clip own-circle polygon against the neighbor disk via many half-planes
  // is awkward; instead sample the lens boundary directly.
  // Lens = points within `reach` of both centers. Its boundary consists of
  // two circular arcs meeting at (d/2, +-h), h = sqrt(reach^2 - d^2/4).
  const double h = std::sqrt(reach * reach - d * d / 4.0);
  constexpr int kArcSteps = 256;
  std::vector<Vec2> verts;
  verts.reserve(2 * kArcSteps);
  // Arc of the *neighbor* disk bounds the lens on the left... the lens's
  // right boundary is the own-circle arc (centered at origin), the left
  // boundary is the neighbor-circle arc. Walk CCW: start at (d/2, -h),
  // along own-circle arc to (d/2, +h), then along neighbor arc back down.
  const double phi0 = std::atan2(-h, d / 2.0);
  const double phi1 = std::atan2(h, d / 2.0);
  for (int s = 0; s <= kArcSteps; ++s) {
    const double t = phi0 + (phi1 - phi0) * static_cast<double>(s) / kArcSteps;
    verts.push_back(reach * unit_vec(t));
  }
  const double psi0 = std::atan2(h, -d / 2.0);
  double psi1 = std::atan2(-h, -d / 2.0);
  if (psi1 < psi0) psi1 += 2.0 * std::numbers::pi;  // sweep through pi (the far side)
  for (int s = 1; s < kArcSteps; ++s) {
    const double t = psi0 + (psi1 - psi0) * static_cast<double>(s) / kArcSteps;
    verts.push_back(nc + reach * unit_vec(t));
  }
  ConvexPolygon lens{std::move(verts)};
  const ConvexPolygon clipped = lens.clip_box(Box::square({0.0, 0.0}, side));
  if (clipped.empty()) return 0.0;
  const double c0_overlap = disk_polygon_area(Circle{{0.0, 0.0}, rep_radius}, clipped);
  return clipped.area() - c0_overlap;
}

bool UdgTileSpec::guarantees_paths() const {
  // (i) every relay within link_radius of every possible rep:
  //     relay in disk(c, reach), rep in disk(c, rep_radius)
  //     => worst pair distance reach + rep_radius... that bound is loose;
  //     the tight requirement is reach <= link_radius - rep_radius.
  if (reach > link_radius - rep_radius + 1e-12) return false;
  // (ii) facing relays live in one lens of radius `reach` with centers
  //      `side` apart; its diameter must be <= link_radius.
  if (side >= 2.0 * reach) return false;  // empty lens
  const double h = std::sqrt(reach * reach - side * side / 4.0);
  const double chord = 2.0 * h;                  // vertical extent
  const double horiz = 2.0 * (reach - side / 2.0);  // horizontal extent
  if (std::max(chord, horiz) > link_radius + 1e-12) return false;
  // (iii) relay region non-empty: the lens must extend beyond C0.
  if (reach <= rep_radius) return false;
  if (relay_region_area() <= 1e-9) return false;
  return true;
}

unsigned udg_region_mask(const UdgTileSpec& spec, Vec2 local) {
  unsigned mask = 0;
  if (spec.in_rep_region(local) && spec.in_tile(local)) mask |= 1u;
  for (int dir = 0; dir < 4; ++dir)
    if (spec.in_relay_region(local, dir)) mask |= 1u << (dir + 1);
  return mask;
}

bool udg_tile_good(const UdgTileSpec& spec, std::span<const Vec2> local_points) {
  unsigned mask = 0;
  for (const Vec2 p : local_points) {
    mask |= udg_region_mask(spec, p);
    if (mask == 0b11111u) return true;
  }
  return mask == 0b11111u;
}

}  // namespace sens
