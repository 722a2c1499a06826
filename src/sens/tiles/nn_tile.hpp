// Tile geometry for NN-SENS(2, k) (Section 2.2).
//
// A tile of side 10a carries nine regions: five disks of radius a —
// C0 at the center and Cr, Cl, Ct, Cb at (+-4a, 0), (0, +-4a) — and four
// relay regions Er, El, Et, Eb. The relay region toward direction u is
//     E_u = { p : d(p, q) <= R(q) for all q in C0 ∪ C_u },
// where R(q) is the radius of the largest disk centered at q that stays
// inside the union of this tile and its u-neighbor (Figure 5). E_u is an
// intersection of disks, hence convex; we polygonize it once per spec
// (sens/geometry/disk_family.hpp) so membership tests are O(log n).
//
// Goodness (Section 2.2): the tile holds at most k/2 points of the process
// AND all nine regions are occupied. With both a tile and its neighbor
// good, the k-NN graph is guaranteed to contain the 5-edge path
//     rep -> E_u relay -> C_u relay -> neighbor C relay -> neighbor E relay -> neighbor rep
// (Claim 2.3; verified against actual k-NN selections by experiment E5).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "sens/geometry/circle.hpp"
#include "sens/geometry/disk_family.hpp"
#include "sens/geometry/polygon.hpp"
#include "sens/tiles/udg_tile.hpp"  // kDirVec / opposite_dir

namespace sens {

class NnTileSpec {
 public:
  /// `a` is the region-disk radius (tile side = 10a); `k` the NN degree.
  NnTileSpec(double a, std::size_t k);

  /// The paper's Theorem 2.4 parameters: k = 188, a = 0.893 (unit density;
  /// the NN model is scale free so density 1 is WLOG).
  [[nodiscard]] static NnTileSpec paper() { return NnTileSpec(0.893, 188); }

  [[nodiscard]] double a() const { return a_; }
  [[nodiscard]] double side() const { return 10.0 * a_; }
  [[nodiscard]] std::size_t k() const { return k_; }
  [[nodiscard]] std::size_t max_occupancy() const { return k_ / 2; }

  // --- regions, tile-local coordinates (origin = tile center) ---

  [[nodiscard]] bool in_tile(Vec2 local) const {
    const double h = side() / 2.0;
    return local.x >= -h && local.x < h && local.y >= -h && local.y < h;
  }
  [[nodiscard]] bool in_c0(Vec2 local) const { return local.norm2() <= a_ * a_; }
  /// C disk toward direction dir (center 4a * u, radius a).
  [[nodiscard]] bool in_c_region(Vec2 local, int dir) const {
    return dist2(local, c_center(dir)) <= a_ * a_;
  }
  /// Relay region E toward direction dir (polygonized disk-family region).
  [[nodiscard]] bool in_e_region(Vec2 local, int dir) const {
    return e_polygons_[static_cast<std::size_t>(dir)].contains(local);
  }

  [[nodiscard]] Vec2 c_center(int dir) const { return kDirVec[static_cast<std::size_t>(dir)] * (4.0 * a_); }

  /// Slow, oracle-exact membership (used to validate the polygonization).
  [[nodiscard]] bool in_e_region_exact(Vec2 local, int dir, double eps = 1e-9) const;

  [[nodiscard]] const ConvexPolygon& e_polygon(int dir) const {
    return e_polygons_[static_cast<std::size_t>(dir)];
  }

  /// Occupancy bitmask: bit 0 = C0, bits 1..4 = C dir, bits 5..8 = E dir.
  [[nodiscard]] unsigned region_mask(Vec2 local) const;

  /// Goodness: |points| <= k/2 and all nine regions occupied.
  [[nodiscard]] bool good(std::span<const Vec2> local_points) const;
  /// Variant without the occupancy cap (ablation A2).
  [[nodiscard]] bool regions_occupied(std::span<const Vec2> local_points) const;

 private:
  double a_;
  std::size_t k_;
  std::array<ConvexPolygon, 4> e_polygons_;
};

/// Recompute the four E-region polygons for disk radius `a` straight from
/// the disk-family oracle, bypassing the process-wide polygon cache (slow:
/// ~0.7 s of ray casting). Used by tools/gen_nn_polygons to regenerate the
/// baked table in nn_tile_polygons.inc and by the test that proves the baked
/// table is bit-identical to a fresh computation.
[[nodiscard]] std::array<ConvexPolygon, 4> compute_nn_e_polygons(double a);

/// The `a` keys baked into nn_tile_polygons.inc (exact doubles, in baked
/// order). Tests assert this set covers every `a` the suites construct
/// repeatedly, so a new hot value fails loudly instead of silently paying
/// the ~0.7 s polygonization in every fresh gtest process
/// (NnTilePolygonTable.BakedTableCoversEveryTestedA).
[[nodiscard]] std::vector<double> baked_nn_polygon_a_values();

}  // namespace sens
