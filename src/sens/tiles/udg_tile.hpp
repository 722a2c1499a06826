// Tile geometry for UDG-SENS(2, lambda) (Section 2.1).
//
// Each tile of side `a` carries a representative region C0 (disk of radius
// `rep_radius` at the tile center) and four relay regions, one per
// neighboring tile. A relay region toward direction u is the lens
//     disk(c, reach) ∩ disk(c + a*u, reach) ∩ tile \ C0,
// i.e. points simultaneously within `reach` of this tile's center and the
// neighbor's center. See DESIGN.md §1.1: the paper's literal definition is
// vacuous, so the lens is parameterized and shipped in two presets:
//   paper()  — a = 4/3, r0 = 1/2, reach = 1 (the figure-3 reading; no
//              worst-case edge guarantee, gap measured by experiment E4);
//   strict() — a = 0.84, r0 = 0.35, reach = 1 - r0 (goodness of adjacent
//              tiles provably yields a 3-hop path with every edge <= 1).
#pragma once

#include <array>
#include <span>
#include <string>

#include "sens/geometry/circle.hpp"
#include "sens/geometry/vec2.hpp"

namespace sens {

/// Direction index convention used across the tile code:
/// 0 = +x (right), 1 = -x (left), 2 = +y (top), 3 = -y (bottom).
inline constexpr std::array<Vec2, 4> kDirVec{Vec2{1.0, 0.0}, Vec2{-1.0, 0.0}, Vec2{0.0, 1.0},
                                             Vec2{0.0, -1.0}};
/// Opposite direction (right<->left, top<->bottom).
[[nodiscard]] constexpr int opposite_dir(int dir) { return dir ^ 1; }

struct UdgTileSpec {
  double side = 4.0 / 3.0;    ///< tile side a
  double rep_radius = 0.5;    ///< C0 radius r0
  double reach = 1.0;         ///< lens radius R
  double link_radius = 1.0;   ///< UDG connection radius (paper: 1)
  std::string name = "paper";

  [[nodiscard]] static UdgTileSpec paper();
  [[nodiscard]] static UdgTileSpec strict();
  /// Free-form spec for the geometry ablation (A1).
  [[nodiscard]] static UdgTileSpec custom(double side, double rep_radius, double reach);

  // --- region tests in tile-local coordinates (origin = tile center) ---

  [[nodiscard]] bool in_tile(Vec2 local) const {
    const double h = side / 2.0;
    return local.x >= -h && local.x < h && local.y >= -h && local.y < h;
  }
  [[nodiscard]] bool in_rep_region(Vec2 local) const {
    return local.norm2() <= rep_radius * rep_radius;
  }
  [[nodiscard]] bool in_relay_region(Vec2 local, int dir) const;

  // --- analytics ---

  /// Exact area of one relay region (lens ∩ tile \ C0).
  [[nodiscard]] double relay_region_area() const;

  /// True when the spec carries the worst-case guarantee of Claim 2.1:
  /// every rep-relay pair and every facing relay-relay pair is within
  /// link_radius, and the relay regions are non-empty.
  [[nodiscard]] bool guarantees_paths() const;
};

/// Tile goodness (Section 2.1): C0 and all four relay regions contain at
/// least one of `local_points`.
[[nodiscard]] bool udg_tile_good(const UdgTileSpec& spec, std::span<const Vec2> local_points);

/// Region occupancy bitmask: bit 0 = C0, bits 1..4 = relay dir 0..3.
[[nodiscard]] unsigned udg_region_mask(const UdgTileSpec& spec, Vec2 local);

}  // namespace sens
