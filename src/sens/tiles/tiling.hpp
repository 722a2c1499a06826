// Square tiling of R^2 and the coupling map phi between tiles and Z^2 sites
// (Section 2: "We associate each tile in R^2 with a point in Z^2").
#pragma once

#include <cstdint>
#include <cmath>

#include "sens/geometry/box.hpp"
#include "sens/geometry/vec2.hpp"
#include "sens/perc/site_grid.hpp"

namespace sens {

/// Integer tile coordinates (tile (i, j) covers [i*a, (i+1)*a) x [j*a, (j+1)*a)).
struct TileCoord {
  std::int64_t i = 0;
  std::int64_t j = 0;
};

class Tiling {
 public:
  explicit Tiling(double side) : side_(side) {}

  [[nodiscard]] double side() const { return side_; }

  [[nodiscard]] TileCoord tile_of(Vec2 p) const {
    return {static_cast<std::int64_t>(std::floor(p.x / side_)),
            static_cast<std::int64_t>(std::floor(p.y / side_))};
  }

  [[nodiscard]] Box tile_box(TileCoord t) const {
    const Vec2 lo{static_cast<double>(t.i) * side_, static_cast<double>(t.j) * side_};
    return {lo, {lo.x + side_, lo.y + side_}};
  }

  [[nodiscard]] Vec2 tile_center(TileCoord t) const { return tile_box(t).center(); }

  /// Local coordinates of p relative to the center of its tile.
  [[nodiscard]] Vec2 local(Vec2 p, TileCoord t) const { return p - tile_center(t); }

 private:
  double side_;
};

/// A rectangular block of tiles [i0, i0+w) x [j0, j0+h) identified with the
/// site window [0, w) x [0, h): phi(tile (i,j)) = site (i - i0, j - j0).
struct TileWindow {
  std::int64_t i0 = 0;
  std::int64_t j0 = 0;
  std::int32_t width = 0;
  std::int32_t height = 0;

  [[nodiscard]] bool contains(TileCoord t) const {
    return t.i >= i0 && t.i < i0 + width && t.j >= j0 && t.j < j0 + height;
  }
  [[nodiscard]] Site phi(TileCoord t) const {
    return {static_cast<std::int32_t>(t.i - i0), static_cast<std::int32_t>(t.j - j0)};
  }
  [[nodiscard]] std::size_t tile_count() const {
    return static_cast<std::size_t>(width) * static_cast<std::size_t>(height);
  }
  [[nodiscard]] std::size_t index(TileCoord t) const {
    const Site s = phi(t);
    return static_cast<std::size_t>(s.y) * static_cast<std::size_t>(width) +
           static_cast<std::size_t>(s.x);
  }

  /// Geometric bounds of the whole window under `tiling`.
  [[nodiscard]] Box bounds(const Tiling& tiling) const {
    const double a = tiling.side();
    return {{static_cast<double>(i0) * a, static_cast<double>(j0) * a},
            {static_cast<double>(i0 + width) * a, static_cast<double>(j0 + height) * a}};
  }
};

}  // namespace sens
