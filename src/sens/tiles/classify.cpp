#include "sens/tiles/classify.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "sens/support/parallel.hpp"

namespace sens {

namespace {

/// Tile index (window order) and region mask of every point. `mask_of`
/// takes tile-local coordinates.
template <typename MaskFn>
std::vector<TileRole> role_pass(double side, std::span<const Vec2> points, TileWindow window,
                                MaskFn mask_of) {
  const Tiling tiling(side);
  // Beyond this, floor(x / side) has no int64 value (NaN fails too).
  constexpr double kMaxTile = 0x1p62;
  return parallel_map<TileRole>(points.size(), [&](std::size_t p) -> TileRole {
    const Vec2 q = points[p];
    if (!(std::abs(q.x / side) < kMaxTile && std::abs(q.y / side) < kMaxTile)) {
      throw std::invalid_argument(
          "tile classification: point coordinates must be finite and within 2^62 tiles");
    }
    const TileCoord t = tiling.tile_of(q);
    if (!window.contains(t)) return {};
    return {static_cast<std::uint32_t>(window.index(t)), mask_of(tiling.local(q, t))};
  });
}

/// Fold the roles in point order: count occupancy, OR the masks, elect the
/// smallest point index per set bit. Good = every one of `slots` regions
/// occupied and occupancy <= cap. Min, count and OR are order-free, so the
/// result does not depend on how the role pass was scheduled.
void fold_roles(TileClassification& out, std::span<const TileRole> roles, TileWindow window,
                std::size_t slots, std::size_t cap) {
  const std::size_t tiles = window.tile_count();
  out.window = window;
  out.leaders.assign(tiles, kNoLeaders);
  out.occupancy.assign(tiles, 0);
  std::vector<unsigned> mask(tiles, 0);
  for (std::uint32_t p = 0; p < roles.size(); ++p) {
    const TileRole r = roles[p];
    if (r.tile == kNoNode) continue;
    ++out.occupancy[r.tile];
    mask[r.tile] |= r.mask;
    TileLeaders& leaders = out.leaders[r.tile];
    for (unsigned bits = r.mask; bits != 0; bits &= bits - 1) {
      std::uint32_t& slot = leaders[static_cast<std::size_t>(std::countr_zero(bits))];
      slot = std::min(slot, p);
    }
  }
  const unsigned full = (1u << slots) - 1u;
  out.good.assign(tiles, 0);
  for (std::size_t idx = 0; idx < tiles; ++idx)
    out.good[idx] = (mask[idx] == full && out.occupancy[idx] <= cap) ? 1 : 0;
}

}  // namespace

SiteGrid TileClassification::site_grid() const {
  SiteGrid grid(window.width, window.height);
  for (std::size_t idx = 0; idx < good.size(); ++idx)
    if (good[idx]) grid.set_open(grid.site_at(idx), true);
  return grid;
}

std::size_t TileClassification::good_count() const {
  return static_cast<std::size_t>(std::count(good.begin(), good.end(), std::uint8_t{1}));
}

std::vector<TileRole> tile_roles(const UdgTileSpec& spec, std::span<const Vec2> points,
                                 TileWindow window) {
  return role_pass(spec.side, points, window,
                   [&](Vec2 local) { return udg_region_mask(spec, local); });
}

std::vector<TileRole> tile_roles(const NnTileSpec& spec, std::span<const Vec2> points,
                                 TileWindow window) {
  return role_pass(spec.side(), points, window,
                   [&](Vec2 local) { return spec.region_mask(local); });
}

UdgClassification classify_udg(const UdgTileSpec& spec, std::span<const Vec2> points,
                               TileWindow window) {
  UdgClassification out;
  out.spec = spec;
  fold_roles(out, tile_roles(spec, points, window), window, 5,
             std::numeric_limits<std::size_t>::max());
  return out;
}

NnClassification classify_nn(const NnTileSpec& spec, std::span<const Vec2> points,
                             TileWindow window) {
  NnClassification out;
  out.a = spec.a();
  out.k = spec.k();
  fold_roles(out, tile_roles(spec, points, window), window, 9, spec.max_occupancy());
  return out;
}

}  // namespace sens
