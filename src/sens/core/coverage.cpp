#include "sens/core/coverage.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "sens/rng/rng.hpp"
#include "sens/spatial/grid_knn.hpp"

namespace sens {

std::vector<double> empty_block_probability(const Overlay& overlay,
                                            std::span<const int> box_sizes) {
  const std::int32_t w = overlay.sites.width();
  const std::int32_t h = overlay.sites.height();
  // Summed-area table of the "giant rep present" indicator.
  std::vector<std::int64_t> sat(static_cast<std::size_t>(w + 1) * static_cast<std::size_t>(h + 1),
                                0);
  auto sat_at = [&](std::int32_t x, std::int32_t y) -> std::int64_t& {
    return sat[static_cast<std::size_t>(y) * static_cast<std::size_t>(w + 1) +
               static_cast<std::size_t>(x)];
  };
  for (std::int32_t y = 1; y <= h; ++y) {
    for (std::int32_t x = 1; x <= w; ++x) {
      const std::int64_t present = overlay.rep_in_giant({x - 1, y - 1}) ? 1 : 0;
      sat_at(x, y) = present + sat_at(x - 1, y) + sat_at(x, y - 1) - sat_at(x - 1, y - 1);
    }
  }

  std::vector<double> out;
  out.reserve(box_sizes.size());
  for (const int m : box_sizes) {
    if (m <= 0 || m > w || m > h) {
      out.push_back(1.0);
      continue;
    }
    std::int64_t empty = 0;
    std::int64_t total = 0;
    for (std::int32_t y = 0; y + m <= h; ++y) {
      for (std::int32_t x = 0; x + m <= w; ++x) {
        const std::int64_t sum =
            sat_at(x + m, y + m) - sat_at(x, y + m) - sat_at(x + m, y) + sat_at(x, y);
        ++total;
        if (sum == 0) ++empty;
      }
    }
    out.push_back(total == 0 ? 1.0 : static_cast<double>(empty) / static_cast<double>(total));
  }
  return out;
}

Proportion empty_box_probability(const Overlay& overlay, double ell, std::size_t trials,
                                 std::uint64_t seed) {
  if (!(std::isfinite(ell) && ell > 0.0)) {
    throw std::invalid_argument("empty_box_probability: ell must be finite and > 0");
  }
  // Giant-component overlay node positions, spatially indexed for the
  // emptiness queries.
  std::vector<Vec2> giant_points;
  for (std::uint32_t v = 0; v < overlay.geo.size(); ++v)
    if (overlay.comps.in_largest(v)) giant_points.push_back(overlay.geo.points[v]);

  const Tiling tiling(overlay.tile_side);
  const Box bounds = overlay.window.bounds(tiling);
  Proportion result;
  result.trials = trials;
  if (giant_points.empty()) {
    result.successes = trials;
    return result;
  }
  const GridKnn index = GridKnn::for_radius(giant_points, std::max(ell, overlay.tile_side));

  Rng rng = Rng::stream(seed, 0xb0c5);
  const double span_x = bounds.width() - ell;
  const double span_y = bounds.height() - ell;
  if (span_x <= 0.0 || span_y <= 0.0) {
    result.successes = 0;
    return result;
  }
  for (std::size_t t = 0; t < trials; ++t) {
    const Vec2 lo{bounds.lo.x + rng.uniform() * span_x, bounds.lo.y + rng.uniform() * span_y};
    const Box box{lo, {lo.x + ell, lo.y + ell}};
    // Any giant node in the box? Query the circumscribed radius, filter, and
    // stop the scan at the first hit (the visitor template inlines; no
    // std::function in the trial loop).
    const bool occupied = index.for_each_in_radius(
        box.center(), ell * 0.7071067811865476 + 1e-9,
        [&](std::uint32_t j) { return box.contains(giant_points[j]); });
    if (!occupied) ++result.successes;
  }
  return result;
}

}  // namespace sens
