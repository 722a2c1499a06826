#include "sens/core/nn_sens.hpp"

#include <cmath>
#include <limits>
#include <utility>

#include "sens/obs/obs.hpp"
#include "sens/support/parallel.hpp"

namespace sens {

bool knn_selects(const GridKnn& grid, std::size_t k, std::uint32_t from, std::uint32_t to) {
  if (k == 0) return false;
  const std::span<const Vec2> pts = grid.points();
  const Vec2 q = pts[from];
  const double d2 = dist2(pts[to], q);
  // Rounded up one ulp past sqrt(d2), so r * r >= d2 and every tie at
  // exactly d2 is visited; the exact (d2, index) test below decides them.
  const double r = std::nextafter(std::sqrt(d2), std::numeric_limits<double>::infinity());
  std::size_t before = 0;
  SENS_OBS(std::uint64_t offered = 0;)
  const bool k_before = grid.for_each_in_radius(q, r, [&](std::uint32_t j) {
    SENS_OBS(++offered;)
    if (j == from || j == to) return false;
    const double dj = dist2(pts[j], q);
    return (dj < d2 || (dj == d2 && j < to)) && ++before == k;
  });
  SENS_OBS(obs::add(obs::Counter::kNnLinkPointsCounted, offered);)
  return !k_before;
}

Overlay build_nn_overlay(const NnClassification& cls, std::span<const Vec2> points) {
  OverlaySkeleton skeleton = overlay_skeleton(cls, points.size(), 10.0 * cls.a);
  const std::vector<std::uint32_t>& base = skeleton.overlay.base_index;
  const GridKnn grid(points, cls.k);
  parallel_for(skeleton.edges.size(), [&](std::size_t i) {
    PrescribedEdge& e = skeleton.edges[i];
    const std::uint32_t u = base[e.a];
    const std::uint32_t v = base[e.b];
    e.linked = knn_selects(grid, cls.k, u, v) || knn_selects(grid, cls.k, v, u);
  });
  return finish_overlay(std::move(skeleton), points);
}

Overlay build_nn_overlay(const NnClassification& cls, std::span<const Vec2> points,
                         const KdTree& /*tree*/) {
  return build_nn_overlay(cls, points);
}

NnSensResult build_nn_sens(const NnTileSpec& spec, int tiles_x, int tiles_y, std::uint64_t seed,
                           double buffer_tiles) {
  NnSensResult result;
  const Tiling tiling(spec.side());
  const TileWindow window{0, 0, tiles_x, tiles_y};
  const Box sample_bounds = window.bounds(tiling).expanded(buffer_tiles * spec.side());
  result.points = poisson_point_set(sample_bounds, 1.0, seed);
  result.classification = classify_nn(spec, result.points.points, window);
  result.overlay = build_nn_overlay(result.classification, result.points.points);
  return result;
}

}  // namespace sens
