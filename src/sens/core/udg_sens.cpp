#include "sens/core/udg_sens.hpp"

#include <utility>

namespace sens {

Overlay build_udg_overlay(const UdgClassification& cls, std::span<const Vec2> points) {
  OverlaySkeleton skeleton = overlay_skeleton(cls, points.size(), cls.spec.side);
  const std::vector<std::uint32_t>& base = skeleton.overlay.base_index;
  const double link2 = cls.spec.link_radius * cls.spec.link_radius;
  for (PrescribedEdge& e : skeleton.edges)
    e.linked = dist2(points[base[e.a]], points[base[e.b]]) <= link2;
  return finish_overlay(std::move(skeleton), points);
}

UdgSensResult build_udg_sens(const UdgTileSpec& spec, double lambda, int tiles_x, int tiles_y,
                             std::uint64_t seed) {
  UdgSensResult result;
  const Tiling tiling(spec.side);
  const TileWindow window{0, 0, tiles_x, tiles_y};
  result.points = poisson_point_set(window.bounds(tiling), lambda, seed);
  result.classification = classify_udg(spec, result.points.points, window);
  result.overlay = build_udg_overlay(result.classification, result.points.points);
  return result;
}

}  // namespace sens
