#include "sens/geograph/udg.hpp"

#include <cmath>
#include <stdexcept>

#include "sens/graph/flat_adjacency.hpp"
#include "sens/spatial/grid_knn.hpp"

namespace sens {

GeoGraph build_udg(std::span<const Vec2> points, Box /*bounds*/, double radius) {
  if (!(std::isfinite(radius) && radius > 0.0)) {
    throw std::invalid_argument("build_udg: radius must be finite and > 0");
  }
  GeoGraph gg;
  gg.points.assign(points.begin(), points.end());

  // Two-pass count-then-write straight into CSR shape (DESIGN.md §2.3/§2.4):
  // pass 1 counts each vertex's in-radius neighbors, pass 2 writes the
  // disjoint adjacency slices — no intermediate edge-pair list, no global
  // sort, and the result is bit-identical at any thread count. The
  // adjacency is symmetric by construction because dist2 is exact-symmetric
  // in its arguments.
  // Visit order does not matter: from_symmetric_adjacency sorts each list.
  const GridKnn index = GridKnn::for_radius(points, radius);
  FlatAdjacency adj = build_flat_adjacency(
      points.size(),
      [&](std::size_t i) {
        std::size_t count = 0;
        index.for_each_in_radius(points[i], radius, [&](std::uint32_t j) {
          count += j != i;
          return false;
        });
        return count;
      },
      [&](std::size_t i, std::uint32_t* out) {
        index.for_each_in_radius(points[i], radius, [&](std::uint32_t j) {
          if (j != i) *out++ = j;
          return false;
        });
      });
  gg.graph = CsrGraph::from_symmetric_adjacency(std::move(adj));
  return gg;
}

}  // namespace sens
