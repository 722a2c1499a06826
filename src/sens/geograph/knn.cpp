#include "sens/geograph/knn.hpp"

#include <algorithm>

#include "sens/spatial/grid_knn.hpp"
#include "sens/support/checked.hpp"
#include "sens/support/parallel.hpp"

namespace sens {

FlatAdjacency knn_selections_flat(std::span<const Vec2> points, std::size_t k) {
  const std::size_t n = points.size();
  FlatAdjacency adj;
  adj.offsets.assign(n + 1, 0);
  if (n == 0) return adj;
  // Every vertex has exactly min(k, n - 1) out-neighbors (self excluded), so
  // the offsets are uniform and each chunk writes its own disjoint slice.
  const std::size_t deg = std::min(k, n - 1);
  (void)checked_u32(n * deg, "knn_selections_flat: selection");  // DESIGN.md §2.8
  for (std::size_t i = 0; i < n; ++i)
    adj.offsets[i + 1] = static_cast<std::uint32_t>((i + 1) * deg);
  adj.neighbors.resize(n * deg);
  if (deg == 0) return adj;

  // GridKnn returns the exact (distance, index)-ordered neighbor lists
  // (`GridKnnParamTest.MatchesBruteForceOracle`); one scratch per
  // participant keeps the hot path allocation-free.
  const GridKnn index(points, k);
  struct FillScratch {
    GridKnn::QueryScratch grid;
    std::vector<std::uint32_t> found;
  };
  parallel_for_chunks<FillScratch>(n, [&](FillScratch& scratch, std::size_t begin,
                                          std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      index.nearest_into(points[i], k, static_cast<std::uint32_t>(i), scratch.grid,
                         scratch.found);
      std::copy(scratch.found.begin(), scratch.found.end(),
                adj.neighbors.begin() + static_cast<std::ptrdiff_t>(i * deg));
    }
  });
  return adj;
}

GeoGraph build_knn_graph(std::span<const Vec2> points, std::size_t k) {
  GeoGraph gg;
  gg.points.assign(points.begin(), points.end());
  // NN(2, k) is the undirected union of the directed selections; the CSR
  // is symmetrized straight from the flat lists (no edge-pair list).
  gg.graph = CsrGraph::from_selections(knn_selections_flat(points, k));
  return gg;
}

}  // namespace sens
