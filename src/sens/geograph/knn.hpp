// k-nearest-neighbor graph builder: NN(2, k) of Haggstrom-Meester — each
// point establishes undirected edges to the k points nearest to it; the graph
// is the union of those selections.
#pragma once

#include <span>

#include "sens/geograph/geo_graph.hpp"
#include "sens/graph/flat_adjacency.hpp"

namespace sens {

/// Build NN(2, k) over `points`. Ties (measure zero for Poisson inputs) are
/// broken by point index, per the paper's "any tie-breaking mechanism".
[[nodiscard]] GeoGraph build_knn_graph(std::span<const Vec2> points, std::size_t k);

/// Directed out-neighbor lists (each vertex's min(k, n-1) nearest, sorted by
/// (distance, index)) in flat CSR form. Built chunk-parallel with one
/// GridKnn scratch buffer per chunk — allocation-free per query, and every
/// vertex's slice is written independently, so the result is identical at
/// any thread count.
[[nodiscard]] FlatAdjacency knn_selections_flat(std::span<const Vec2> points, std::size_t k);

}  // namespace sens
