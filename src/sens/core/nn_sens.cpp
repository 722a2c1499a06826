#include "sens/core/nn_sens.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

namespace sens {

namespace {

/// Lazy cache of k-NN selections for the (few) overlay nodes. Queries go
/// through one reused scratch buffer, so only the cached result allocates.
class KnnEdgeOracle {
 public:
  KnnEdgeOracle(const KdTree& tree, std::size_t k) : tree_(&tree), k_(k) {}

  [[nodiscard]] bool has_edge(std::uint32_t u, std::uint32_t v) {
    return selects(u, v) || selects(v, u);
  }

 private:
  [[nodiscard]] bool selects(std::uint32_t from, std::uint32_t to) {
    auto it = cache_.find(from);
    if (it == cache_.end()) {
      tree_->nearest_into(tree_->points()[from], k_, from, scratch_, found_);
      std::sort(found_.begin(), found_.end());
      it = cache_.emplace(from, found_).first;
    }
    return std::binary_search(it->second.begin(), it->second.end(), to);
  }

  const KdTree* tree_;
  std::size_t k_;
  KdTree::QueryScratch scratch_;
  std::vector<std::uint32_t> found_;
  std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> cache_;
};

}  // namespace

Overlay build_nn_overlay(const NnClassification& cls, std::span<const Vec2> points,
                         const KdTree& tree) {
  OverlaySkeleton skeleton = overlay_skeleton(cls, 10.0 * cls.a, /*e_relays=*/true);
  const std::vector<std::uint32_t>& base = skeleton.overlay.base_index;
  KnnEdgeOracle oracle(tree, cls.k);
  for (PrescribedEdge& e : skeleton.edges) e.linked = oracle.has_edge(base[e.a], base[e.b]);
  return finish_overlay(std::move(skeleton), points);
}

NnSensResult build_nn_sens(const NnTileSpec& spec, int tiles_x, int tiles_y, std::uint64_t seed,
                           double buffer_tiles) {
  NnSensResult result;
  const Tiling tiling(spec.side());
  const TileWindow window{0, 0, tiles_x, tiles_y};
  const Box sample_bounds = window.bounds(tiling).expanded(buffer_tiles * spec.side());
  result.points = poisson_point_set(sample_bounds, 1.0, seed);
  result.classification = classify_nn(spec, result.points.points, window);
  const KdTree tree(result.points.points);
  result.overlay = build_nn_overlay(result.classification, result.points.points, tree);
  return result;
}

}  // namespace sens
