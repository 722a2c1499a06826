// Multi-resolution bucket-grid k-NN pyramid over one shared point store.
//
// The hierarchical neighbor graph (sens/hng) queries a *different* k over a
// *sparser* point subset at every level of its hierarchy. A single GridKnn
// is tuned for one (density, k) pair, so the pyramid builds one
// density-tuned grid per level — all of them subset views over the same
// coordinate array (GridKnn's shared-store constructor; zero coordinate
// copies) — and each level reuses GridKnn's exact expanding-ring search
// kernel unchanged. Per-level results are therefore bit-identical to a
// fresh single-level GridKnn over the compacted subset, including the
// (distance, index) tie-breaks
// (`GridKnnPyramidParamTest.LevelsMatchFreshGridKnnOracle`).
//
// The pyramid is mutable for the churn workload (sens/dynamic): the store
// can grow (`append_point` — levels are *rebound*, never rebuilt, since
// grid geometry depends only on member coordinates), vacated slots can be
// recycled (`set_point`), levels can be appended (`push_level`), and each
// level admits/retires members via GridKnn's spill/tombstone path — so
// per-level query results stay a pure function of the live membership,
// bit-identical to a fresh pyramid (`GridKnnPyramidMutation.*`).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sens/geometry/vec2.hpp"
#include "sens/spatial/grid_knn.hpp"

namespace sens {

class GridKnnPyramid {
 public:
  /// One level: which points it indexes (global ids into the shared store)
  /// and the query size its grid is tuned for (any k stays exact).
  struct LevelSpec {
    std::vector<std::uint32_t> members;
    std::size_t expected_k = 1;
  };

  /// Copy `points` once into the shared store, then build one grid per
  /// spec. Member ids must be < points.size(); levels may be empty (their
  /// queries return 0 results) and need not be nested or disjoint.
  GridKnnPyramid(std::span<const Vec2> points, std::span<const LevelSpec> levels);

  GridKnnPyramid(GridKnnPyramid&&) noexcept = default;
  GridKnnPyramid& operator=(GridKnnPyramid&&) noexcept = default;
  GridKnnPyramid(const GridKnnPyramid&) = delete;
  GridKnnPyramid& operator=(const GridKnnPyramid&) = delete;

  [[nodiscard]] std::size_t num_levels() const { return levels_.size(); }

  /// The level-`l` index; `nearest_into` on it returns global point ids.
  [[nodiscard]] const GridKnn& level(std::size_t l) const { return levels_[l]; }

  /// The shared coordinate store all levels index into.
  [[nodiscard]] std::span<const Vec2> points() const { return store_; }
  [[nodiscard]] std::size_t store_size() const { return store_.size(); }

  // --- mutation (sens/dynamic) ---

  /// Append a point to the shared store and return its id. Every level is
  /// rebound to the grown store (contents are preserved across a vector
  /// reallocation, so no grid needs rebuilding).
  std::uint32_t append_point(Vec2 p);

  /// Overwrite the coordinates of slot `id`. Precondition: `id` is not
  /// currently a member of any level (a bucketed member's coordinates are
  /// what locate its bucket). Throws std::out_of_range on a bad id.
  void set_point(std::uint32_t id, Vec2 p);

  /// Admit store slot `id` into level `l` / retire it. Bounds-checked;
  /// GridKnn's membership contract applies.
  void insert(std::size_t l, std::uint32_t id);
  void erase(std::size_t l, std::uint32_t id);

  /// Append an empty level tuned for `expected_k`-sized queries.
  void push_level(std::size_t expected_k);

 private:
  std::vector<Vec2> store_;     ///< declared before levels_: grids span it
  std::vector<GridKnn> levels_;
};

}  // namespace sens
