// Exact k-nearest-neighbor and radius queries over one uniform bucket grid.
//
// The batched k-NN selection workload — every point of a Poisson set asks
// for its k nearest — is better served by a bucket grid than a kd-tree: the
// answer is almost always inside the 3x3 cell neighborhood, so a Chebyshev
// ring expansion touches O(k) candidates with no tree traversal at all.
// This engine is exact (not approximate): rings expand until the k-th best
// distance provably beats the nearest unscanned cell boundary, and ties are
// broken by (distance, index), so the neighbor list equals a brute-force
// sort of every point by (distance, index) on any input (asserted by
// `GridKnnParamTest.MatchesBruteForceOracle`). One kernel answers every k:
// a sorted candidate array kept by shift-insertion, on the stack for
// k <= 48 and in the caller's `QueryScratch` above that.
// `knn_selections_flat` drives it chunk-parallel with one scratch per
// chunk (DESIGN.md §2.3).
//
// The same buckets answer fixed-radius queries (`for_each_in_radius`, the
// unit-disk graph builder and the coverage estimator): `for_radius` builds
// cells of side r, so a radius-r query is a 3x3 block of row spans.
//
// Cell size is tuned at construction for an expected query size k (or set
// to the radius by `for_radius`); queries of any k or radius stay exact,
// only ring granularity is off-tune. A second constructor indexes a
// *subset* of a shared point store without copying coordinates: each level
// of the hierarchical neighbor graph (sens/hng, sens/dynamic) is one such
// view over its builder's point array, tuned for that level's density.
//
// Input contract: every indexed coordinate and every query point must be
// finite and every radius finite and > 0, else std::invalid_argument. Cell
// coordinates are clamped in double before the integer cast, so a finite
// query point of any magnitude is defined.
//
// Membership is mutable after construction (`insert_member` /
// `erase_member`, the churn substrate of sens/dynamic): admissions land on
// an unbucketed spill list that every query scans exhaustively — so a
// point outside the built grid box can never be pruned away — and
// retirements tombstone their bucket slot, which the scan loops skip.
// Once tombstones + spill outgrow a fraction of the live set the grid is
// rebuilt from the live members (ascending id). Query results are a pure
// function of the live member set, identical to a freshly built GridKnn
// over it (asserted by `GridKnnMutation.*` / `GridKnnSubsetMutation.*`).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sens/geometry/vec2.hpp"

namespace sens {

class GridKnn {
 public:
  /// Build over `points`, tuning the cell size for queries of ~`expected_k`
  /// neighbors (any k stays exact). Bounds are the point bounding box.
  GridKnn(std::span<const Vec2> points, std::size_t expected_k);

  /// Subset view over a *shared* point store: index only the points named in
  /// `members` (ids into `shared_points`), without copying any coordinates.
  /// Queries return those global ids, with the same (distance, index)
  /// tie-break as the owning constructor — equivalent to a fresh GridKnn
  /// over the compacted subset with ids mapped back (asserted by
  /// `GridKnnSubsetParamTest.LevelsMatchFreshGridKnnOracle`). The caller
  /// must keep `shared_points` alive and unmoved for the lifetime of this
  /// index (or `rebind` it); the grid geometry is tuned to the *subset's*
  /// bounding box and density. Throws std::out_of_range on a member id
  /// outside `shared_points` (`GridKnnContract.SubsetRejectsOutOfRangeMembers`).
  GridKnn(std::span<const Vec2> shared_points, std::span<const std::uint32_t> members,
          std::size_t expected_k);

  /// Radius-query grid over `points`: cells of side `radius`, so a query
  /// of that radius scans a 3x3 block of cells. Same build as the k-tuned
  /// constructor, including its ~4n cell cap; k-NN queries on it stay
  /// exact. Throws std::invalid_argument unless `radius` is finite and > 0.
  static GridKnn for_radius(std::span<const Vec2> points, double radius);

  GridKnn(GridKnn&&) noexcept = default;
  GridKnn& operator=(GridKnn&&) noexcept = default;
  // Copying is deleted: the owning constructor's `points_` span refers to
  // this object's own `owned_points_`, which a member-wise copy would alias.
  GridKnn(const GridKnn&) = delete;
  GridKnn& operator=(const GridKnn&) = delete;

  static constexpr std::uint32_t npos = 0xffffffffu;

  /// Caller-owned scratch; one per thread or parallel-call participant
  /// (`parallel_for_chunks<State>`), contents opaque. Only queries with
  /// k > 48 touch it (their candidate array; smaller k use the stack).
  struct QueryScratch {
    struct Candidate {
      double d2;
      std::uint32_t idx;
    };
    std::vector<Candidate> cands;
  };

  /// Indices of the k points nearest to `q`, excluding index `exclude`
  /// (npos = exclude nothing), sorted by (distance, index), written into
  /// `out` (cleared first; capacity reused). Returns the count written.
  /// Throws std::invalid_argument on a non-finite `q`.
  std::size_t nearest_into(Vec2 q, std::size_t k, std::uint32_t exclude, QueryScratch& scratch,
                           std::vector<std::uint32_t>& out) const;

  /// Invoke `visit(j)` for every live point j with dist(points[j], q) <= r;
  /// `visit` returns true to stop the scan. Returns true when a visitor
  /// stopped it, false when the scan ran to completion. Exhaustive for any
  /// radius: the spill list first, then ceil(r / cell) rings of cells around
  /// q's cell as contiguous row spans, skipping tombstones. Visit order is
  /// not part of the contract. Counts no obs work counters. Throws
  /// std::invalid_argument unless `q` is finite and `r` finite and > 0.
  template <typename Visitor>
  bool for_each_in_radius(Vec2 q, double r, Visitor&& visit) const {
    check_query(q);
    check_radius(r);
    const double r2 = r * r;
    auto offer = [&](std::uint32_t j) { return dist2(points_[j], q) <= r2 && visit(j); };
    for (const std::uint32_t j : spill_) {
      if (offer(j)) return true;
    }
    if (offsets_.empty()) return false;
    // Capped in double at the grid extent, so a huge finite radius cannot
    // overflow the cast; at the cap every cell is in reach.
    const long reach = static_cast<long>(
        std::clamp(std::ceil(r / cell_), 1.0, static_cast<double>(std::max(nx_, ny_))));
    const long cx = cell_coord(q.x - lo_.x, nx_);
    const long cy = cell_coord(q.y - lo_.y, ny_);
    const auto x_lo = static_cast<std::size_t>(std::max(cx - reach, 0L));
    const auto x_end = static_cast<std::size_t>(std::min(cx + reach, nx_ - 1)) + 1;
    const long y_hi = std::min(cy + reach, ny_ - 1);
    for (long y = std::max(cy - reach, 0L); y <= y_hi; ++y) {
      const std::size_t row = static_cast<std::size_t>(y) * static_cast<std::size_t>(nx_);
      const std::uint32_t t1 = offsets_[row + x_end];
      for (std::uint32_t t = offsets_[row + x_lo]; t < t1; ++t) {
        const std::uint32_t j = order_[t];
        if (j != npos && offer(j)) return true;
      }
    }
    return false;
  }

  /// Number of *live* indexed points (the member count for a subset view;
  /// tombstoned members do not count).
  [[nodiscard]] std::size_t size() const { return live_; }
  [[nodiscard]] std::span<const Vec2> points() const { return points_; }

  // --- mutable membership (sens/dynamic) ---

  /// Admit point `id` (an index into the shared store). The coordinates of
  /// a member must not change while it is indexed. Throws std::out_of_range
  /// on an id outside the store and std::invalid_argument on a non-finite
  /// point; admitting an id twice is undefined.
  void insert_member(std::uint32_t id);

  /// Retire member `id`. Throws std::out_of_range on an id outside the
  /// store and std::invalid_argument if `id` is not currently a member.
  void erase_member(std::uint32_t id);

  /// Rebuild the bucket grid from the live member set now (ascending id) —
  /// called automatically once tombstones + spill outgrow the live count;
  /// public so tests can force the compaction path.
  void compact();

  /// Live member ids, ascending — the rebuild order `compact` uses.
  [[nodiscard]] std::vector<std::uint32_t> live_members() const;

  /// Tombstone + spill count (observability for compaction tests).
  [[nodiscard]] std::size_t pending() const { return dead_ + spill_.size(); }

  /// Repoint the shared-store span (subset views only). The new span must
  /// present every member id at unchanged coordinates — e.g. the owning
  /// store grew (possibly reallocating, contents preserved). Grid geometry
  /// and buckets depend only on member coordinates, so no rebuild is
  /// needed. `DynamicHng` rebinds its levels whenever its store grows.
  void rebind(std::span<const Vec2> shared_points) { points_ = shared_points; }

 private:
  GridKnn(std::span<const Vec2> points, std::size_t expected_k, double cell_side);
  void build(std::span<const std::uint32_t> members, std::size_t expected_k);
  static void check_query(Vec2 q);
  static void check_radius(double r);
  [[nodiscard]] std::size_t cell_index(Vec2 p) const;

  /// Cell coordinate along one axis of `n` cells for offset `d` from the
  /// grid origin. The clamp to [0, n-1] happens in double before the
  /// integer cast, so any non-NaN offset (huge or infinite) is defined.
  [[nodiscard]] long cell_coord(double d, long n) const {
    return static_cast<long>(std::clamp(std::floor(d / cell_), 0.0, static_cast<double>(n - 1)));
  }

  void maybe_compact();
  std::size_t collect(Vec2 q, std::size_t k, std::uint32_t exclude,
                      QueryScratch::Candidate* best) const;

  std::vector<Vec2> owned_points_;     ///< owning ctor only; empty for subset views
  std::span<const Vec2> points_;       ///< what the kernel reads (shared or owned)
  Vec2 lo_{0.0, 0.0};
  double cell_ = 1.0;
  double fixed_cell_ = 0.0;  ///< cell side from `for_radius`; 0 = tune for expected_k_
  long nx_ = 1;
  long ny_ = 1;
  std::vector<std::uint32_t> offsets_;  // nx*ny + 1
  std::vector<std::uint32_t> order_;    // indexed point ids grouped by cell (npos = tombstone)
  std::vector<std::uint32_t> spill_;    // admitted since the last (re)build, unbucketed
  std::size_t expected_k_ = 1;
  std::size_t live_ = 0;  // |order_| - dead_ + |spill_|
  std::size_t dead_ = 0;  // tombstones inside order_

  /// Up to this k the kernel's sorted candidate array lives on the stack;
  /// beyond it, in `QueryScratch::cands`. `build` also keys its cell-size
  /// rule on it (~k/4 points per cell up to here, ~k/16 above).
  static constexpr std::size_t kStackMaxK = 48;
};

}  // namespace sens
