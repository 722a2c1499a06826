// 2-d kd-tree for k-nearest-neighbor queries, used to build NN(2, k).
//
// Median-split construction (O(n log n)), array-backed nodes, leaf points
// stored contiguously in traversal order (cache-friendly leaf scans),
// recursive query over a bounded candidate set. Ties in distance are broken
// by point index, matching the paper's remark that any measurable tie-break
// rule is acceptable (ties are measure zero under a Poisson process but
// appear in adversarial tests).
//
// The one query, `nearest_into`, writes into a caller-owned buffer and
// reuses a caller-owned `QueryScratch`, so it is allocation-free after the
// first call (DESIGN.md §2.3). Production k-NN runs on `GridKnn`; the tree
// remains for `build_nn_overlay`'s edge oracle and as the independent
// oracle `GridKnn` is tested against.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sens/geometry/vec2.hpp"

namespace sens {

class KdTree {
 public:
  explicit KdTree(std::span<const Vec2> points);

  static constexpr std::uint32_t npos = 0xffffffffu;

  /// Caller-owned scratch for `nearest_into`. One instance per thread (or
  /// participant state of a `parallel_for_chunks<State>` call); reusing it
  /// across queries makes the hot path allocation-free. The contents are opaque: any
  /// query may clobber them.
  struct QueryScratch {
    struct Candidate {
      double d2;
      std::uint32_t idx;
      bool operator<(const Candidate& o) const {
        return d2 != o.d2 ? d2 < o.d2 : idx < o.idx;
      }
    };
    std::vector<Candidate> best;  ///< bounded k-best candidate set
  };

  /// Indices of the k points nearest to `q`, excluding index `exclude`
  /// (pass npos to exclude nothing), sorted by (distance, index), written
  /// into `out` (cleared first; capacity is reused). Returns the number of
  /// indices written: min(k, point count minus the excluded point).
  std::size_t nearest_into(Vec2 q, std::size_t k, std::uint32_t exclude, QueryScratch& scratch,
                           std::vector<std::uint32_t>& out) const;

 private:
  struct Node {
    std::uint32_t begin = 0;   // leaf: range in order_
    std::uint32_t end = 0;
    std::uint32_t left = 0;    // internal: children node ids (0 = none)
    std::uint32_t right = 0;
    float split = 0.0F;
    std::uint8_t axis = 0;
    bool leaf = true;
  };

  std::uint32_t build(std::uint32_t begin, std::uint32_t end, int depth);

  void search(std::uint32_t node, Vec2 q, std::size_t k, std::uint32_t exclude, bool use_heap,
              std::vector<QueryScratch::Candidate>& best, double mindist,
              double* axis_dist) const;

  std::vector<Vec2> points_;            // original order
  std::vector<std::uint32_t> order_;    // leaf-order permutation
  std::vector<Vec2> leaf_points_;       // points_[order_[i]], contiguous per leaf
  std::vector<Node> nodes_;
  std::uint32_t root_ = 0;

  static constexpr std::uint32_t kLeafSize = 8;
  /// Candidate sets up to this k are kept as a sorted array (branchy insert,
  /// no final sort); larger k falls back to a max-heap whose O(log k)
  /// replacement beats the O(k) memmove (NN-SENS queries at k = 188).
  static constexpr std::size_t kSortedInsertMaxK = 48;
};

}  // namespace sens
