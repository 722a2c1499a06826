// Landmark (pivot) distance oracle over a weighted graph (DESIGN.md §2.6).
//
// Serving E17-style query loads with one Dijkstra per s-t pair wastes work:
// the sparse overlays are built once and queried millions of times. The
// classic landmark scheme (ALT / Goldberg-Harrelson) precomputes, for L
// pivot vertices, the exact distance from every pivot to every vertex; the
// triangle inequality then brackets any query distance d(s, t):
//
//   lower = max_l |d(l, s) - d(l, t)|      upper = min_l d(l, s) + d(l, t)
//
// Both bounds cost O(L) flat array reads per query. When the bracket is
// tight enough (`Bounds::certifies`: upper / lower within the caller's
// stretch budget) the serve layer answers `upper` — a real path length
// through the best landmark — without touching the graph; otherwise it
// falls back to exact Dijkstra (sens/serve/query_engine.hpp owns that
// policy; the fault audit reuses the same rule).
//
// Determinism: landmarks are drawn from the seeded rng stream, the label
// sweep is batched `dijkstra_many_into` calls over blocks of 8 landmarks
// (bit-identical at any thread count, §2.4), and `bounds` is a pure
// function of the labels — so every oracle answer is a pure function of
// (graph, weights, params, query).
//
// Disconnected pairs are detected exactly whenever some landmark reaches one
// endpoint but not the other (the pair then straddles two components):
// `bounds` returns {inf, inf} and the serve layer answers kDisconnected
// without a fallback Dijkstra. Landmarks reaching neither endpoint carry no
// information and are skipped.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sens/graph/csr.hpp"
#include "sens/graph/dijkstra.hpp"

namespace sens {

/// How the pivot set is chosen (both deterministic in (graph, seed)):
///  * kUniformRandom — first L entries of a seeded Fisher-Yates shuffle;
///  * kFarthestPoint — classic max-min sweep: a pinned seeded start, then
///    repeatedly the vertex maximizing the minimum weighted distance to
///    the chosen set (unreached vertices count as infinitely far, so every
///    component gets a pivot before any component gets two; ties break to
///    the lowest id). Serial by design — L Dijkstra sweeps at build time —
///    so the pick is identical at any --threads. Farthest pivots spread
///    the bracket's coverage and cut the exact-fallback rate (E17/E19).
enum class LandmarkSelection : std::uint8_t {
  kUniformRandom = 0,
  kFarthestPoint = 1,
};

struct LandmarkOracleParams {
  std::size_t num_landmarks = 16;  ///< clamped to the vertex count
  std::uint64_t seed = 0x5eed5eed5eedULL;
  LandmarkSelection selection = LandmarkSelection::kUniformRandom;
};

class LandmarkOracle {
 public:
  /// Lower/upper bracket of d(s, t). `lower == upper` means the answer is
  /// exact (s == t, or a disconnected pair: both bounds infinite).
  struct Bounds {
    double lower = 0.0;
    double upper = kInfCost;

    /// The bracket pins d(s, t) exactly.
    [[nodiscard]] bool exact() const { return lower == upper; }

    /// The one certification rule: `upper` is within `max_stretch` of
    /// d(s, t). An exact bracket certifies trivially; `lower > 0` guards
    /// the ratio test against a zero lower bound.
    [[nodiscard]] bool certifies(double max_stretch) const {
      return exact() || (lower > 0.0 && upper <= max_stretch * lower);
    }
  };

  LandmarkOracle() = default;

  /// Pick landmarks deterministically from the seeded rng stream and label
  /// every vertex with its exact distance to each landmark (batched
  /// `dijkstra_many_into` sweeps). `arc_weights` must be aligned with the arcs of
  /// `g` (CsrGraph::arc_weights); a size mismatch throws
  /// std::invalid_argument, as it does in `build_with`.
  [[nodiscard]] static LandmarkOracle build(const CsrGraph& g,
                                            std::span<const double> arc_weights,
                                            const LandmarkOracleParams& params);

  /// Label a caller-chosen pivot set (ids must be distinct and < n). This
  /// is the epoch path (serve/epoch_engine.hpp): after churn the engine
  /// keeps its surviving pivots and only re-labels, instead of re-picking.
  [[nodiscard]] static LandmarkOracle build_with(const CsrGraph& g,
                                                 std::span<const double> arc_weights,
                                                 std::vector<std::uint32_t> landmarks);

  /// O(L) triangle-inequality bracket of d(s, t); see the header comment
  /// for the disconnection contract. s == t returns {0, 0}.
  [[nodiscard]] Bounds bounds(std::uint32_t s, std::uint32_t t) const {
    if (s == t) return {0.0, 0.0};
    Bounds b;
    const std::size_t num = landmarks_.size();
    const double* ls = labels_.data() + static_cast<std::size_t>(s) * num;
    const double* lt = labels_.data() + static_cast<std::size_t>(t) * num;
    for (std::size_t l = 0; l < num; ++l) {
      const double ds = ls[l];
      const double dt = lt[l];
      const bool s_reached = ds < kInfCost;
      if (s_reached != (dt < kInfCost)) return {kInfCost, kInfCost};  // two components
      if (!s_reached) continue;  // landmark sees neither endpoint
      const double diff = ds > dt ? ds - dt : dt - ds;
      if (diff > b.lower) b.lower = diff;
      const double sum = ds + dt;
      if (sum < b.upper) b.upper = sum;
    }
    return b;
  }

  [[nodiscard]] std::size_t num_landmarks() const { return landmarks_.size(); }
  [[nodiscard]] std::span<const std::uint32_t> landmarks() const { return landmarks_; }

  /// Exact distance from vertex v to landmark l (label array, node-major:
  /// all landmarks of a vertex are contiguous, so one query touches one
  /// cache neighborhood per endpoint).
  [[nodiscard]] double label(std::uint32_t v, std::size_t l) const {
    return labels_[static_cast<std::size_t>(v) * landmarks_.size() + l];
  }

 private:
  std::vector<std::uint32_t> landmarks_;  ///< pivot vertex ids, pick order
  std::vector<double> labels_;            ///< node-major: labels_[v * L + l]
};

}  // namespace sens
