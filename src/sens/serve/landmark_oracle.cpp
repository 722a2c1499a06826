#include "sens/serve/landmark_oracle.hpp"

#include <algorithm>
#include <numeric>

#include "sens/rng/rng.hpp"
#include "sens/support/parallel.hpp"

namespace sens {

namespace {

/// Rng stream tag of the landmark pick (one tag per consumer, rng.hpp).
constexpr std::uint64_t kLandmarkStream = 0x1a2dULL;

/// First min(L, n) entries of a seeded Fisher-Yates shuffle of [0, n):
/// distinct by construction (no coupon-collector stall when L approaches
/// n), deterministic in (seed, n, L).
std::vector<std::uint32_t> pick_uniform(std::size_t n, std::size_t want, std::uint64_t seed) {
  std::vector<std::uint32_t> ids(n);
  std::iota(ids.begin(), ids.end(), 0u);
  if (want > n) want = n;
  Rng rng = Rng::stream(seed, kLandmarkStream);
  for (std::size_t i = 0; i < want; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(rng.uniform_index(n - i));
    std::swap(ids[i], ids[j]);
  }
  ids.resize(want);
  return ids;
}

/// Max-min sweep (LandmarkSelection::kFarthestPoint): seeded start, then
/// argmax of the running min-distance-to-chosen array. Unreached reads as
/// farthest (kInfCost), so components are covered before any is doubled;
/// the < in the argmax scan pins ties to the lowest id. One serial
/// Dijkstra per pivot — thread-count plays no part in the pick.
std::vector<std::uint32_t> pick_farthest(const CsrGraph& g, std::span<const double> arc_weights,
                                         std::size_t want, std::uint64_t seed) {
  const std::size_t n = g.num_vertices();
  if (want > n) want = n;
  std::vector<std::uint32_t> picks;
  picks.reserve(want);
  if (want == 0) return picks;
  Rng rng = Rng::stream(seed, kLandmarkStream);
  auto cur = static_cast<std::uint32_t>(rng.uniform_index(n));
  std::vector<double> min_dist(n, kInfCost);
  std::vector<double> row(n);
  DijkstraScratch scratch;
  for (std::size_t l = 0; l < want; ++l) {
    picks.push_back(cur);
    if (l + 1 == want) break;
    dijkstra_costs_into(g, cur, arc_weights, scratch, row);
    std::uint32_t best = 0;
    double best_dist = -1.0;
    for (std::size_t v = 0; v < n; ++v) {
      if (row[v] < min_dist[v]) min_dist[v] = row[v];
      if (min_dist[v] > best_dist) {
        best_dist = min_dist[v];
        best = static_cast<std::uint32_t>(v);
      }
    }
    cur = best;
  }
  return picks;
}

}  // namespace

LandmarkOracle LandmarkOracle::build(const CsrGraph& g, std::span<const double> arc_weights,
                                     const LandmarkOracleParams& params) {
  // Checked before the farthest-point sweep, which runs Dijkstra itself.
  check_arc_weights(g, arc_weights, "LandmarkOracle::build");
  if (g.num_vertices() == 0) return {};
  std::vector<std::uint32_t> picks =
      params.selection == LandmarkSelection::kFarthestPoint
          ? pick_farthest(g, arc_weights, params.num_landmarks, params.seed)
          : pick_uniform(g.num_vertices(), params.num_landmarks, params.seed);
  return build_with(g, arc_weights, std::move(picks));
}

LandmarkOracle LandmarkOracle::build_with(const CsrGraph& g, std::span<const double> arc_weights,
                                          std::vector<std::uint32_t> landmarks) {
  check_arc_weights(g, arc_weights, "LandmarkOracle::build_with");
  LandmarkOracle oracle;
  const std::size_t n = g.num_vertices();
  if (n == 0) return oracle;
  oracle.landmarks_ = std::move(landmarks);
  const std::size_t num = oracle.landmarks_.size();

  // Landmarks are swept in blocks of kLabelBlock: one batched sweep fills
  // the block's landmark-major rows, which are then transposed into the
  // node-major labels (queries read all landmarks of one vertex at once)
  // before the next block reuses the buffer. Peak memory is the labels plus
  // one block, not a second num x n copy. Each label slot is written
  // exactly once — bit-identical at any thread count.
  constexpr std::size_t kLabelBlock = 8;
  std::vector<double> rows(std::min(num, kLabelBlock) * n);
  oracle.labels_.resize(n * num);
  const std::span<const std::uint32_t> all = oracle.landmarks_;
  for (std::size_t first = 0; first < num; first += kLabelBlock) {
    const std::size_t width = std::min(kLabelBlock, num - first);
    const std::span<double> block(rows.data(), width * n);
    dijkstra_many_into(g, all.subspan(first, width), arc_weights, block);
    parallel_for(n, [&](std::size_t v) {
      double* label = oracle.labels_.data() + v * num + first;
      for (std::size_t l = 0; l < width; ++l) label[l] = block[l * n + v];
    });
  }
  return oracle;
}

}  // namespace sens
