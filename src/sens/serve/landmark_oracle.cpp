#include "sens/serve/landmark_oracle.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "sens/graph/chain_sweep.hpp"
#include "sens/obs/obs.hpp"
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
/// the < in the argmax scan pins ties to the lowest id. A chosen vertex
/// reads -1, below every distance, so picks stay distinct even when all
/// remaining distances are 0 (zero-weight arcs). One serial sweep per
/// pivot — thread-count plays no part in the pick.
std::vector<std::uint32_t> pick_farthest(const CsrGraph& g, std::span<const double> arc_weights,
                                         const ChainIndex* chains, std::size_t want,
                                         std::uint64_t seed) {
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
    min_dist[cur] = -1.0;
    if (chains != nullptr) {
      chain_costs_into(g, *chains, cur, arc_weights, scratch, row);
    } else {
      dijkstra_costs_into(g, cur, arc_weights, scratch, row);
    }
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

/// The chain index of `g` when the dispatch rule picks the chain sweep
/// (DESIGN.md §2.6); one build serves every sweep of one oracle build.
std::optional<ChainIndex> chain_index_for(const CsrGraph& g) {
  if (!chains_dominate(g)) return std::nullopt;
  return ChainIndex(g);
}

/// Node-major labels of `landmarks` (checked by the caller). Landmarks are
/// swept in blocks of kLabelBlock: one batched sweep fills the block's
/// landmark-major rows, which are then transposed into the node-major
/// labels (queries read all landmarks of one vertex at once) before the
/// next block reuses the buffer. Peak memory is the labels plus one block,
/// not a second num x n copy. Each label slot is written exactly once —
/// bit-identical at any thread count.
std::vector<double> sweep_labels(const CsrGraph& g, std::span<const double> arc_weights,
                                 std::span<const std::uint32_t> landmarks,
                                 const ChainIndex* chains) {
  constexpr std::size_t kLabelBlock = 8;
  const std::size_t n = g.num_vertices();
  const std::size_t num = landmarks.size();
  std::vector<double> rows(std::min(num, kLabelBlock) * n);
  std::vector<double> labels(n * num);
  for (std::size_t first = 0; first < num; first += kLabelBlock) {
    const std::size_t width = std::min(kLabelBlock, num - first);
    const std::span<double> block(rows.data(), width * n);
    if (chains != nullptr) {
      chain_many_into(g, *chains, landmarks.subspan(first, width), arc_weights, block);
    } else {
      dijkstra_many_into(g, landmarks.subspan(first, width), arc_weights, block);
    }
    parallel_for(n, [&](std::size_t v) {
      double* label = labels.data() + v * num + first;
      for (std::size_t l = 0; l < width; ++l) label[l] = block[l * n + v];
    });
  }
  return labels;
}

/// Relative rounding margin of `exact_cost` on an n-vertex graph. Every
/// path sum the search compares has at most n terms, and a left-to-right
/// sum of k non-negative doubles lies within gamma_k = k u / (1 - k u) of
/// its real value (u = 2^-53). The heuristic loses about gamma of
/// L(v,l) + L(t,l), and the thresholds about 3 gamma of d(s, t); c = 8(n +
/// 4) u covers both with room for each formula's own roundings (DESIGN.md
/// §2.4). 1 + c is exact for n < 2^49.
double rounding_margin(std::size_t n) { return 8.0 * (static_cast<double>(n) + 4.0) * 0x1p-53; }

/// Landmarks the heuristic of `exact_cost` reads per vertex.
constexpr std::size_t kActiveLandmarks = 4;

/// Absolute slack added to every relaxed threshold: a relative margin is
/// lost when the product underflows, an absolute one of a few subnormal
/// units is not.
constexpr double kSubnormalSlack = 8.0 * std::numeric_limits<double>::denorm_min();

}  // namespace

LandmarkOracle LandmarkOracle::build(const CsrGraph& g, std::span<const double> arc_weights,
                                     const LandmarkOracleParams& params) {
  // Checked before the farthest-point pick, which sweeps the graph itself.
  check_arc_weights(g, arc_weights, "LandmarkOracle::build");
  LandmarkOracle oracle;
  if (g.num_vertices() == 0) return oracle;
  const std::optional<ChainIndex> chains = chain_index_for(g);
  const ChainIndex* index = chains ? &*chains : nullptr;
  oracle.landmarks_ = params.selection == LandmarkSelection::kFarthestPoint
                          ? pick_farthest(g, arc_weights, index, params.num_landmarks, params.seed)
                          : pick_uniform(g.num_vertices(), params.num_landmarks, params.seed);
  oracle.labels_ = sweep_labels(g, arc_weights, oracle.landmarks_, index);
  return oracle;
}

LandmarkOracle LandmarkOracle::build_with(const CsrGraph& g, std::span<const double> arc_weights,
                                          std::vector<std::uint32_t> landmarks) {
  check_arc_weights(g, arc_weights, "LandmarkOracle::build_with");
  for (const std::uint32_t l : landmarks) check_vertex_id(g, l, "LandmarkOracle::build_with");
  std::vector<std::uint32_t> sorted = landmarks;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    throw std::invalid_argument("LandmarkOracle::build_with: repeated landmark id");
  }
  LandmarkOracle oracle;
  if (g.num_vertices() == 0) return oracle;
  const std::optional<ChainIndex> chains = chain_index_for(g);
  oracle.landmarks_ = std::move(landmarks);
  oracle.labels_ = sweep_labels(g, arc_weights, oracle.landmarks_, chains ? &*chains : nullptr);
  return oracle;
}

double LandmarkOracle::exact_cost(const CsrGraph& g, std::span<const double> arc_weights,
                                  std::uint32_t s, std::uint32_t t, double upper,
                                  DijkstraScratch& scratch) const {
  check_vertex_id(g, s, "LandmarkOracle::exact_cost");
  check_vertex_id(g, t, "LandmarkOracle::exact_cost");
  check_arc_weights(g, arc_weights, "LandmarkOracle::exact_cost");
  const std::size_t n = g.num_vertices();
  const std::size_t num = landmarks_.size();
  if (labels_.size() != n * num) {
    throw std::invalid_argument("LandmarkOracle::exact_cost: labels are not of this graph");
  }
  if (s == t) return 0.0;

  // Active landmarks: the largest gaps |L(s,l) - L(t,l)| among landmarks
  // that reach both endpoints, ties to the lower index. Leaving a landmark
  // out only weakens the heuristic.
  std::array<std::size_t, kActiveLandmarks> active{};
  std::array<double, kActiveLandmarks> gap{};
  std::size_t num_active = 0;
  const double* ls = labels_.data() + static_cast<std::size_t>(s) * num;
  const double* lt = labels_.data() + static_cast<std::size_t>(t) * num;
  for (std::size_t l = 0; l < num; ++l) {
    if (!(ls[l] < kInfCost && lt[l] < kInfCost)) continue;
    const double d = std::abs(ls[l] - lt[l]);
    std::size_t i = num_active;
    if (i == kActiveLandmarks) {
      if (!(d > gap[i - 1])) continue;
      --i;  // evict the smallest gap
    } else {
      ++num_active;
    }
    for (; i > 0 && d > gap[i - 1]; --i) {
      gap[i] = gap[i - 1];
      active[i] = active[i - 1];
    }
    gap[i] = d;
    active[i] = l;
  }
  std::array<double, kActiveLandmarks> to_t{};
  for (std::size_t i = 0; i < num_active; ++i) to_t[i] = lt[active[i]];

  // h(v) = max over active l of |L(v,l) - L(t,l)| - c (L(v,l) + L(t,l)),
  // floored at 0: admissible for the floating-point path sums, not only
  // in real arithmetic. A label past overflow gives NaN or -inf, which
  // never wins the max.
  const double c = rounding_margin(n);
  const auto heuristic = [&](std::uint32_t v) {
    const double* lv = labels_.data() + static_cast<std::size_t>(v) * num;
    double h = 0.0;
    for (std::size_t i = 0; i < num_active; ++i) {
      const double a = lv[active[i]];
      const double b = to_t[i];
      const double lower = (a > b ? a - b : b - a) - c * (a + b);
      if (lower > h) h = lower;
    }
    return h;
  };
  const auto relax = [c](double x) { return (1.0 + c) * x + kSubnormalSlack; };

  // A* over DijkstraScratch: `dist` holds the key cost + h and orders the
  // heap, `path_cost` holds the cost. A vertex is pushed only while its
  // key is within the threshold, relax(min(upper, best)); the search
  // stops when the smallest key exceeds it. t is never expanded: no path
  // through t improves on t. Work tallies flush once, as in dijkstra_run.
  SENS_OBS(std::uint32_t obs_pops = 0; std::uint32_t obs_relaxed = 0;)
  scratch.prepare(n);
  if (scratch.path_cost.size() != n) scratch.path_cost.resize(n);
  double* cost = scratch.path_cost.data();
  const double* w = arc_weights.data();
  double best = kInfCost;
  double threshold = relax(upper);
  cost[s] = 0.0;
  scratch.push(s, heuristic(s), s);
  while (!scratch.heap.empty() && scratch.dist[scratch.heap.front()] <= threshold) {
    const std::uint32_t u = scratch.pop_min();
    const double cu = cost[u];
    const std::uint32_t begin = g.arc_begin(u);
    const std::uint32_t end = g.arc_end(u);
    SENS_OBS(++obs_pops; obs_relaxed += end - begin;)
    for (std::uint32_t a = begin; a < end; ++a) {
      const std::uint32_t v = g.arc_target(a);
      const double cv = cu + w[a];
      if (v == t) {
        if (cv < best) {
          best = cv;
          threshold = std::min(threshold, relax(cv));
        }
        continue;
      }
      if (scratch.reached(v) && !(cv < cost[v])) continue;
      const double key = cv + heuristic(v);
      if (!(key <= threshold)) continue;
      cost[v] = cv;
      // Label-correcting: a settled vertex that a smaller cost reaches is
      // pushed again. Same h, smaller cost: the key cannot grow, so an
      // open vertex decreases in place.
      if (!scratch.reached(v) || scratch.pos[v] == DijkstraScratch::kSettled) {
        scratch.push(v, key, u);
      } else {
        scratch.decrease(v, key, u);
      }
    }
  }
  SENS_OBS(obs::add(obs::Counter::kDijkstraRuns, 1);
           obs::add(obs::Counter::kDijkstraHeapPops, obs_pops);
           obs::add(obs::Counter::kDijkstraRelaxedArcs, obs_relaxed);)
  return best;
}

}  // namespace sens
