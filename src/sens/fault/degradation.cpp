#include "sens/fault/degradation.hpp"

#include <algorithm>
#include <cmath>

#include "sens/graph/components.hpp"
#include "sens/graph/dijkstra.hpp"
#include "sens/rng/rng.hpp"
#include "sens/support/parallel.hpp"

namespace sens {

namespace {

/// Rng stream tag of the audit's query-pair sample (one tag per consumer).
constexpr std::uint64_t kPairStream = 0xde9a9a17ULL;

/// Fraction of unit grid cells of `window` holding at least one point.
double coverage_fraction(std::span<const Vec2> points, const Box& window) {
  const auto cx = static_cast<std::size_t>(std::max(1.0, std::ceil(window.width())));
  const auto cy = static_cast<std::size_t>(std::max(1.0, std::ceil(window.height())));
  std::vector<std::uint8_t> occupied(cx * cy, 0);
  for (const Vec2 p : points) {
    const auto ix = std::min(cx - 1, static_cast<std::size_t>(std::max(0.0, p.x - window.lo.x)));
    const auto iy = std::min(cy - 1, static_cast<std::size_t>(std::max(0.0, p.y - window.lo.y)));
    occupied[iy * cx + ix] = 1;
  }
  std::size_t hit = 0;
  for (const std::uint8_t o : occupied) hit += o;
  return static_cast<double>(hit) / static_cast<double>(cx * cy);
}

}  // namespace

DegradationReport audit_degradation(const GeoGraph& geo, const Box& window,
                                    const DegradationParams& params) {
  DegradationReport rep;
  const std::size_t n = geo.size();
  rep.nodes = n;
  rep.edges = geo.graph.num_edges();
  if (n == 0) return rep;
  rep.coverage_fraction = coverage_fraction(geo.points, window);

  const Components comps = connected_components(geo.graph);
  rep.giant_fraction = static_cast<double>(comps.largest_size()) / static_cast<double>(n);
  if (n < 2 || params.sample_pairs == 0) return rep;

  const std::vector<double> weights = geo.length_arc_weights();
  const LandmarkOracle oracle = LandmarkOracle::build(
      geo.graph, weights,
      LandmarkOracleParams{params.num_landmarks, params.seed, params.selection});

  // Pair i is a pure function of (seed, i); per-pair sums fold in chunk
  // order (§2.3), so the rates below are --threads-invariant. The n-sized
  // Dijkstra scratch is participant state, not per chunk: chunks usually
  // hold one sampled pair.
  struct Acc {
    double stretch_sum = 0.0;
    std::size_t stretch_pairs = 0;
    std::size_t certified = 0;
    std::size_t disconnected = 0;
  };
  const ChunkLayout layout = chunk_layout(params.sample_pairs);
  std::vector<Acc> partials(layout.count);
  parallel_for_chunks<DijkstraScratch>(params.sample_pairs, [&](DijkstraScratch& scratch,
                                                                 std::size_t begin,
                                                                 std::size_t end) {
    Acc& acc = partials[layout.index_of(begin)];
    for (std::size_t i = begin; i < end; ++i) {
      Rng rng = Rng::stream(params.seed, kPairStream, i);
      const auto s = static_cast<std::uint32_t>(rng.uniform_index(n));
      auto t = static_cast<std::uint32_t>(rng.uniform_index(n));
      while (t == s) t = static_cast<std::uint32_t>(rng.uniform_index(n));
      if (oracle.bounds(s, t).certifies(params.max_stretch)) ++acc.certified;
      const double exact = dijkstra_cost(geo.graph, s, t, weights, scratch);
      if (exact >= kInfCost) {
        ++acc.disconnected;
        continue;
      }
      const double straight = dist(geo.points[s], geo.points[t]);
      if (straight >= params.min_separation) {
        acc.stretch_sum += exact / straight;
        ++acc.stretch_pairs;
      }
    }
  });
  Acc total;
  for (const Acc& p : partials) {
    total.stretch_sum += p.stretch_sum;
    total.stretch_pairs += p.stretch_pairs;
    total.certified += p.certified;
    total.disconnected += p.disconnected;
  }
  const auto q = static_cast<double>(params.sample_pairs);
  rep.certified_rate = static_cast<double>(total.certified) / q;
  rep.disconnected_rate = static_cast<double>(total.disconnected) / q;
  rep.stretch_pairs = total.stretch_pairs;
  if (total.stretch_pairs > 0) {
    rep.mean_stretch = total.stretch_sum / static_cast<double>(total.stretch_pairs);
  }
  return rep;
}

}  // namespace sens
