// M — google-benchmark microbenchmarks for the computational kernels:
// point-process sampling, graph builders, spatial queries, cluster labeling,
// tile classification, overlay construction and mesh routing.
#include <benchmark/benchmark.h>

#include <cmath>
#include <map>
#include <numeric>
#include <utility>

#include "sens/core/udg_sens.hpp"
#include "sens/geograph/knn.hpp"
#include "sens/geograph/point_set.hpp"
#include "sens/geograph/udg.hpp"
#include "sens/graph/bfs.hpp"
#include "sens/graph/dijkstra.hpp"
#include "sens/hng/hng.hpp"
#include "sens/perc/clusters.hpp"
#include "sens/perc/mesh_router.hpp"
#include "sens/spatial/grid_knn.hpp"
#include "sens/rng/rng.hpp"
#include "sens/spatial/reorder.hpp"
#include "sens/support/parallel.hpp"
#include "sens/tiles/classify.hpp"
#include "sens/tiles/good_prob.hpp"

namespace {

using namespace sens;

/// Shared traversal fixture: the UDG the shortest-path kernels run on
/// (~4k vertices, mean degree ~12.6) plus a deterministic source batch.
const GeoGraph& traversal_graph() {
  static const GeoGraph g = [] {
    const Box w{{0.0, 0.0}, {32.0, 32.0}};
    return build_udg(poisson_point_set(w, 4.0, 21).points, w, 1.0);
  }();
  return g;
}

std::vector<std::uint32_t> traversal_sources(std::size_t count) {
  const std::size_t n = traversal_graph().graph.num_vertices();
  std::vector<std::uint32_t> sources(count);
  for (std::size_t i = 0; i < count; ++i) {
    sources[i] = static_cast<std::uint32_t>((i * 37 + 11) % n);
  }
  return sources;
}

void BM_PoissonPointSet(benchmark::State& state) {
  const double side = static_cast<double>(state.range(0));
  const Box w{{0.0, 0.0}, {side, side}};
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(poisson_point_set(w, 2.0, seed++).points);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(static_cast<double>(state.iterations()) * 2.0 * side * side));
}
BENCHMARK(BM_PoissonPointSet)->Arg(16)->Arg(64);

void BM_BuildUdg(benchmark::State& state) {
  const double side = static_cast<double>(state.range(0));
  const Box w{{0.0, 0.0}, {side, side}};
  const PointSet ps = poisson_point_set(w, 4.0, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_udg(ps.points, w, 1.0).graph.num_edges());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ps.size()));
}
BENCHMARK(BM_BuildUdg)->Arg(16)->Arg(48);

void BM_BuildKnnGraph(benchmark::State& state) {
  const Box w{{0.0, 0.0}, {32.0, 32.0}};
  const PointSet ps = poisson_point_set(w, 2.0, 9);
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_knn_graph(ps.points, k).graph.num_edges());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ps.size()));
}
BENCHMARK(BM_BuildKnnGraph)->Arg(8)->Arg(32);

// The k-NN selection kernel, serial: `GridKnn::nearest_into` with one
// scratch, writing flat slices (what `knn_selections_flat` runs per chunk),
// so the per-query cost shows without the parallel layer.
void BM_KnnSelectScratch(benchmark::State& state) {
  const Box w{{0.0, 0.0}, {32.0, 32.0}};
  const PointSet ps = poisson_point_set(w, 2.0, 9);
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  const GridKnn index(ps.points, k);
  const std::size_t deg = std::min(k, ps.size() - 1);
  FlatAdjacency adj;
  adj.offsets.resize(ps.size() + 1);
  adj.neighbors.resize(ps.size() * deg);
  GridKnn::QueryScratch scratch;
  std::vector<std::uint32_t> found;
  for (auto _ : state) {
    for (std::size_t i = 0; i < ps.size(); ++i) {
      index.nearest_into(ps.points[i], k, static_cast<std::uint32_t>(i), scratch, found);
      std::copy(found.begin(), found.end(),
                adj.neighbors.begin() + static_cast<std::ptrdiff_t>(i * deg));
    }
    benchmark::DoNotOptimize(adj.neighbors.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ps.size()));
}
BENCHMARK(BM_KnnSelectScratch)->Arg(8)->Arg(32)->Arg(188);

// The full chunk-parallel flat builder (tree construction included).
void BM_KnnSelectionsFlat(benchmark::State& state) {
  const Box w{{0.0, 0.0}, {32.0, 32.0}};
  const PointSet ps = poisson_point_set(w, 2.0, 9);
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(knn_selections_flat(ps.points, k).neighbors.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ps.size()));
}
BENCHMARK(BM_KnnSelectionsFlat)->Arg(8)->Arg(32)->Arg(188);

// Size-axis fixture for the scale tier (DESIGN.md §2.8): the UDG over a
// Poisson deployment of ~n nodes whose store is shuffled into deployment
// order (ids by arrival), optionally relabeled along the Hilbert curve.
// Cached per (n, layout) so the 512k build happens once per process.
const GeoGraph& scale_udg(std::int64_t n_target, bool hilbert) {
  static std::map<std::pair<std::int64_t, bool>, GeoGraph> cache;
  const auto key = std::make_pair(n_target, hilbert);
  auto it = cache.find(key);
  if (it == cache.end()) {
    const double side = std::sqrt(static_cast<double>(n_target) / 4.0);
    const Box w{{0.0, 0.0}, {side, side}};
    PointSet ps = poisson_point_set(w, 4.0, 21);
    Rng shuffle = Rng::stream(21, 0xB16, static_cast<std::uint64_t>(n_target));
    for (std::size_t i = ps.size(); i > 1; --i) {
      std::swap(ps.points[i - 1], ps.points[shuffle.uniform_index(i)]);
    }
    std::vector<Vec2> pts = std::move(ps.points);
    if (hilbert) {
      const auto perm = spatial_order_permutation(pts, SpatialOrder::kHilbert);
      pts = apply_permutation(std::span<const Vec2>(pts), perm);
    }
    it = cache.emplace(key, build_udg(pts, w, 1.0)).first;
  }
  return it->second;
}

// The batched full-store k-NN workload over the size axis, Hilbert layout
// on/off (args: n target, hilbert). Query i asks for the 8 nearest of
// point i, so spatially coherent ids turn the ring scans into cache hits —
// the locality dividend bench_e18 measures end to end.
void BM_GridKnnBatch(benchmark::State& state) {
  const GeoGraph& g = scale_udg(state.range(0), state.range(1) != 0);
  const GridKnn index(g.points, 8);
  GridKnn::QueryScratch scratch;
  std::vector<std::uint32_t> found;
  for (auto _ : state) {
    std::size_t touched = 0;
    for (std::uint32_t i = 0; i < g.size(); ++i) {
      touched += index.nearest_into(g.points[i], 8, i, scratch, found);
    }
    benchmark::DoNotOptimize(touched);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.size()));
}
BENCHMARK(BM_GridKnnBatch)
    ->Args({4096, 0})
    ->Args({4096, 1})
    ->Args({65536, 0})
    ->Args({65536, 1})
    ->Args({524288, 0})
    ->Args({524288, 1});

void BM_ClusterLabeling(benchmark::State& state) {
  const auto n = static_cast<std::int32_t>(state.range(0));
  const SiteGrid grid = SiteGrid::random(n, n, 0.65, 3);
  for (auto _ : state) {
    const ClusterLabels labels(grid);
    benchmark::DoNotOptimize(labels.largest_cluster_size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n * n);
}
BENCHMARK(BM_ClusterLabeling)->Arg(128)->Arg(512);

void BM_ClassifyUdgTiles(benchmark::State& state) {
  const UdgTileSpec spec = UdgTileSpec::strict();
  const TileWindow window{0, 0, 32, 32};
  const PointSet ps = poisson_point_set(window.bounds(Tiling(spec.side)), 25.0, 13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(classify_udg(spec, ps.points, window).good_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ps.size()));
}
BENCHMARK(BM_ClassifyUdgTiles);

void BM_ClassifyNnTiles(benchmark::State& state) {
  const NnTileSpec spec = NnTileSpec::paper();
  const TileWindow window{0, 0, 8, 8};
  const PointSet ps = poisson_point_set(window.bounds(Tiling(spec.side())), 1.0, 13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(classify_nn(spec, ps.points, window).good_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ps.size()));
}
BENCHMARK(BM_ClassifyNnTiles);

void BM_BuildUdgSens(benchmark::State& state) {
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        build_udg_sens(UdgTileSpec::strict(), 25.0, 24, 24, seed++).overlay.giant_size());
  }
}
BENCHMARK(BM_BuildUdgSens);

void BM_NnGoodTrial(benchmark::State& state) {
  const NnTileSpec spec = NnTileSpec::paper();
  const Box tile = Box::square({0.0, 0.0}, spec.side());
  std::uint64_t s = 0;
  for (auto _ : state) {
    const auto pts = poisson_points_in_box(tile, 1.0, 17, s++);
    benchmark::DoNotOptimize(spec.good(pts));
  }
}
BENCHMARK(BM_NnGoodTrial);

// The single-source Dijkstra kernel: precomputed per-arc powers,
// caller-owned scratch and output buffer (DESIGN.md §2.4).
void BM_DijkstraCostsInto(benchmark::State& state) {
  const GeoGraph& g = traversal_graph();
  const std::vector<double> weights = g.power_arc_weights(2.0);
  DijkstraScratch scratch;
  std::vector<double> out(g.size());
  std::uint32_t s = 0;
  for (auto _ : state) {
    dijkstra_costs_into(g.graph, s % static_cast<std::uint32_t>(g.size()), weights, scratch, out);
    benchmark::DoNotOptimize(out.data());
    ++s;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.size()));
}
BENCHMARK(BM_DijkstraCostsInto);

// The multi-source stretch kernel through `dijkstra_many_into`, swept over
// the scale-tier size axis with the Hilbert layout on/off (args: n target,
// hilbert; 8 fixed sources, items = settled row-nodes).
void BM_DijkstraMany(benchmark::State& state) {
  const GeoGraph& g = scale_udg(state.range(0), state.range(1) != 0);
  std::vector<std::uint32_t> sources(8);
  for (std::size_t i = 0; i < sources.size(); ++i) {
    sources[i] = static_cast<std::uint32_t>((i * 37 + 11) % g.size());
  }
  const std::vector<double> weights = g.power_arc_weights(2.0);
  std::vector<double> out(sources.size() * g.size());
  for (auto _ : state) {
    dijkstra_many_into(g.graph, sources, weights, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sources.size()) *
                          static_cast<std::int64_t>(g.size()));
}
BENCHMARK(BM_DijkstraMany)
    ->Args({4096, 0})
    ->Args({4096, 1})
    ->Args({65536, 0})
    ->Args({65536, 1})
    ->Args({524288, 0})
    ->Args({524288, 1});

// Multi-source BFS batch (the E7 hop-stretch kernel shape).
void BM_BfsMany(benchmark::State& state) {
  const GeoGraph& g = traversal_graph();
  const auto sources = traversal_sources(static_cast<std::size_t>(state.range(0)));
  std::vector<std::uint32_t> out(sources.size() * g.size());
  for (auto _ : state) {
    bfs_many_into(g.graph, sources, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_BfsMany)->Arg(64);

// The full hierarchical-neighbor-graph construction (DESIGN.md §2.5):
// p-thinning levels, per-level grid build, per-level k-NN linking, CSR
// symmetrization. Baseline recorded in bench/BENCH_hng.json.
void BM_HngBuild(benchmark::State& state) {
  const double side = static_cast<double>(state.range(0));
  const Box w{{0.0, 0.0}, {side, side}};
  const PointSet ps = poisson_point_set(w, 4.0, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        build_hng(ps.points, {.promote_p = 0.25, .k = 3}, 7).geo.graph.num_edges());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ps.size()));
}
BENCHMARK(BM_HngBuild)->Arg(16)->Arg(48);

// The per-level HNG k-NN kernel in isolation (named as the rows of
// bench/BENCH_hng.json): build one density-tuned GridKnn subset view per
// p-thinned nested level of one shared store, then run the HNG linking
// workload (each member of level l queries k into level l+1).
void BM_HngKnnPyramid(benchmark::State& state) {
  const Box w{{0.0, 0.0}, {32.0, 32.0}};
  const PointSet ps = poisson_point_set(w, 4.0, 7);
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  // Levels from the real construction (one source of truth, outside the
  // timed loop); members[l] is the population with level >= l + 2.
  const HngResult hng = build_hng(ps.points, {}, 7);
  std::vector<std::vector<std::uint32_t>> members(hng.top_level >= 2 ? hng.top_level - 1 : 0);
  for (std::uint32_t u = 0; u < hng.level.size(); ++u) {
    for (std::uint32_t l = 2; l <= hng.level[u]; ++l) members[l - 2].push_back(u);
  }
  GridKnn::QueryScratch scratch;
  std::vector<std::uint32_t> found;
  for (auto _ : state) {
    std::vector<GridKnn> levels;
    levels.reserve(members.size());
    for (const auto& m : members) levels.emplace_back(ps.points, m, std::min(k, m.size()));
    std::size_t touched = 0;
    // Members of the population *below* grid l query into grid l.
    for (std::size_t l = 0; l < levels.size(); ++l) {
      if (l == 0) {
        for (std::uint32_t q = 0; q < ps.size(); ++q) {
          touched += levels[0].nearest_into(ps.points[q], k, q, scratch, found);
        }
      } else {
        for (const std::uint32_t q : members[l - 1]) {
          touched += levels[l].nearest_into(ps.points[q], k, q, scratch, found);
        }
      }
    }
    benchmark::DoNotOptimize(touched);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ps.size()));
}
BENCHMARK(BM_HngKnnPyramid)->Arg(3)->Arg(16);

void BM_MeshRoute(benchmark::State& state) {
  const SiteGrid grid = SiteGrid::random(128, 128, 0.75, 5);
  const ClusterLabels labels(grid);
  const MeshRouter router(grid);
  std::vector<Site> giant;
  for (std::size_t i = 0; i < grid.num_sites(); i += 11)
    if (labels.in_largest(grid.site_at(i))) giant.push_back(grid.site_at(i));
  std::size_t i = 0;
  for (auto _ : state) {
    const Site a = giant[i % giant.size()];
    const Site b = giant[(i * 7 + 13) % giant.size()];
    benchmark::DoNotOptimize(router.route(a, b).probes);
    ++i;
  }
}
BENCHMARK(BM_MeshRoute);

}  // namespace

BENCHMARK_MAIN();
