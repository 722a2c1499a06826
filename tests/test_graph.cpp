// Tests for sens/graph: CSR construction (builder, flat-adjacency and
// selection paths), BFS, Dijkstra (scratch reuse, arc weights, batched
// multi-source), components, union-find.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "sens/geograph/point_set.hpp"
#include "sens/geograph/udg.hpp"
#include "sens/graph/bfs.hpp"
#include "sens/graph/chain_sweep.hpp"
#include "sens/graph/components.hpp"
#include "sens/graph/csr.hpp"
#include "sens/graph/dijkstra.hpp"
#include "sens/graph/flat_adjacency.hpp"
#include "sens/rng/rng.hpp"
#include "sens/support/parallel.hpp"

#include "union_find.hpp"

namespace sens {
namespace {

using testing_ref::UnionFind;

using Edges = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

/// Random multigraph edge list (duplicates and self loops included) for
/// adversarial normalization tests.
std::vector<std::pair<std::uint32_t, std::uint32_t>> random_edges(std::size_t n,
                                                                  std::size_t count,
                                                                  std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  edges.reserve(count);
  for (std::size_t e = 0; e < count; ++e)
    edges.emplace_back(static_cast<std::uint32_t>(rng.uniform_index(n)),
                       static_cast<std::uint32_t>(rng.uniform_index(n)));
  return edges;
}

/// Index of the arc u -> v by binary search over u's sorted neighbor list —
/// the reference for the arc view. Precondition: the edge exists.
std::size_t arc_index(const CsrGraph& g, std::uint32_t u, std::uint32_t v) {
  const auto nbrs = g.neighbors(u);
  const auto it = std::lower_bound(nbrs.begin(), nbrs.end(), v);
  return g.arc_begin(u) + static_cast<std::size_t>(it - nbrs.begin());
}

/// Independent reference rows: a fresh scratch plus the `_into` call.
std::vector<std::uint32_t> fresh_bfs_row(const CsrGraph& g, std::uint32_t source) {
  BfsScratch scratch;
  std::vector<std::uint32_t> out(g.num_vertices());
  bfs_distances_into(g, source, scratch, out);
  return out;
}

std::vector<double> fresh_dijkstra_row(const CsrGraph& g, std::uint32_t source,
                                       std::span<const double> w) {
  DijkstraScratch scratch;
  std::vector<double> out(g.num_vertices());
  dijkstra_costs_into(g, source, w, scratch, out);
  return out;
}

CsrGraph path_graph(std::size_t n) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (std::uint32_t i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  return CsrGraph::from_edges(n, std::move(edges));
}

TEST(Csr, BuildNormalizesEdges) {
  // Duplicates, reversed duplicates and self loops all collapse.
  const CsrGraph g = CsrGraph::from_edges(4, {{0, 1}, {1, 0}, {0, 1}, {2, 2}, {1, 3}});
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(2, 2));
  EXPECT_FALSE(g.has_edge(0, 3));
  EXPECT_EQ(g.degree(1), 2u);
  EXPECT_EQ(g.degree(2), 0u);
}

TEST(Csr, OutOfRangeThrows) {
  EXPECT_THROW((void)CsrGraph::from_edges(2, {{0, 5}}), std::out_of_range);
}

TEST(Csr, NeighborsSortedAndEdgeList) {
  const CsrGraph g = CsrGraph::from_edges(5, {{3, 1}, {3, 0}, {3, 4}, {2, 3}});
  const auto nbrs = g.neighbors(3);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  EXPECT_EQ(g.max_degree(), 4u);
  EXPECT_DOUBLE_EQ(g.mean_degree(), 2.0 * 4.0 / 5.0);
  const auto edges = g.edge_list();
  EXPECT_EQ(edges.size(), 4u);
  for (const auto& [u, v] : edges) EXPECT_LT(u, v);
}

TEST(Bfs, DistancesOnPath) {
  const CsrGraph g = path_graph(6);
  const auto dist = fresh_bfs_row(g, 0);
  for (std::uint32_t i = 0; i < 6; ++i) EXPECT_EQ(dist[i], i);
}

TEST(Bfs, Unreachable) {
  const CsrGraph g = CsrGraph::from_edges(4, {{0, 1}, {2, 3}});
  BfsScratch scratch;
  EXPECT_EQ(fresh_bfs_row(g, 0)[2], kUnreachable);
  std::vector<std::uint32_t> path{7};  // stale contents must vanish
  EXPECT_FALSE(bfs_path_into(g, 0, 3, scratch, path));
  EXPECT_TRUE(path.empty());
}

TEST(Bfs, PathValidAndShortest) {
  // Diamond with a long detour: 0-1-3, 0-2-3, 0-4-5-3.
  const CsrGraph g = CsrGraph::from_edges(6, {{0, 1}, {1, 3}, {0, 2}, {2, 3}, {0, 4}, {4, 5}, {5, 3}});
  BfsScratch scratch;
  std::vector<std::uint32_t> path;
  ASSERT_TRUE(bfs_path_into(g, 0, 3, scratch, path));
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path.front(), 0u);
  EXPECT_EQ(path.back(), 3u);
  for (std::size_t i = 1; i < path.size(); ++i) EXPECT_TRUE(g.has_edge(path[i - 1], path[i]));
}

TEST(Bfs, PathSourceEqualsTarget) {
  const CsrGraph g = path_graph(3);
  BfsScratch scratch;
  std::vector<std::uint32_t> path;
  ASSERT_TRUE(bfs_path_into(g, 1, 1, scratch, path));
  ASSERT_EQ(path.size(), 1u);
  EXPECT_EQ(path[0], 1u);
}

TEST(Dijkstra, MatchesBfsWithUnitWeights) {
  Rng rng(17);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  const std::size_t n = 80;
  for (int e = 0; e < 200; ++e)
    edges.emplace_back(static_cast<std::uint32_t>(rng.uniform_index(n)),
                       static_cast<std::uint32_t>(rng.uniform_index(n)));
  const CsrGraph g = CsrGraph::from_edges(n, std::move(edges));
  const std::vector<double> unit(g.num_arcs(), 1.0);
  const auto hops = fresh_bfs_row(g, 0);
  const auto costs = fresh_dijkstra_row(g, 0, unit);
  for (std::size_t v = 0; v < n; ++v) {
    if (hops[v] == kUnreachable) {
      EXPECT_EQ(costs[v], kInfCost);
    } else {
      EXPECT_DOUBLE_EQ(costs[v], static_cast<double>(hops[v]));
    }
  }
}

TEST(Dijkstra, WeightedShortcut) {
  // 0-1-2 cheap vs direct 0-2 expensive.
  const CsrGraph g = CsrGraph::from_edges(3, {{0, 1}, {1, 2}, {0, 2}});
  const std::vector<double> w = g.arc_weights([](std::uint32_t a, std::uint32_t b) {
    return (a == 0 && b == 2) || (a == 2 && b == 0) ? 10.0 : 1.0;
  });
  DijkstraScratch scratch;
  EXPECT_DOUBLE_EQ(dijkstra_cost(g, 0, 2, w, scratch), 2.0);
  std::vector<std::uint32_t> path;
  EXPECT_TRUE(dijkstra_path_into(g, 0, 2, w, scratch, path));
  EXPECT_EQ(path, (std::vector<std::uint32_t>{0, 1, 2}));
}

TEST(Dijkstra, UnreachableIsInf) {
  const CsrGraph g = CsrGraph::from_edges(3, {{0, 1}});
  const std::vector<double> w(g.num_arcs(), 1.0);
  DijkstraScratch scratch;
  EXPECT_EQ(dijkstra_cost(g, 0, 2, w, scratch), kInfCost);
  std::vector<std::uint32_t> path;
  EXPECT_FALSE(dijkstra_path_into(g, 0, 2, w, scratch, path));
  EXPECT_TRUE(path.empty());
}

TEST(Csr, BuilderMatchesFromEdges) {
  const auto edges = random_edges(50, 300, 23);  // dups + self loops likely
  CsrGraph::Builder b;
  for (const auto& [u, v] : edges) b.add_edge(u, v);
  const CsrGraph built = std::move(b).build(50);
  const CsrGraph reference = CsrGraph::from_edges(50, edges);
  EXPECT_EQ(built.edge_list(), reference.edge_list());
  EXPECT_EQ(built.num_edges(), reference.num_edges());
}

TEST(Csr, BuilderOutOfRangeThrows) {
  CsrGraph::Builder b;
  b.add_edge(0, 7);
  EXPECT_THROW((void)std::move(b).build(3), std::out_of_range);
}

TEST(Csr, FromSymmetricAdjacencyAdoptsAndSorts) {
  // 0-1, 0-2, 1-2 with deliberately unsorted per-vertex lists.
  FlatAdjacency adj;
  adj.offsets = {0, 2, 4, 6};
  adj.neighbors = {2, 1, 2, 0, 1, 0};
  const CsrGraph g = CsrGraph::from_symmetric_adjacency(std::move(adj));
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  const auto nbrs = g.neighbors(0);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  EXPECT_TRUE(g.has_edge(1, 2));
}

TEST(Csr, FromSymmetricAdjacencyMismatchThrows) {
  FlatAdjacency adj;
  adj.offsets = {0, 2};
  adj.neighbors = {1};
  EXPECT_THROW((void)CsrGraph::from_symmetric_adjacency(std::move(adj)), std::invalid_argument);
}

TEST(Csr, FromSelectionsMatchesFromEdges) {
  // Directed selection lists with self entries and duplicate targets; the
  // union must equal the normalized from_edges graph.
  const std::size_t n = 40;
  Rng rng(7);
  FlatAdjacency sel;
  sel.offsets.assign(n + 1, 0);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  for (std::uint32_t u = 0; u < n; ++u) {
    const std::size_t deg = rng.uniform_index(6);
    for (std::size_t d = 0; d < deg; ++d) {
      const auto v = static_cast<std::uint32_t>(rng.uniform_index(n));  // may be u
      sel.neighbors.push_back(v);
      pairs.emplace_back(u, v);
    }
    sel.offsets[u + 1] = static_cast<std::uint32_t>(sel.neighbors.size());
  }
  // Duplicate an existing selection outright.
  if (!sel.neighbors.empty()) {
    const std::uint32_t u = 0;
    if (sel.degree(u) > 0) {
      pairs.emplace_back(u, sel[u][0]);
    }
  }
  const CsrGraph g = CsrGraph::from_selections(std::move(sel));
  const CsrGraph reference = CsrGraph::from_edges(n, std::move(pairs));
  EXPECT_EQ(g.edge_list(), reference.edge_list());
}

TEST(Csr, FromSelectionsOutOfRangeThrows) {
  FlatAdjacency sel;
  sel.offsets = {0, 1, 1};
  sel.neighbors = {5};
  EXPECT_THROW((void)CsrGraph::from_selections(std::move(sel)), std::out_of_range);
}

TEST(Csr, FromSelectionsMismatchThrows) {
  FlatAdjacency sel;
  sel.offsets = {0, 2, 2};  // claims two entries, provides one
  sel.neighbors = {1};
  EXPECT_THROW((void)CsrGraph::from_selections(std::move(sel)), std::invalid_argument);
}

TEST(Csr, HasEdgeScansEitherEndpoint) {
  // Star: hub 0 with high degree vs leaves with degree 1 — both lookup
  // directions must agree whichever endpoint is cheaper to scan.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (std::uint32_t v = 1; v < 30; ++v) edges.emplace_back(0, v);
  edges.emplace_back(7, 9);
  const CsrGraph g = CsrGraph::from_edges(30, std::move(edges));
  EXPECT_TRUE(g.has_edge(0, 17));
  EXPECT_TRUE(g.has_edge(17, 0));
  EXPECT_TRUE(g.has_edge(7, 9));
  EXPECT_TRUE(g.has_edge(9, 7));
  EXPECT_FALSE(g.has_edge(7, 8));
  EXPECT_FALSE(g.has_edge(8, 7));
}

TEST(Csr, ArcViewConsistent) {
  const CsrGraph g = CsrGraph::from_edges(5, {{0, 1}, {0, 3}, {1, 3}, {2, 4}});
  EXPECT_EQ(g.num_arcs(), 8u);
  for (std::uint32_t u = 0; u < g.num_vertices(); ++u) {
    const auto nbrs = g.neighbors(u);
    EXPECT_EQ(g.arc_end(u) - g.arc_begin(u), nbrs.size());
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      const std::size_t arc = g.arc_begin(u) + i;
      EXPECT_EQ(g.arc_target(arc), nbrs[i]);
      EXPECT_EQ(arc_index(g, u, nbrs[i]), arc);
    }
  }
}

/// Every arc `a` of vertex `u` must carry exactly `w(u, arc_target(a))`,
/// bit for bit: Dijkstra reads `arcs[a]` as the weight of that arc.
template <typename WeightFn>
void expect_arcs_aligned(const CsrGraph& g, std::span<const double> arcs, WeightFn&& w) {
  ASSERT_EQ(arcs.size(), g.num_arcs());
  for (std::uint32_t u = 0; u < g.num_vertices(); ++u) {
    for (std::uint32_t a = g.arc_begin(u); a < g.arc_end(u); ++a) {
      const double want = w(u, g.arc_target(a));
      EXPECT_EQ(0, std::memcmp(&arcs[a], &want, sizeof(double))) << "u=" << u << " arc=" << a;
    }
  }
}

// Weights are data (DESIGN.md §2.4): the per-arc arrays every Dijkstra
// caller builds must be aligned with the CSR arcs.
TEST(Dijkstra, ArcWeightsAlignWithCsrArcs) {
  const std::size_t n = 60;
  const CsrGraph g = CsrGraph::from_edges(n, random_edges(n, 150, 31));
  auto weight = [](std::uint32_t u, std::uint32_t v) {
    return 1.0 + 0.25 * static_cast<double>((u * 31 + v * 17) % 13);
  };
  expect_arcs_aligned(g, g.arc_weights(weight), weight);

  const Box window{{0.0, 0.0}, {6.0, 6.0}};
  const GeoGraph udg = build_udg(poisson_point_set(window, 4.0, 0xA11C).points, window, 1.0);
  ASSERT_GT(udg.graph.num_edges(), 0u);
  expect_arcs_aligned(udg.graph, udg.length_arc_weights(),
                      [&](std::uint32_t u, std::uint32_t v) { return udg.edge_length(u, v); });
  for (const double beta : {2.0, 3.5}) {
    expect_arcs_aligned(udg.graph, udg.power_arc_weights(beta),
                        [&](std::uint32_t u, std::uint32_t v) {
                          return std::pow(udg.edge_length(u, v), beta);
                        });
  }
}

TEST(Dijkstra, ScratchReuseAcrossSourcesOnDisconnectedGraph) {
  // Two components; consecutive sources from different components through
  // one scratch must match fresh runs (the epoch bump must fully
  // invalidate the previous source's state).
  const CsrGraph g = CsrGraph::from_edges(7, {{0, 1}, {1, 2}, {3, 4}, {4, 5}, {5, 6}});
  const std::vector<double> w(g.num_arcs(), 1.0);
  DijkstraScratch scratch;
  std::vector<double> out(g.num_vertices());
  for (const std::uint32_t s : {0u, 3u, 6u, 0u}) {
    dijkstra_costs_into(g, s, w, scratch, out);
    const auto fresh = fresh_dijkstra_row(g, s, w);
    for (std::size_t v = 0; v < fresh.size(); ++v) EXPECT_EQ(out[v], fresh[v]);
  }
  // Early-exit and path queries share the same scratch.
  EXPECT_EQ(dijkstra_cost(g, 0, 5, w, scratch), kInfCost);
  EXPECT_DOUBLE_EQ(dijkstra_cost(g, 3, 6, w, scratch), 3.0);
  std::vector<std::uint32_t> path;
  EXPECT_FALSE(dijkstra_path_into(g, 6, 1, w, scratch, path));
  EXPECT_TRUE(path.empty());
  EXPECT_TRUE(dijkstra_path_into(g, 3, 6, w, scratch, path));
  EXPECT_EQ(path, (std::vector<std::uint32_t>{3, 4, 5, 6}));
}

TEST(Dijkstra, ManyMatchesSerialAndBitIdenticalAcrossThreadCounts) {
  const std::size_t n = 200;
  const CsrGraph g = CsrGraph::from_edges(n, random_edges(n, 600, 41));
  const std::vector<double> w = g.arc_weights([](std::uint32_t u, std::uint32_t v) {
    return 0.5 + static_cast<double>((u ^ v) % 7);
  });
  std::vector<std::uint32_t> sources;
  for (std::uint32_t s = 0; s < n; s += 11) sources.push_back(s);

  std::vector<double> serial;
  serial.reserve(sources.size() * n);
  for (const std::uint32_t s : sources) {
    const auto row = fresh_dijkstra_row(g, s, w);
    serial.insert(serial.end(), row.begin(), row.end());
  }
  for (const unsigned threads : {1u, 2u, 8u}) {
    set_thread_count(threads);
    std::vector<double> batched(sources.size() * n);
    dijkstra_many_into(g, sources, w, batched);
    ASSERT_EQ(batched.size(), serial.size());
    EXPECT_EQ(0, std::memcmp(batched.data(), serial.data(), serial.size() * sizeof(double)));
  }
  set_thread_count(0);
}

TEST(Dijkstra, ManyRejectsMisSizedOutput) {
  // 3 sources over an n-vertex graph need 3n slots; an n-slot buffer would
  // be written past its end, so the call throws before any row is written.
  const CsrGraph g = path_graph(10);
  const std::vector<double> w = g.arc_weights([](std::uint32_t, std::uint32_t) { return 1.0; });
  const std::vector<std::uint32_t> sources = {0, 4, 9};
  std::vector<double> out(g.num_vertices(), -1.0);
  EXPECT_THROW(dijkstra_many_into(g, sources, w, out), std::invalid_argument);
  EXPECT_EQ(out[0], -1.0);
  std::vector<double> exact(sources.size() * g.num_vertices());
  EXPECT_NO_THROW(dijkstra_many_into(g, sources, w, exact));
}

TEST(Dijkstra, ManyRejectsMisalignedWeights) {
  const CsrGraph g = path_graph(4);  // 3 edges, 6 arcs
  const std::vector<std::uint32_t> sources = {0, 3};
  std::vector<double> out(sources.size() * g.num_vertices());
  EXPECT_THROW(dijkstra_many_into(g, sources, std::vector<double>(2, 1.0), out),
               std::invalid_argument);
}

TEST(Dijkstra, EntryPointsRejectOutOfRangeIds) {
  // An id >= n would index past every per-vertex array of the scratch, so
  // each entry point throws before its first push; the scratch stays cold.
  const CsrGraph g = path_graph(10);
  const std::vector<double> w = g.arc_weights([](std::uint32_t, std::uint32_t) { return 1.0; });
  DijkstraScratch scratch;
  std::vector<double> row(g.num_vertices(), -1.0);
  std::vector<std::uint32_t> path = {7};
  for (const std::uint32_t bad : {10u, 11u, 0xffffffffu}) {
    EXPECT_THROW(dijkstra_costs_into(g, bad, w, scratch, row), std::out_of_range);
    EXPECT_THROW((void)dijkstra_cost(g, bad, 0, w, scratch), std::out_of_range);
    EXPECT_THROW((void)dijkstra_cost(g, 0, bad, w, scratch), std::out_of_range);
    EXPECT_THROW(dijkstra_path_into(g, bad, 0, w, scratch, path), std::out_of_range);
    EXPECT_THROW(dijkstra_path_into(g, 0, bad, w, scratch, path), std::out_of_range);
  }
  EXPECT_EQ(row[0], -1.0);
  EXPECT_EQ(path, std::vector<std::uint32_t>{7});
  EXPECT_TRUE(scratch.stamp.empty());
  EXPECT_EQ(dijkstra_cost(g, 0, 9, w, scratch), 9.0);
}

TEST(Dijkstra, ManyRejectsOutOfRangeSourceBeforeDispatch) {
  // The whole span is checked first: the bad id is last, and no earlier
  // row is written.
  const CsrGraph g = path_graph(10);
  const std::vector<double> w = g.arc_weights([](std::uint32_t, std::uint32_t) { return 1.0; });
  const std::vector<std::uint32_t> sources = {0, 4, 10};
  std::vector<double> out(sources.size() * g.num_vertices(), -1.0);
  EXPECT_THROW(dijkstra_many_into(g, sources, w, out), std::out_of_range);
  EXPECT_TRUE(std::all_of(out.begin(), out.end(), [](double d) { return d == -1.0; }));
}

// --- ChainSweep: chain_costs_into / chain_many_into against Dijkstra.

TEST(ChainSweep, MatchesDijkstraFromEverySource) {
  // Small graphs holding every shape the chain index tells apart: branches
  // joined directly and through chains, trees hanging from a branch and
  // from a chain interior, loop chains at one branch, pure cycles with and
  // without trees, tree components, and isolated vertices. Every source,
  // every vertex, bit for bit; the asymmetric weights catch an arc taken
  // in the wrong direction.
  struct Shape {
    const char* name;
    std::size_t n;
    Edges edges;
  };
  const std::vector<Shape> shapes = {
      {"theta with trees", 11,
       {{0, 2}, {2, 1}, {0, 3}, {3, 4}, {4, 1}, {0, 1}, {2, 5}, {5, 6}, {0, 7}, {7, 8}, {7, 9},
        {9, 10}}},
      {"figure eight", 8, {{0, 1}, {1, 2}, {2, 0}, {0, 3}, {3, 4}, {4, 5}, {5, 0}, {4, 6}}},
      {"cycle with trees", 9, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {0, 5}, {5, 6}, {2, 7}}},
      {"pieces", 12,
       {{0, 1}, {2, 3}, {3, 4}, {3, 5}, {5, 6}, {7, 8}, {8, 9}, {9, 10}, {10, 7}}},
      {"K4 and a pendant", 5, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}, {3, 4}}},
  };
  for (const Shape& shape : shapes) {
    const CsrGraph g = CsrGraph::from_edges(shape.n, shape.edges);
    const ChainIndex chains(g);
    for (const bool symmetric : {true, false}) {
      const std::vector<double> w = g.arc_weights([&](std::uint32_t u, std::uint32_t v) {
        const std::uint32_t lo = std::min(u, v);
        const std::uint32_t hi = std::max(u, v);
        if (symmetric) return 1.0 + 0.1 * static_cast<double>((lo * 7 + hi) % 10);
        return 1.0 + 0.37 * static_cast<double>(u) + 0.011 * static_cast<double>(v);
      });
      DijkstraScratch scratch;
      std::vector<double> got(shape.n);
      for (std::uint32_t s = 0; s < shape.n; ++s) {
        chain_costs_into(g, chains, s, w, scratch, got);
        const std::vector<double> want = fresh_dijkstra_row(g, s, w);
        EXPECT_EQ(0, std::memcmp(got.data(), want.data(), shape.n * sizeof(double)))
            << shape.name << (symmetric ? "" : ", asymmetric") << ", source " << s;
      }
    }
  }
}

TEST(ChainSweep, ManyMatchesSerialAndBitIdenticalAcrossThreadCounts) {
  // A sparse random graph: a path backbone with few chords leaves most
  // vertices of degree <= 2.
  const std::size_t n = 300;
  Edges edges = random_edges(n, 40, 43);
  for (std::uint32_t i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  const CsrGraph g = CsrGraph::from_edges(n, std::move(edges));
  ASSERT_TRUE(chains_dominate(g));
  const std::vector<double> w = g.arc_weights([](std::uint32_t u, std::uint32_t v) {
    return 0.5 + static_cast<double>((u ^ v) % 7);
  });
  std::vector<std::uint32_t> sources;
  for (std::uint32_t s = 0; s < n; s += 7) sources.push_back(s);
  std::vector<double> serial;
  for (const std::uint32_t s : sources) {
    const auto row = fresh_dijkstra_row(g, s, w);
    serial.insert(serial.end(), row.begin(), row.end());
  }
  const ChainIndex chains(g);
  for (const unsigned threads : {1u, 2u, 8u}) {
    set_thread_count(threads);
    std::vector<double> batched(sources.size() * n);
    chain_many_into(g, chains, sources, w, batched);
    EXPECT_EQ(0, std::memcmp(batched.data(), serial.data(), serial.size() * sizeof(double)))
        << threads << " threads";
  }
  set_thread_count(0);
}

TEST(ChainSweep, DispatchRuleCountsLowDegreeVertices) {
  // At least half the vertices of degree <= 2: a path yes, K4 no, and a
  // star with 3 leaves sits exactly on the line (3 of 4).
  EXPECT_TRUE(chains_dominate(path_graph(10)));
  EXPECT_FALSE(chains_dominate(
      CsrGraph::from_edges(4, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}})));
  EXPECT_TRUE(chains_dominate(CsrGraph::from_edges(4, {{0, 1}, {0, 2}, {0, 3}})));
  EXPECT_FALSE(chains_dominate(CsrGraph::from_edges(
      6, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}, {4, 5}, {0, 4}})));
}

TEST(ChainSweep, RejectsBadInputBeforeAnyWork) {
  const CsrGraph g = path_graph(10);
  const CsrGraph other = path_graph(11);
  const ChainIndex chains(g);
  const ChainIndex wrong(other);
  const std::vector<double> w = g.arc_weights([](std::uint32_t, std::uint32_t) { return 1.0; });
  DijkstraScratch scratch;
  std::vector<double> row(g.num_vertices(), -1.0);
  std::vector<double> short_row(g.num_vertices() - 1, -1.0);
  EXPECT_THROW(chain_costs_into(g, chains, 0, w, scratch, short_row), std::invalid_argument);
  EXPECT_THROW(chain_costs_into(g, wrong, 0, w, scratch, row), std::invalid_argument);
  EXPECT_THROW(chain_costs_into(g, chains, 0, std::vector<double>(3, 1.0), scratch, row),
               std::invalid_argument);
  for (const std::uint32_t bad : {10u, 0xffffffffu}) {
    EXPECT_THROW(chain_costs_into(g, chains, bad, w, scratch, row), std::out_of_range);
  }
  EXPECT_EQ(row[0], -1.0);
  EXPECT_TRUE(scratch.stamp.empty());

  const std::vector<std::uint32_t> sources = {0, 4, 10};
  std::vector<double> out(sources.size() * g.num_vertices(), -1.0);
  EXPECT_THROW(chain_many_into(g, chains, sources, w, out), std::out_of_range);
  const std::vector<std::uint32_t> two = {0, 4};
  const std::span<double> fits = std::span(out).first(2 * g.num_vertices());
  EXPECT_THROW(chain_many_into(g, wrong, two, w, fits), std::invalid_argument);
  EXPECT_THROW(chain_many_into(g, chains, two, w, out), std::invalid_argument);
  EXPECT_THROW(chain_many_into(g, chains, two, std::vector<double>(3, 1.0), fits),
               std::invalid_argument);
  EXPECT_TRUE(std::all_of(out.begin(), out.end(), [](double d) { return d == -1.0; }));
}

TEST(Bfs, ManyRejectsMisSizedOutput) {
  const CsrGraph g = path_graph(10);
  const std::vector<std::uint32_t> sources = {0, 4, 9};
  std::vector<std::uint32_t> out(g.num_vertices(), 7u);
  EXPECT_THROW(bfs_many_into(g, sources, out), std::invalid_argument);
  EXPECT_EQ(out[0], 7u);
}

TEST(Bfs, EntryPointsRejectOutOfRangeIds) {
  // The BFS twin of Dijkstra.EntryPointsRejectOutOfRangeIds: an id >= n
  // would write dist[source] past the scratch, so each entry point throws
  // before it touches the scratch or the caller's buffers.
  const CsrGraph g = path_graph(10);
  BfsScratch scratch;
  std::vector<std::uint32_t> row(g.num_vertices(), 7u);
  std::vector<std::uint32_t> path = {7};
  for (const std::uint32_t bad : {10u, 11u, 0xffffffffu}) {
    EXPECT_THROW(bfs_distances_into(g, bad, scratch, row), std::out_of_range);
    EXPECT_THROW(bfs_path_into(g, bad, 0, scratch, path), std::out_of_range);
    EXPECT_THROW(bfs_path_into(g, 0, bad, scratch, path), std::out_of_range);
  }
  EXPECT_EQ(row[0], 7u);
  EXPECT_EQ(path, std::vector<std::uint32_t>{7});
  EXPECT_TRUE(scratch.stamp.empty());
  ASSERT_TRUE(bfs_path_into(g, 0, 9, scratch, path));
  EXPECT_EQ(path.size(), 10u);
}

TEST(Bfs, ManyRejectsOutOfRangeSourceBeforeDispatch) {
  const CsrGraph g = path_graph(10);
  const std::vector<std::uint32_t> sources = {0, 4, 10};
  std::vector<std::uint32_t> out(sources.size() * g.num_vertices(), 7u);
  EXPECT_THROW(bfs_many_into(g, sources, out), std::out_of_range);
  EXPECT_TRUE(std::all_of(out.begin(), out.end(), [](std::uint32_t d) { return d == 7u; }));
}

TEST(Bfs, DistancesRejectMisSizedOutput) {
  // A longer `out` would read stamp[v] past n; a shorter one would leave
  // vertices unwritten.
  const CsrGraph g = path_graph(10);
  BfsScratch scratch;
  for (const std::size_t size : {9u, 11u}) {
    std::vector<std::uint32_t> out(size, 7u);
    EXPECT_THROW(bfs_distances_into(g, 0, scratch, out), std::invalid_argument);
    EXPECT_TRUE(std::all_of(out.begin(), out.end(), [](std::uint32_t d) { return d == 7u; }));
  }
  std::vector<std::uint32_t> exact(g.num_vertices());
  EXPECT_NO_THROW(bfs_distances_into(g, 0, scratch, exact));
  EXPECT_EQ(exact[9], 9u);
}

TEST(Dijkstra, CostsRejectMisSizedOutput) {
  const CsrGraph g = path_graph(10);
  const std::vector<double> w = g.arc_weights([](std::uint32_t, std::uint32_t) { return 1.0; });
  DijkstraScratch scratch;
  for (const std::size_t size : {9u, 11u}) {
    std::vector<double> out(size, -1.0);
    EXPECT_THROW(dijkstra_costs_into(g, 0, w, scratch, out), std::invalid_argument);
    EXPECT_TRUE(std::all_of(out.begin(), out.end(), [](double d) { return d == -1.0; }));
  }
  std::vector<double> exact(g.num_vertices());
  EXPECT_NO_THROW(dijkstra_costs_into(g, 0, w, scratch, exact));
  EXPECT_EQ(exact[9], 9.0);
}

TEST(Bfs, ScratchReuseAcrossSourcesOnDisconnectedGraph) {
  const CsrGraph g = CsrGraph::from_edges(6, {{0, 1}, {1, 2}, {3, 4}});
  BfsScratch scratch;
  std::vector<std::uint32_t> out(g.num_vertices());
  for (const std::uint32_t s : {0u, 3u, 5u, 2u}) {
    bfs_distances_into(g, s, scratch, out);
    const auto fresh = fresh_bfs_row(g, s);
    EXPECT_EQ(out, fresh);
  }
  std::vector<std::uint32_t> path;
  EXPECT_FALSE(bfs_path_into(g, 0, 4, scratch, path));
  EXPECT_TRUE(bfs_path_into(g, 3, 4, scratch, path));
  EXPECT_EQ(path, (std::vector<std::uint32_t>{3, 4}));
  EXPECT_TRUE(bfs_path_into(g, 0, 2, scratch, path));
  EXPECT_EQ(path, (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_FALSE(bfs_path_into(g, 2, 3, scratch, path));
  EXPECT_TRUE(path.empty());
}

TEST(Bfs, ManyMatchesSerialAndBitIdenticalAcrossThreadCounts) {
  const std::size_t n = 150;
  const CsrGraph g = CsrGraph::from_edges(n, random_edges(n, 350, 47));
  std::vector<std::uint32_t> sources;
  for (std::uint32_t s = 0; s < n; s += 13) sources.push_back(s);

  std::vector<std::uint32_t> serial;
  serial.reserve(sources.size() * n);
  for (const std::uint32_t s : sources) {
    const auto row = fresh_bfs_row(g, s);
    serial.insert(serial.end(), row.begin(), row.end());
  }
  for (const unsigned threads : {1u, 2u, 8u}) {
    set_thread_count(threads);
    std::vector<std::uint32_t> batched(sources.size() * n);
    bfs_many_into(g, sources, batched);
    ASSERT_EQ(batched.size(), serial.size());
    EXPECT_EQ(batched, serial);
  }
  set_thread_count(0);
}

TEST(Components, LabelsAndLargest) {
  const CsrGraph g = CsrGraph::from_edges(7, {{0, 1}, {1, 2}, {3, 4}, {5, 6}, {4, 5}});
  const Components c = connected_components(g);
  EXPECT_EQ(c.count(), 2u);
  EXPECT_EQ(c.largest_size(), 4u);  // {3,4,5,6}
  EXPECT_TRUE(c.in_largest(3));
  EXPECT_FALSE(c.in_largest(0));
  EXPECT_EQ(c.label[0], c.label[2]);
  EXPECT_NE(c.label[0], c.label[3]);
  EXPECT_EQ(c.largest_members(), (std::vector<std::uint32_t>{3, 4, 5, 6}));
}

TEST(Components, SingletonsCount) {
  const CsrGraph g = CsrGraph::from_edges(3, {});
  const Components c = connected_components(g);
  EXPECT_EQ(c.count(), 3u);
  EXPECT_EQ(c.largest_size(), 1u);
}

TEST(UnionFindTest, BasicInvariants) {
  UnionFind uf(10);
  EXPECT_TRUE(uf.unite(0, 1));
  EXPECT_TRUE(uf.unite(1, 2));
  EXPECT_FALSE(uf.unite(0, 2));
  EXPECT_TRUE(uf.connected(0, 2));
  EXPECT_FALSE(uf.connected(0, 3));
  EXPECT_EQ(uf.set_size(1), 3u);
  EXPECT_EQ(uf.set_size(9), 1u);
}

// --- CsrGraph::apply_edge_delta: the sens/dynamic overlay patcher --------

TEST(CsrEdgeDelta, RandomDeltasMatchFromEdgesOracle) {
  // Random base graph, then random removed/added splits; the patched graph
  // must be bit-identical (edge list AND adjacency order) to rebuilding
  // from the updated edge set.
  Rng rng(0xDE17A);
  for (std::uint64_t round = 0; round < 30; ++round) {
    const std::size_t n = 8 + rng.uniform_index(40);
    const CsrGraph g = CsrGraph::from_edges(n, random_edges(n, 3 * n, 0xDE17A + round));
    std::vector<std::pair<std::uint32_t, std::uint32_t>> removed, kept, added;
    for (const auto& e : g.edge_list()) {
      (rng.bernoulli(0.3) ? removed : kept).push_back(e);
    }
    // Candidate additions: sample absent pairs (sorted unique, u < v).
    for (std::size_t t = 0; t < n; ++t) {
      const auto u = static_cast<std::uint32_t>(rng.uniform_index(n));
      const auto v = static_cast<std::uint32_t>(rng.uniform_index(n));
      if (u == v || g.has_edge(u, v)) continue;
      added.emplace_back(std::min(u, v), std::max(u, v));
    }
    std::sort(added.begin(), added.end());
    added.erase(std::unique(added.begin(), added.end()), added.end());

    const CsrGraph patched = CsrGraph::apply_edge_delta(g, n, removed, added);
    std::vector<std::pair<std::uint32_t, std::uint32_t>> want = kept;
    want.insert(want.end(), added.begin(), added.end());
    const CsrGraph oracle = CsrGraph::from_edges(n, want);
    ASSERT_EQ(patched.edge_list(), oracle.edge_list()) << "round " << round;
    for (std::uint32_t v = 0; v < n; ++v) {
      const auto a = patched.neighbors(v);
      const auto b = oracle.neighbors(v);
      ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end())) << "vertex " << v;
    }
  }
}

TEST(CsrEdgeDelta, GrowsAndShrinksVertexSet) {
  using Delta = std::vector<std::pair<std::uint32_t, std::uint32_t>>;
  const CsrGraph g = CsrGraph::from_edges(3, {{0, 1}, {1, 2}});
  // Grow: new vertex 3 picks up an edge.
  const CsrGraph grown = CsrGraph::apply_edge_delta(g, 4, {}, Delta{{2, 3}});
  EXPECT_EQ(grown.num_vertices(), 4u);
  EXPECT_TRUE(grown.has_edge(2, 3));
  // Shrink: dropping vertex 3 requires removing its whole edge set.
  const CsrGraph back = CsrGraph::apply_edge_delta(grown, 3, Delta{{2, 3}}, {});
  EXPECT_EQ(back.edge_list(), g.edge_list());
  // Shrink to empty.
  const CsrGraph none = CsrGraph::apply_edge_delta(back, 0, Delta{{0, 1}, {1, 2}}, {});
  EXPECT_EQ(none.num_vertices(), 0u);
  EXPECT_EQ(none.num_edges(), 0u);
}

TEST(CsrEdgeDelta, ValidatesItsContract) {
  const CsrGraph g = CsrGraph::from_edges(4, {{0, 1}, {1, 2}});
  using Delta = std::vector<std::pair<std::uint32_t, std::uint32_t>>;
  // Removing an absent edge / adding a present one.
  EXPECT_THROW((void)CsrGraph::apply_edge_delta(g, 4, Delta{{0, 2}}, {}),
               std::invalid_argument);
  EXPECT_THROW((void)CsrGraph::apply_edge_delta(g, 4, {}, Delta{{0, 1}}),
               std::invalid_argument);
  // Malformed pairs: u >= v, unsorted, out of range.
  EXPECT_THROW((void)CsrGraph::apply_edge_delta(g, 4, Delta{{1, 0}}, {}),
               std::invalid_argument);
  EXPECT_THROW((void)CsrGraph::apply_edge_delta(g, 4, Delta{{2, 2}}, {}),
               std::invalid_argument);
  EXPECT_THROW((void)CsrGraph::apply_edge_delta(g, 4, Delta{{1, 2}, {0, 1}}, {}),
               std::invalid_argument);
  EXPECT_THROW((void)CsrGraph::apply_edge_delta(g, 4, {}, Delta{{2, 9}}),
               std::out_of_range);
  // Dropping vertex 2 without removing its incident edge {1, 2}.
  EXPECT_THROW((void)CsrGraph::apply_edge_delta(g, 2, Delta{{0, 1}}, {}),
               std::invalid_argument);
}

TEST(UnionFindTest, AgreesWithComponents) {
  Rng rng(5);
  const std::size_t n = 200;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (int e = 0; e < 150; ++e)
    edges.emplace_back(static_cast<std::uint32_t>(rng.uniform_index(n)),
                       static_cast<std::uint32_t>(rng.uniform_index(n)));
  UnionFind uf(n);
  for (const auto& [u, v] : edges)
    if (u != v) uf.unite(u, v);
  const CsrGraph g = CsrGraph::from_edges(n, std::move(edges));
  const Components c = connected_components(g);
  for (std::uint32_t a = 0; a < n; ++a)
    for (std::uint32_t b = a + 1; b < n; b += 17)
      EXPECT_EQ(uf.connected(a, b), c.label[a] == c.label[b]);
}

}  // namespace
}  // namespace sens
