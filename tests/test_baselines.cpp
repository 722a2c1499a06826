// Tests for the topology-control baselines: Gabriel, RNG, Yao.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "sens/baselines/spanners.hpp"
#include "sens/geograph/point_set.hpp"
#include "sens/geograph/udg.hpp"
#include "sens/graph/components.hpp"
#include "sens/support/parallel.hpp"

namespace sens {
namespace {

GeoGraph dense_udg(std::uint64_t seed, double lambda = 6.0, double extent = 12.0) {
  const Box w{{0.0, 0.0}, {extent, extent}};
  const PointSet ps = poisson_point_set(w, lambda, seed);
  return build_udg(ps.points, w, 1.0);
}

class SpannerSeedTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SpannerSeedTest, SubgraphChainRngInGabrielInUdg) {
  const GeoGraph udg = dense_udg(GetParam());
  const GeoGraph gg = gabriel_graph(udg);
  const GeoGraph rng = relative_neighborhood_graph(udg);
  // Classic containment: RNG ⊆ GG ⊆ UDG.
  for (const auto& [u, v] : gg.graph.edge_list()) EXPECT_TRUE(udg.graph.has_edge(u, v));
  for (const auto& [u, v] : rng.graph.edge_list()) EXPECT_TRUE(gg.graph.has_edge(u, v));
  EXPECT_LE(rng.graph.num_edges(), gg.graph.num_edges());
  EXPECT_LE(gg.graph.num_edges(), udg.graph.num_edges());
  EXPECT_LT(gg.graph.num_edges(), udg.graph.num_edges());  // strictly sparser when dense
}

TEST_P(SpannerSeedTest, GabrielAndRngPreserveComponents) {
  const GeoGraph udg = dense_udg(GetParam());
  const Components cu = connected_components(udg.graph);
  const Components cg = connected_components(gabriel_graph(udg).graph);
  const Components cr = connected_components(relative_neighborhood_graph(udg).graph);
  // GG and RNG contain the (unit-capped) MST of each component.
  EXPECT_EQ(cg.count(), cu.count());
  EXPECT_EQ(cr.count(), cu.count());
  EXPECT_EQ(cg.largest_size(), cu.largest_size());
  EXPECT_EQ(cr.largest_size(), cu.largest_size());
}

TEST_P(SpannerSeedTest, YaoPreservesConnectivityWithSixCones) {
  const GeoGraph udg = dense_udg(GetParam());
  const GeoGraph yao = yao_graph(udg, 6);
  const Components cu = connected_components(udg.graph);
  const Components cy = connected_components(yao.graph);
  EXPECT_EQ(cy.count(), cu.count());
  for (const auto& [u, v] : yao.graph.edge_list()) EXPECT_TRUE(udg.graph.has_edge(u, v));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpannerSeedTest, ::testing::Range<std::uint64_t>(1, 7));

// The chunk-parallel edge filters (DESIGN.md §2.3) must produce the same
// spanner at every thread count.
TEST(Spanners, BitIdenticalAcrossThreadCounts) {
  const GeoGraph udg = dense_udg(99);
  set_thread_count(1);
  const auto gg1 = gabriel_graph(udg).graph.edge_list();
  const auto rng1 = relative_neighborhood_graph(udg).graph.edge_list();
  const auto yao1 = yao_graph(udg, 6).graph.edge_list();
  for (const unsigned threads : {2u, 8u}) {
    set_thread_count(threads);
    EXPECT_EQ(gabriel_graph(udg).graph.edge_list(), gg1) << threads << " threads";
    EXPECT_EQ(relative_neighborhood_graph(udg).graph.edge_list(), rng1) << threads << " threads";
    EXPECT_EQ(yao_graph(udg, 6).graph.edge_list(), yao1) << threads << " threads";
  }
  set_thread_count(0);
}

using EdgeList = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

/// Brute-force spanner reference: the UDG edges {u, v} (u < v) that no
/// other point of the whole set witnesses, with the library's 1e-15 margin.
template <typename Witness>
EdgeList brute_force_filter(const GeoGraph& udg, Witness&& witnesses) {
  EdgeList out;
  const std::uint32_t n = static_cast<std::uint32_t>(udg.size());
  for (const auto& [u, v] : udg.graph.edge_list()) {
    bool witnessed = false;
    for (std::uint32_t w = 0; w < n && !witnessed; ++w) {
      witnessed = w != u && w != v && witnesses(u, v, w);
    }
    if (!witnessed) out.emplace_back(u, v);
  }
  return out;
}

/// The spanner's full adjacency — both orientations of every edge — must
/// equal the reference edge set, and each list must be mirrored in the
/// other endpoint's list (scanned directly: `has_edge` searches only one
/// endpoint, so it cannot see a one-sided list).
void expect_exact_symmetric(const CsrGraph& g, const EdgeList& want, std::size_t n) {
  ASSERT_EQ(g.num_vertices(), n);
  std::vector<std::vector<std::uint32_t>> lists(n);
  for (const auto& [u, v] : want) {
    lists[u].push_back(v);
    lists[v].push_back(u);
  }
  for (std::uint32_t u = 0; u < n; ++u) {
    std::sort(lists[u].begin(), lists[u].end());
    const auto got = g.neighbors(u);
    EXPECT_TRUE(std::equal(got.begin(), got.end(), lists[u].begin(), lists[u].end()))
        << "vertex " << u;
    for (const std::uint32_t v : got) {
      const auto back = g.neighbors(v);
      EXPECT_TRUE(std::find(back.begin(), back.end(), u) != back.end()) << u << " -> " << v;
    }
  }
  EXPECT_EQ(g.edge_list(), want);
}

// Gabriel and RNG against their definitions over all points (not just UDG
// neighbors), on pinned small Poisson UDGs: pins the exact edge set and the
// mirroring of each canonical (u < v) verdict onto the reverse arc.
TEST(Spanners, GabrielAndRngMatchBruteForceDefinitions) {
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    SCOPED_TRACE(seed);
    const GeoGraph udg = dense_udg(seed, 6.0, 8.0);  // ~380 points
    ASSERT_GT(udg.size(), 200u);
    const EdgeList gg = brute_force_filter(udg, [&](std::uint32_t u, std::uint32_t v,
                                                    std::uint32_t w) {
      const Vec2 mid = (udg.points[u] + udg.points[v]) * 0.5;
      return dist2(udg.points[w], mid) < dist2(udg.points[u], mid) - 1e-15;
    });
    const EdgeList rng = brute_force_filter(udg, [&](std::uint32_t u, std::uint32_t v,
                                                     std::uint32_t w) {
      const double d2 = dist2(udg.points[u], udg.points[v]);
      return dist2(udg.points[u], udg.points[w]) < d2 - 1e-15 &&
             dist2(udg.points[v], udg.points[w]) < d2 - 1e-15;
    });
    // Non-vacuous: both filters drop edges, and RNG drops more.
    ASSERT_LT(gg.size(), udg.graph.num_edges());
    ASSERT_LT(rng.size(), gg.size());
    expect_exact_symmetric(gabriel_graph(udg).graph, gg, udg.size());
    expect_exact_symmetric(relative_neighborhood_graph(udg).graph, rng, udg.size());
  }
}

TEST(Gabriel, RejectsWitnessedEdge) {
  // Midpoint witness kills the long edge.
  std::vector<Vec2> pts{{0.0, 0.0}, {1.0, 0.0}, {0.5, 0.01}};
  const GeoGraph udg = build_udg(pts, Box{{-1, -1}, {2, 1}}, 1.0);
  const GeoGraph gg = gabriel_graph(udg);
  EXPECT_FALSE(gg.graph.has_edge(0, 1));
  EXPECT_TRUE(gg.graph.has_edge(0, 2));
  EXPECT_TRUE(gg.graph.has_edge(2, 1));
}

TEST(Gabriel, KeepsUnwitnessedEdge) {
  std::vector<Vec2> pts{{0.0, 0.0}, {1.0, 0.0}, {0.5, 0.9}};  // witness outside diameter disk
  const GeoGraph udg = build_udg(pts, Box{{-1, -1}, {2, 2}}, 1.0);
  EXPECT_TRUE(gabriel_graph(udg).graph.has_edge(0, 1));
}

TEST(Rng, LuneWitnessRemovesEdge) {
  // w = (0.5, 0.75) is in the lune of (u, v) (within d(u,v) = 1 of both)
  // but outside the diameter disk (0.75 > 0.5 from the midpoint), so RNG
  // drops the edge while Gabriel keeps it.
  std::vector<Vec2> pts{{0.0, 0.0}, {1.0, 0.0}, {0.5, 0.75}};
  const GeoGraph udg = build_udg(pts, Box{{-1, -1}, {2, 1}}, 1.0);
  const GeoGraph rng = relative_neighborhood_graph(udg);
  EXPECT_FALSE(rng.graph.has_edge(0, 1));
  EXPECT_TRUE(gabriel_graph(udg).graph.has_edge(0, 1));
}

TEST(Yao, DegreeBoundAndNearestKept) {
  const GeoGraph udg = dense_udg(3);
  const GeoGraph yao = yao_graph(udg, 8);
  // Only the out-degree is bounded by the cone count (in-degree is not:
  // many nodes may pick the same target), so the checkable invariants are
  // the total edge budget n * cones and the resulting mean degree.
  EXPECT_LE(yao.graph.num_edges(), yao.graph.num_vertices() * 8u);
  EXPECT_LE(yao.graph.mean_degree(), 16.0);
  // The globally nearest UDG neighbor of each vertex always survives.
  for (std::uint32_t v = 0; v < udg.graph.num_vertices(); ++v) {
    const auto nbrs = udg.graph.neighbors(v);
    if (nbrs.empty()) continue;
    std::uint32_t best = nbrs.front();
    for (const auto u : nbrs)
      if (dist2(udg.points[v], udg.points[u]) < dist2(udg.points[v], udg.points[best])) best = u;
    EXPECT_TRUE(yao.graph.has_edge(v, best));
  }
  EXPECT_THROW((void)yao_graph(udg, 0), std::invalid_argument);
}

TEST(Spanners, SparsityOrdering) {
  const GeoGraph udg = dense_udg(9, 8.0);
  const double udg_deg = udg.graph.mean_degree();
  const double gg_deg = gabriel_graph(udg).graph.mean_degree();
  const double rng_deg = relative_neighborhood_graph(udg).graph.mean_degree();
  EXPECT_LT(gg_deg, udg_deg);
  EXPECT_LT(rng_deg, gg_deg);
  // Literature: E[deg_GG] = 4, E[deg_RNG] ~ 2.56 for Poisson inputs (the
  // unit cap only removes long edges). Loose brackets.
  EXPECT_NEAR(gg_deg, 4.0, 1.0);
  EXPECT_NEAR(rng_deg, 2.56, 0.8);
}

}  // namespace
}  // namespace sens
