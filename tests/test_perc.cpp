// Tests for sens/perc: site grids, cluster labeling, crossing probabilities,
// chemical distance, and the Angel et al. mesh router.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "sens/perc/chemical.hpp"
#include "sens/perc/clusters.hpp"
#include "sens/perc/crossing.hpp"
#include "sens/perc/mesh_router.hpp"
#include "sens/perc/site_grid.hpp"

namespace sens {
namespace {

/// Number of distinct cluster ids over the grid's open sites.
std::size_t cluster_count(const SiteGrid& g, const ClusterLabels& cl) {
  std::set<std::int32_t> ids;
  for (std::size_t i = 0; i < g.num_sites(); ++i) {
    const Site s = g.site_at(i);
    if (g.open(s)) ids.insert(cl.label(s));
  }
  return ids.size();
}

TEST(SiteGridTest, BasicsAndBounds) {
  SiteGrid g(4, 3);
  EXPECT_EQ(g.num_sites(), 12u);
  EXPECT_TRUE(g.in_bounds({0, 0}));
  EXPECT_TRUE(g.in_bounds({3, 2}));
  EXPECT_FALSE(g.in_bounds({4, 0}));
  EXPECT_FALSE(g.in_bounds({0, -1}));
  EXPECT_FALSE(g.open({1, 1}));
  g.set_open({1, 1}, true);
  EXPECT_TRUE(g.open({1, 1}));
  EXPECT_EQ(g.open_count(), 1u);
  const Site s = g.site_at(g.index({2, 1}));
  EXPECT_EQ(s, (Site{2, 1}));
  EXPECT_THROW(SiteGrid(0, 4), std::invalid_argument);
}

TEST(SiteGridTest, NeighborEnumeration) {
  SiteGrid g(3, 3);
  int corner = 0, center = 0;
  g.for_each_neighbor({0, 0}, [&](Site) { ++corner; });
  g.for_each_neighbor({1, 1}, [&](Site) { ++center; });
  EXPECT_EQ(corner, 2);
  EXPECT_EQ(center, 4);
}

TEST(SiteGridTest, RandomFractionNearP) {
  const SiteGrid g = SiteGrid::random(200, 200, 0.6, 9);
  EXPECT_NEAR(g.open_fraction(), 0.6, 0.02);
  // Deterministic per seed.
  const SiteGrid h = SiteGrid::random(200, 200, 0.6, 9);
  EXPECT_EQ(g.open_count(), h.open_count());
}

TEST(LatticeDistance, IsL1) {
  EXPECT_EQ(lattice_distance({0, 0}, {3, -4}), 7);
  EXPECT_EQ(lattice_distance({2, 2}, {2, 2}), 0);
}

TEST(Clusters, FullAndEmptyGrids) {
  const SiteGrid full(10, 10, true);
  const ClusterLabels cl(full);
  EXPECT_EQ(cluster_count(full, cl), 1u);
  EXPECT_EQ(cl.largest_cluster_size(), 100u);

  const SiteGrid empty(10, 10, false);
  const ClusterLabels ce(empty);
  EXPECT_EQ(cluster_count(empty, ce), 0u);
  EXPECT_EQ(ce.largest_cluster_size(), 0u);
}

TEST(Clusters, KnownConfiguration) {
  SiteGrid g(5, 1);
  g.set_open({0, 0}, true);
  g.set_open({1, 0}, true);
  g.set_open({3, 0}, true);
  const ClusterLabels cl(g);
  EXPECT_EQ(cluster_count(g, cl), 2u);
  EXPECT_GE(cl.label({0, 0}), 0);
  EXPECT_EQ(cl.label({0, 0}), cl.label({1, 0}));
  EXPECT_NE(cl.label({1, 0}), cl.label({3, 0}));
  EXPECT_EQ(cl.label({2, 0}), ClusterLabels::kClosed);
  EXPECT_EQ(cl.largest_cluster_size(), 2u);
}

TEST(Clusters, ThetaSupercriticalRange) {
  // At p = 0.7 (supercritical), theta is known to be roughly 0.65-0.75.
  const SiteGrid g = SiteGrid::random(256, 256, 0.7, 3);
  const ClusterLabels cl(g);
  // Finite-volume estimate: fraction of all sites in the largest cluster.
  const double theta =
      static_cast<double>(cl.largest_cluster_size()) / static_cast<double>(g.num_sites());
  EXPECT_GT(theta, 0.55);
  EXPECT_LT(theta, 0.8);
}

TEST(Crossing, ExtremesAndMonotonicity) {
  SiteGrid full(12, 12, true);
  EXPECT_TRUE(has_lr_crossing(full));
  SiteGrid empty(12, 12, false);
  EXPECT_FALSE(has_lr_crossing(empty));
  // Single open row crosses.
  SiteGrid row(8, 8, false);
  for (std::int32_t x = 0; x < 8; ++x) row.set_open({x, 3}, true);
  EXPECT_TRUE(has_lr_crossing(row));
  // Column does not connect left to right unless it spans.
  SiteGrid col(8, 8, false);
  for (std::int32_t y = 0; y < 8; ++y) col.set_open({3, y}, true);
  EXPECT_FALSE(has_lr_crossing(col));

  const double lo = crossing_probability(24, 0.45, 200, 4);
  const double hi = crossing_probability(24, 0.75, 200, 4);
  EXPECT_LT(lo, 0.35);
  EXPECT_GT(hi, 0.8);
}

TEST(Crossing, HalfCrossingPointNearPc) {
  // Finite-size estimate at n = 48 should land near the site threshold
  // 0.5927 (generous tolerance for MC noise and finite-size shift).
  const double pc = estimate_half_crossing_point(48, 300, 5);
  EXPECT_NEAR(pc, 0.5927, 0.05);
}

/// Independent reference: a fresh scratch and buffer per call.
std::vector<std::uint32_t> fresh_chemical_row(const SiteGrid& g, Site source) {
  ChemicalScratch scratch;
  std::vector<std::uint32_t> dist(g.num_sites());
  chemical_distances_into(g, source, scratch, dist);
  return dist;
}

TEST(Chemical, DistancesAtPOne) {
  const SiteGrid g(20, 20, true);
  const auto dist = fresh_chemical_row(g, {0, 0});
  EXPECT_EQ(dist[g.index({5, 7})], 12u);  // equals L1 on the full lattice
  EXPECT_EQ(dist[g.index({19, 19})], 38u);
}

TEST(Chemical, ClosedSourceYieldsNothing) {
  SiteGrid g(5, 5, false);
  const auto dist = fresh_chemical_row(g, {2, 2});
  for (const auto d : dist) EXPECT_EQ(d, 0xffffffffu);
}

TEST(Chemical, SamplesRespectLowerBound) {
  const SiteGrid g = SiteGrid::random(128, 128, 0.75, 8);
  const ClusterLabels cl(g);
  const auto samples = sample_chemical_distances(g, cl, 30, 60, 17);
  EXPECT_GT(samples.size(), 10u);
  for (const auto& s : samples) {
    EXPECT_GE(s.chemical, static_cast<std::uint32_t>(s.lattice));  // D_p >= D
    EXPECT_GE(s.ratio(), 1.0);
    EXPECT_LT(s.ratio(), 3.0);  // Antal-Pisztora: bounded overhead at p = 0.75
  }
}

TEST(Chemical, ScratchReuseMatchesFreshScratchAcrossSources) {
  // One scratch + buffer reused across sources (including a closed one)
  // must match fresh-scratch runs exactly (DESIGN.md §2.4).
  SiteGrid g = SiteGrid::random(32, 32, 0.7, 12);
  g.set_open({3, 3}, false);
  ChemicalScratch scratch;
  std::vector<std::uint32_t> dist(g.num_sites());
  for (const Site s : {Site{0, 0}, Site{3, 3}, Site{31, 31}, Site{16, 5}}) {
    chemical_distances_into(g, s, scratch, dist);
    EXPECT_EQ(dist, fresh_chemical_row(g, s));
  }
}

TEST(MeshRouterTest, ScratchRouteMatchesAllocatingWrapper) {
  // Scratch reuse across routes (and across the BFS invocations inside one
  // route) must not change paths or probe accounting.
  const SiteGrid g = SiteGrid::random(48, 48, 0.68, 5);
  const ClusterLabels cl(g);
  const MeshRouter router(g);
  std::vector<Site> giant;
  for (std::size_t i = 0; i < g.num_sites(); i += 5) {
    const Site s = g.site_at(i);
    if (cl.in_largest(s)) giant.push_back(s);
  }
  ASSERT_GE(giant.size(), 4u);
  MeshRouteScratch scratch;
  for (std::size_t i = 0; i + 1 < giant.size(); i += giant.size() / 4) {
    const MeshRoute with_scratch = router.route(giant[i], giant[giant.size() - 1 - i], scratch);
    const MeshRoute fresh = router.route(giant[i], giant[giant.size() - 1 - i]);
    EXPECT_EQ(with_scratch.success, fresh.success);
    EXPECT_EQ(with_scratch.probes, fresh.probes);
    EXPECT_EQ(with_scratch.bfs_invocations, fresh.bfs_invocations);
    ASSERT_EQ(with_scratch.path.size(), fresh.path.size());
    for (std::size_t p = 0; p < fresh.path.size(); ++p)
      EXPECT_EQ(with_scratch.path[p], fresh.path[p]);
  }
}

TEST(MeshRouterTest, FullLatticeFollowsXyPath) {
  const SiteGrid g(16, 16, true);
  const MeshRouter router(g);
  const MeshRoute r = router.route({2, 3}, {10, 9});
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.hops(), static_cast<std::size_t>(lattice_distance({2, 3}, {10, 9})));
  EXPECT_EQ(r.bfs_invocations, 0u);
  // Path consists of unit steps and starts/ends correctly.
  EXPECT_EQ(r.path.front(), (Site{2, 3}));
  EXPECT_EQ(r.path.back(), (Site{10, 9}));
  for (std::size_t i = 1; i < r.path.size(); ++i)
    EXPECT_EQ(lattice_distance(r.path[i - 1], r.path[i]), 1);
}

TEST(MeshRouterTest, DetoursAroundHole) {
  SiteGrid g(9, 9, true);
  // Wall at x = 4 with a gap at y = 8.
  for (std::int32_t y = 0; y < 8; ++y) g.set_open({4, y}, true ? false : true);
  for (std::int32_t y = 0; y < 8; ++y) g.set_open({4, y}, false);
  const MeshRouter router(g);
  const MeshRoute r = router.route({0, 0}, {8, 0});
  ASSERT_TRUE(r.success);
  EXPECT_GT(r.hops(), 8u);  // forced detour
  EXPECT_GE(r.bfs_invocations, 1u);
  for (const Site s : r.path) EXPECT_TRUE(g.open(s));
  for (std::size_t i = 1; i < r.path.size(); ++i)
    EXPECT_EQ(lattice_distance(r.path[i - 1], r.path[i]), 1);
}

TEST(MeshRouterTest, FailsAcrossDisconnection) {
  SiteGrid g(9, 3, true);
  for (std::int32_t y = 0; y < 3; ++y) g.set_open({4, y}, false);  // full wall
  const MeshRouter router(g);
  const MeshRoute r = router.route({0, 1}, {8, 1});
  EXPECT_FALSE(r.success);
}

class MeshRouterRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MeshRouterRandomTest, SucceedsWithinGiantCluster) {
  const SiteGrid g = SiteGrid::random(64, 64, 0.72, GetParam());
  const ClusterLabels cl(g);
  const MeshRouter router(g);
  // Pick spread-out giant-cluster sites deterministically.
  std::vector<Site> giant;
  for (std::size_t i = 0; i < g.num_sites(); i += 7) {
    const Site s = g.site_at(i);
    if (cl.in_largest(s)) giant.push_back(s);
  }
  ASSERT_GE(giant.size(), 2u);
  const Site a = giant.front();
  const Site b = giant.back();
  const MeshRoute r = router.route(a, b);
  ASSERT_TRUE(r.success);
  EXPECT_GE(r.hops(), static_cast<std::size_t>(lattice_distance(a, b)));
  EXPECT_GE(r.probes, r.hops());  // at least one probe per successful step
  for (const Site s : r.path) EXPECT_TRUE(g.open(s));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MeshRouterRandomTest, ::testing::Range<std::uint64_t>(1, 11));

}  // namespace
}  // namespace sens
