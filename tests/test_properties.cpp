// Wider property sweeps across parameter grids: overlay invariants as the
// density varies, adversarial mesh-router mazes, coupling monotonicity and
// metric consistency checks that complement the per-module suites.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "sens/core/coverage.hpp"
#include "sens/core/metrics.hpp"
#include "sens/core/sens_router.hpp"
#include "sens/core/udg_sens.hpp"
#include "sens/perc/mesh_router.hpp"
#include "sens/tiles/good_prob.hpp"

namespace sens {
namespace {

// --- overlay invariants across the density grid (not just one lambda) ---

class UdgLambdaGridTest : public ::testing::TestWithParam<double> {};

TEST_P(UdgLambdaGridTest, InvariantsHoldAtEveryDensity) {
  const double lambda = GetParam();
  const UdgSensResult r = build_udg_sens(UdgTileSpec::strict(), lambda, 20, 20, 4242);
  // P1 regardless of sub/supercritical density.
  EXPECT_LE(overlay_degree_report(r.overlay).max_degree, 4u);
  // Strict geometry never produces unrealizable edges.
  EXPECT_EQ(r.overlay.edges_missing, 0u);
  // Every overlay node maps to a distinct base point.
  auto idx = r.overlay.base_index;
  std::sort(idx.begin(), idx.end());
  EXPECT_TRUE(std::adjacent_find(idx.begin(), idx.end()) == idx.end());
  // Rep nodes exist iff tiles are good.
  for (std::size_t i = 0; i < r.classification.good.size(); ++i)
    EXPECT_EQ(r.overlay.tile_nodes[i][0] != kNoNode, r.classification.good[i] == 1);
  // Exit chains of good tiles are populated with valid overlay nodes.
  for (std::size_t i = 0; i < r.classification.good.size(); ++i) {
    if (!r.classification.good[i]) continue;
    const TileLeaders& nodes = r.overlay.tile_nodes[i];
    for (int d = 0; d < 4; ++d) {
      const ExitSlots chain = exit_slots(nodes, d);
      ASSERT_EQ(chain.size, 1u);
      EXPECT_LT(nodes[chain.slot[0]], r.overlay.geo.size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Lambdas, UdgLambdaGridTest,
                         ::testing::Values(5.0, 12.0, 18.0, 22.0, 25.0, 32.0, 45.0));

// --- goodness probability: coupling monotonicity on a fine grid ---

TEST(GoodProbProperty, StrictCurveIsMonotoneAcrossGrid) {
  const UdgTileSpec spec = UdgTileSpec::strict();
  double prev = -1.0;
  for (const double lambda : {8.0, 12.0, 16.0, 20.0, 24.0, 28.0, 32.0}) {
    const double p = udg_good_probability(spec, lambda, 4000, 17).estimate();
    EXPECT_GE(p, prev - 0.02) << "at lambda " << lambda;  // MC slack
    prev = p;
  }
}

TEST(GoodProbProperty, NnCurveIndependentTrialsAgree) {
  // Two independent trial batches agree within combined Wilson intervals.
  const NnGoodCurve a(0.893, 3000, 1);
  const NnGoodCurve b(0.893, 3000, 2);
  const Proportion pa = a.probability_at(188);
  const Proportion pb = b.probability_at(188);
  EXPECT_LT(pa.wilson_low(), pb.wilson_high());
  EXPECT_LT(pb.wilson_low(), pa.wilson_high());
}

// --- mesh router on adversarial mazes ---

TEST(MeshRouterMaze, SerpentineCorridor) {
  // A serpentine with alternating walls forces maximal detours; the route
  // must still succeed and stay inside open sites.
  const std::int32_t n = 21;
  SiteGrid g(n, n, true);
  for (std::int32_t x = 2; x < n; x += 4) {
    for (std::int32_t y = 0; y < n - 2; ++y) g.set_open({x, y}, false);        // wall from bottom
    for (std::int32_t y = 2; y < n; ++y) g.set_open({x + 2 < n ? x + 2 : x, y}, false);
  }
  const MeshRouter router(g);
  ASSERT_TRUE(g.open({0, 0}));
  const Site dst{n - 1, 0};
  if (!g.open(dst)) GTEST_SKIP();
  const MeshRoute r = router.route({0, 0}, dst);
  if (!r.success) GTEST_SKIP() << "maze disconnected this pattern";
  for (const Site s : r.path) EXPECT_TRUE(g.open(s));
  EXPECT_GT(r.hops(), static_cast<std::size_t>(lattice_distance({0, 0}, dst)));
  EXPECT_GE(r.probes, r.hops());
}

TEST(MeshRouterMaze, SingleCellTargetBehindUTrap) {
  // U-shaped trap around the x-y path: the BFS must route around it.
  SiteGrid g(15, 15, true);
  for (std::int32_t y = 3; y <= 11; ++y) g.set_open({7, y}, false);
  for (std::int32_t x = 7; x <= 11; ++x) {
    g.set_open({x, 3}, false);
    g.set_open({x, 11}, false);
  }
  const MeshRouter router(g);
  const MeshRoute r = router.route({0, 7}, {14, 7});
  ASSERT_TRUE(r.success);
  EXPECT_GE(r.bfs_invocations, 1u);
  for (std::size_t i = 1; i < r.path.size(); ++i)
    EXPECT_EQ(lattice_distance(r.path[i - 1], r.path[i]), 1);
}

TEST(MeshRouterMaze, RouteToSelfIsEmpty) {
  SiteGrid g(5, 5, true);
  const MeshRouter router(g);
  const MeshRoute r = router.route({2, 2}, {2, 2});
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.hops(), 0u);
}

// --- metric consistency ---

TEST(MetricConsistency, RoutePowerMatchesPathPower) {
  const UdgSensResult r = build_udg_sens(UdgTileSpec::strict(), 25.0, 24, 24, 77);
  const auto reps = r.overlay.giant_rep_sites();
  ASSERT_GE(reps.size(), 2u);
  const SensRouter router(r.overlay);
  const SensRoute route = router.route(reps.front(), reps.back());
  ASSERT_TRUE(route.success);
  EXPECT_NEAR(route.power2, r.overlay.geo.path_power(route.node_path, 2.0), 1e-9);
  EXPECT_NEAR(route.euclid_length, r.overlay.geo.path_length(route.node_path), 1e-9);
}

TEST(MetricConsistency, PowerMonotoneInBetaForLongEdges) {
  GeoGraph g;
  g.points = {{0.0, 0.0}, {1.5, 0.0}, {3.0, 0.0}};
  g.graph = CsrGraph::from_edges(3, {{0, 1}, {1, 2}});
  const std::vector<std::uint32_t> path{0, 1, 2};
  // All edges longer than 1 => power grows with beta.
  double prev = g.path_power(path, 2.0);
  for (const double beta : {2.5, 3.0, 4.0, 5.0}) {
    const double p = g.path_power(path, beta);
    EXPECT_GT(p, prev);
    prev = p;
  }
}

TEST(MetricConsistency, StretchSamplesAreWithinWindow) {
  const UdgSensResult r = build_udg_sens(UdgTileSpec::strict(), 25.0, 20, 20, 5);
  for (const auto& s : sample_overlay_stretch(r.overlay, 40, 6)) {
    EXPECT_GT(s.euclid, 0.0);
    EXPECT_LE(s.euclid, r.points.window.width() * std::sqrt(2.0));
    EXPECT_GE(s.lattice, 0);
    EXPECT_GE(s.path_length, s.euclid - 1e-9);
  }
}

// --- coverage estimators agree with each other ---

TEST(CoverageConsistency, BlockAndBoxEstimatorsOrdered) {
  // An empty m-tile block implies an empty box of side <= m*a placed on it;
  // statistically the box estimator at l = a must not exceed block m=1 by
  // much (boxes can straddle tiles, so exact equality is not expected).
  const UdgSensResult r = build_udg_sens(UdgTileSpec::strict(), 25.0, 40, 40, 8);
  const int one[] = {1};
  const double block1 = empty_block_probability(r.overlay, one)[0];
  const double box_small = empty_box_probability(r.overlay, 0.42, 4000, 9).estimate();
  // A half-tile box is easier to keep empty than a full tile block.
  EXPECT_GT(box_small, block1 * 0.5);
}

TEST(CoverageConsistency, SubcriticalWindowIsMostlyUncovered) {
  const UdgSensResult r = build_udg_sens(UdgTileSpec::strict(), 8.0, 24, 24, 3);
  const int sizes[] = {1};
  EXPECT_GT(empty_block_probability(r.overlay, sizes)[0], 0.85);
}

}  // namespace
}  // namespace sens
