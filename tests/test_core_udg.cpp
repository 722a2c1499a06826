// Property and integration tests for the UDG-SENS construction: sparsity
// (P1), the Claim 2.1 path guarantee, stretch sampling (P2), coverage (P3)
// and tile-level routing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>

#include "sens/core/coverage.hpp"
#include "sens/core/metrics.hpp"
#include "sens/core/sens_router.hpp"
#include "sens/core/udg_sens.hpp"
#include "sens/perc/clusters.hpp"
#include "sens/tiles/good_prob.hpp"
#include "overlay_reference.hpp"

namespace sens {
namespace {

// Strict spec at lambda = 25 is comfortably supercritical (P(good) ~ 0.68).
constexpr double kLambda = 25.0;

UdgSensResult small_build(std::uint64_t seed, int tiles = 24) {
  return build_udg_sens(UdgTileSpec::strict(), kLambda, tiles, tiles, seed);
}

class UdgSensSeedTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(UdgSensSeedTest, MaxDegreeFour) {
  const UdgSensResult r = small_build(GetParam());
  const DegreeReport deg = overlay_degree_report(r.overlay);
  EXPECT_LE(deg.max_degree, 4u) << "P1 violated";
  EXPECT_GT(deg.nodes, 0u);
}

TEST_P(UdgSensSeedTest, StrictSpecRealizesEveryEdge) {
  const UdgSensResult r = small_build(GetParam());
  EXPECT_EQ(r.overlay.edges_missing, 0u);
  EXPECT_GT(r.overlay.edges_expected, 0u);
}

TEST_P(UdgSensSeedTest, ClaimPathsAlwaysRealizedWithShortEdges) {
  const UdgSensResult r = small_build(GetParam());
  const ClaimCheck check = check_adjacent_tile_paths(r.overlay);
  EXPECT_GT(check.adjacent_good_pairs, 0u);
  EXPECT_DOUBLE_EQ(check.realized_fraction(), 1.0);
  EXPECT_LE(check.worst_edge_length, UdgTileSpec::strict().link_radius + 1e-12);
}

TEST_P(UdgSensSeedTest, OverlayEdgesRespectLinkRadius) {
  const UdgSensResult r = small_build(GetParam());
  for (const auto& [u, v] : r.overlay.geo.graph.edge_list())
    EXPECT_LE(r.overlay.geo.edge_length(u, v), UdgTileSpec::strict().link_radius + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, UdgSensSeedTest, ::testing::Range<std::uint64_t>(1, 9));

TEST(UdgSens, GoodFractionMatchesSingleTileMc) {
  // The window's good-tile fraction must match the per-tile MC estimator
  // (tiles are iid by Poisson independence).
  const UdgSensResult r = build_udg_sens(UdgTileSpec::strict(), kLambda, 40, 40, 77);
  const double frac = static_cast<double>(r.classification.good_count()) /
                      static_cast<double>(r.classification.good.size());
  const Proportion mc = udg_good_probability(UdgTileSpec::strict(), kLambda, 8000, 5);
  EXPECT_NEAR(frac, mc.estimate(), 0.05);
}

TEST(UdgSens, SiteGridMatchesClassification) {
  const UdgSensResult r = small_build(3);
  const SiteGrid& grid = r.overlay.sites;
  for (std::size_t idx = 0; idx < r.classification.good.size(); ++idx) {
    EXPECT_EQ(grid.open(grid.site_at(idx)), r.classification.good[idx] == 1);
  }
}

TEST(UdgSens, RepNodesExistExactlyOnGoodTiles) {
  const UdgSensResult r = small_build(4);
  for (std::size_t idx = 0; idx < r.classification.good.size(); ++idx) {
    const TileLeaders& nodes = r.overlay.tile_nodes[idx];
    const bool has_rep = nodes[0] != kNoNode;
    EXPECT_EQ(has_rep, r.classification.good[idx] == 1);
    for (std::size_t s = 0; s < nodes.size(); ++s) {
      if (!has_rep || s >= 5) {
        EXPECT_EQ(nodes[s], kNoNode) << "bad tile or UDG E-relay slot " << s;
      } else {
        // Each node maps back to the elected base point of its slot.
        EXPECT_EQ(r.overlay.base_index[nodes[s]], r.classification.leaders[idx][s]);
      }
    }
  }
}

TEST(OverlayNumbering, UdgMatchesMapReference) {
  // Node ids, reps, exit chains and prescribed edges equal a direct global
  // point -> node numbering, on both presets. Region lenses overlap, so on
  // every preset some points hold several slots of their tile.
  for (const UdgTileSpec& spec : {UdgTileSpec::strict(), UdgTileSpec::paper()}) {
    std::size_t shared = 0;
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      const UdgSensResult r = build_udg_sens(spec, kLambda, 16, 16, seed);
      const OverlaySkeleton skeleton =
          overlay_skeleton(r.classification, r.points.size(), spec.side);
      testing_ref::expect_overlay_matches(r.classification, skeleton, /*e_relays=*/false);
      EXPECT_EQ(r.overlay.base_index, skeleton.overlay.base_index);
      EXPECT_EQ(r.overlay.tile_nodes, skeleton.overlay.tile_nodes);
      shared += testing_ref::shared_point_tiles(r.classification, /*e_relays=*/false);
    }
    EXPECT_GT(shared, 0u) << spec.name << ": no point holds two slots, the dedupe is untested";
  }
}

TEST(UdgSens, GiantComponentCoversCoupledGiantCluster) {
  // Tile-level giant cluster connectivity transfers to the overlay: reps of
  // any two giant-cluster sites are connected in the overlay graph.
  const UdgSensResult r = small_build(5);
  const ClusterLabels labels(r.overlay.sites);
  ASSERT_GE(labels.largest_cluster_size(), 2u);
  std::vector<Site> giant;
  for (std::size_t i = 0; i < r.overlay.sites.num_sites(); i += 3) {
    const Site s = r.overlay.sites.site_at(i);
    if (labels.in_largest(s)) giant.push_back(s);
  }
  ASSERT_GE(giant.size(), 2u);
  const std::uint32_t comp = r.overlay.comps.label[r.overlay.rep_of(giant.front())];
  for (const Site s : giant) EXPECT_EQ(r.overlay.comps.label[r.overlay.rep_of(s)], comp);
}

TEST(UdgSens, StretchSamplesBounded) {
  const UdgSensResult r = build_udg_sens(UdgTileSpec::strict(), kLambda, 32, 32, 6);
  const auto samples = sample_overlay_stretch(r.overlay, 60, 11);
  ASSERT_GT(samples.size(), 20u);
  for (const auto& s : samples) {
    EXPECT_GE(s.length_stretch(), 1.0 - 1e-9);  // Euclid is a lower bound
    EXPECT_LT(s.length_stretch(), 12.0);        // constant-stretch sanity ceiling
    EXPECT_GT(s.hops, 0u);
  }
}

TEST(UdgSens, EmptyBlockProbabilityDecreasesWithSize) {
  const UdgSensResult r = build_udg_sens(UdgTileSpec::strict(), kLambda, 48, 48, 8);
  const int sizes[] = {1, 2, 3, 5, 8};
  const auto probs = empty_block_probability(r.overlay, sizes);
  ASSERT_EQ(probs.size(), 5u);
  for (std::size_t i = 1; i < probs.size(); ++i) EXPECT_LE(probs[i], probs[i - 1] + 1e-12);
  EXPECT_LT(probs.back(), probs.front());
  EXPECT_LT(probs[4], 0.05);  // 8x8 tile blocks essentially never empty
}

TEST(UdgSens, EmptyBlockOversizeIsOne) {
  const UdgSensResult r = small_build(9, 8);
  const int sizes[] = {100};
  EXPECT_DOUBLE_EQ(empty_block_probability(r.overlay, sizes)[0], 1.0);
}

TEST(UdgSens, EmptyBoxProbabilityEuclid) {
  const UdgSensResult r = build_udg_sens(UdgTileSpec::strict(), kLambda, 32, 32, 10);
  const Proportion small_box = empty_box_probability(r.overlay, 0.6, 2000, 3);
  const Proportion big_box = empty_box_probability(r.overlay, 4.0, 2000, 4);
  EXPECT_GT(small_box.estimate(), big_box.estimate());
  EXPECT_LT(big_box.estimate(), 0.1);
}

TEST(UdgSens, EmptyBoxRejectsBadSide) {
  const UdgSensResult r = small_build(9, 8);
  for (const double bad : {0.0, -1.0, std::nan(""), HUGE_VAL}) {
    EXPECT_THROW((void)empty_box_probability(r.overlay, bad, 10, 1), std::invalid_argument)
        << bad;
  }
}

TEST(UdgSensRouter, RoutesWithinGiantAndPathValid) {
  const UdgSensResult r = build_udg_sens(UdgTileSpec::strict(), kLambda, 32, 32, 12);
  const auto reps = r.overlay.giant_rep_sites();
  ASSERT_GE(reps.size(), 2u);
  const SensRouter router(r.overlay);
  const SensRoute route = router.route(reps.front(), reps.back());
  ASSERT_TRUE(route.success);
  EXPECT_GE(route.probes, route.tile_hops);
  ASSERT_GE(route.node_path.size(), 2u);
  EXPECT_EQ(route.node_path.front(), r.overlay.rep_of(reps.front()));
  EXPECT_EQ(route.node_path.back(), r.overlay.rep_of(reps.back()));
  for (std::size_t i = 1; i < route.node_path.size(); ++i) {
    EXPECT_TRUE(r.overlay.geo.graph.has_edge(route.node_path[i - 1], route.node_path[i]))
        << "relay chain step " << i << " is not an overlay edge";
  }
  EXPECT_NEAR(route.euclid_length,
              r.overlay.geo.path_length(route.node_path), 1e-9);
}

TEST(UdgSensRouter, RouteLengthLowerBound) {
  const UdgSensResult r = build_udg_sens(UdgTileSpec::strict(), kLambda, 32, 32, 13);
  const auto reps = r.overlay.giant_rep_sites();
  ASSERT_GE(reps.size(), 2u);
  const SensRouter router(r.overlay);
  const SensRoute route = router.route(reps.front(), reps.back());
  ASSERT_TRUE(route.success);
  const double straight = dist(r.overlay.geo.points[route.node_path.front()],
                               r.overlay.geo.points[route.node_path.back()]);
  EXPECT_GE(route.euclid_length, straight - 1e-9);
}

TEST(UdgSens, PaperSpecReportsClaimGap) {
  // The paper preset has no worst-case guarantee; at moderate density some
  // prescribed edges exceed the unit radius. The builder must quantify
  // rather than hide this.
  const UdgSensResult r = build_udg_sens(UdgTileSpec::paper(), 10.0, 24, 24, 21);
  const ClaimCheck check = check_adjacent_tile_paths(r.overlay);
  EXPECT_GT(check.adjacent_good_pairs, 0u);
  // Either some edges went missing or every path realized — both are valid
  // outcomes of the measurement; assert only the accounting is consistent.
  EXPECT_LE(check.paths_realized, check.adjacent_good_pairs);
  // Accounting consistency (edges may dedupe when one node serves two roles).
  EXPECT_LE(r.overlay.edges_missing, r.overlay.edges_expected);
  EXPECT_LE(r.overlay.geo.graph.num_edges() + r.overlay.edges_missing,
            r.overlay.edges_expected);
}

// A classification built on more points than the overlay is given: the
// good tiles' highest leader falls outside the truncated span, so the
// skeleton must throw before any link test reads past it.
TEST(UdgSens, OverlayRejectsLeaderOutOfRange) {
  const UdgSensResult r = small_build(1);
  const UdgClassification& cls = r.classification;
  std::uint32_t max_leader = 0;
  for (std::size_t t = 0; t < cls.good.size(); ++t) {
    if (!cls.good[t]) continue;
    for (std::size_t slot = 0; slot < 5; ++slot) {
      max_leader = std::max(max_leader, cls.leaders[t][slot]);
    }
  }
  ASSERT_GT(max_leader, 0u);
  const std::span<const Vec2> pts(r.points.points);
  EXPECT_THROW((void)build_udg_overlay(cls, pts.first(max_leader)), std::invalid_argument);
  EXPECT_NO_THROW((void)build_udg_overlay(cls, pts.first(max_leader + 1)));
}

}  // namespace
}  // namespace sens
