// Property and integration tests for the NN-SENS construction. The
// NnLinkTest suite pins the link test (`knn_selects`, the early-exit count)
// against GridKnn's k-nearest selections and is part of the `construction`
// ctest tier.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "sens/core/coverage.hpp"
#include "sens/core/metrics.hpp"
#include "sens/core/nn_sens.hpp"
#include "sens/core/sens_router.hpp"
#include "sens/support/parallel.hpp"

namespace sens {
namespace {

// Paper parameters; 10x10 tile windows keep the k-NN graph small enough for
// unit tests while leaving dozens of good tiles.
NnSensResult small_build(std::uint64_t seed, int tiles = 10) {
  return build_nn_sens(NnTileSpec::paper(), tiles, tiles, seed);
}

class NnSensSeedTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NnSensSeedTest, MaxDegreeFour) {
  const NnSensResult r = small_build(GetParam());
  const DegreeReport deg = overlay_degree_report(r.overlay);
  EXPECT_LE(deg.max_degree, 4u) << "P1 violated";
}

TEST_P(NnSensSeedTest, ClaimEdgesAllExistInKnnGraph) {
  // Claim 2.3: with both adjacent tiles good, all five prescribed edges are
  // genuine NN(2, k) edges — edges_missing must be zero.
  const NnSensResult r = small_build(GetParam());
  EXPECT_EQ(r.overlay.edges_missing, 0u);
  EXPECT_GT(r.overlay.edges_expected, 0u);
}

TEST_P(NnSensSeedTest, AdjacentGoodTilePathsRealized) {
  const NnSensResult r = small_build(GetParam());
  const ClaimCheck check = check_adjacent_tile_paths(r.overlay);
  if (check.adjacent_good_pairs == 0) GTEST_SKIP() << "no adjacent good pairs this seed";
  EXPECT_DOUBLE_EQ(check.realized_fraction(), 1.0);
  EXPECT_GT(check.worst_stretch, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NnSensSeedTest, ::testing::Range<std::uint64_t>(1, 7));

TEST(NnSens, GoodFractionPlausible) {
  const NnSensResult r = small_build(42, 12);
  const double frac = static_cast<double>(r.classification.good_count()) /
                      static_cast<double>(r.classification.good.size());
  // At the paper's (a, k) the good probability is ~0.62 (see E2).
  EXPECT_GT(frac, 0.35);
  EXPECT_LT(frac, 0.85);
}

TEST(NnSens, ExitChainsHaveTwoRelays) {
  const NnSensResult r = small_build(2);
  for (std::size_t idx = 0; idx < r.classification.good.size(); ++idx) {
    if (!r.classification.good[idx]) continue;
    for (int dir = 0; dir < 4; ++dir) {
      EXPECT_EQ(r.overlay.exit_chain[idx][static_cast<std::size_t>(dir)].size(), 2u)
          << "NN exit chain is E relay then C relay";
    }
  }
}

// Sharded over seeds: gtest_discover_tests registers each instantiation as
// its own ctest entry, so `ctest -j` runs the four builds on separate cores.
// The spec is hoisted out of the per-tile loop — before the polygon cache
// existed, constructing NnTileSpec::paper() per good tile made this single
// test dominate the suite (~77 s of a ~78 s serial run). Four seeds also
// strictly widen coverage over the original single-seed (seed 3) check.
class NnOccupancyShardTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NnOccupancyShardTest, OccupancyCapVisibleInClassification) {
  const NnTileSpec spec = NnTileSpec::paper();
  const NnSensResult r = small_build(GetParam());
  std::size_t good_tiles = 0;
  for (std::size_t idx = 0; idx < r.classification.good.size(); ++idx) {
    if (r.classification.good[idx]) {
      ++good_tiles;
      EXPECT_LE(r.classification.occupancy[idx], spec.max_occupancy());
    }
  }
  EXPECT_GT(good_tiles, 0u) << "degenerate shard: no good tiles at this seed";
}

INSTANTIATE_TEST_SUITE_P(Shards, NnOccupancyShardTest,
                         ::testing::Values<std::uint64_t>(3, 11, 17, 23));

TEST(NnSens, CoverageDecaysWithBlockSize) {
  const NnSensResult r = small_build(5, 14);
  const int sizes[] = {1, 2, 3};
  const auto probs = empty_block_probability(r.overlay, sizes);
  EXPECT_GE(probs[0], probs[1]);
  EXPECT_GE(probs[1], probs[2]);
}

TEST(NnSensRouter, RoutesAcrossTheWindow) {
  const NnSensResult r = small_build(7, 12);
  const auto reps = r.overlay.giant_rep_sites();
  if (reps.size() < 2) GTEST_SKIP() << "giant cluster too small this seed";
  const SensRouter router(r.overlay);
  const SensRoute route = router.route(reps.front(), reps.back());
  ASSERT_TRUE(route.success);
  for (std::size_t i = 1; i < route.node_path.size(); ++i) {
    EXPECT_TRUE(r.overlay.geo.graph.has_edge(route.node_path[i - 1], route.node_path[i]));
  }
  // NN tile hop realizes through 4 relays -> about 5 node hops per tile hop.
  EXPECT_GE(route.node_hops(), route.tile_hops);
  EXPECT_LE(route.node_hops(), 5 * route.tile_hops + 1);
}

TEST(NnSens, BufferIndependence) {
  // Interior goodness must not depend on the buffer width (cell-consistent
  // sampling + window-local classification).
  const NnSensResult narrow = build_nn_sens(NnTileSpec::paper(), 8, 8, 31, 1.0);
  const NnSensResult wide = build_nn_sens(NnTileSpec::paper(), 8, 8, 31, 2.0);
  ASSERT_EQ(narrow.classification.good.size(), wide.classification.good.size());
  for (std::size_t i = 0; i < narrow.classification.good.size(); ++i)
    EXPECT_EQ(narrow.classification.good[i], wide.classification.good[i]);
}

// --- the link test against the selection it replaces -----------------------

/// Every (from, to) pair with `from` in `froms` and any `to` != from: the
/// early-exit count must agree with membership in GridKnn::nearest_into's
/// k-selection — pairs inside and outside the k-th neighbour alike. The
/// count runs on two grid geometries (k-tuned, and unit cells, whose radius
/// queries span several rings).
void expect_link_test_matches_selection(const std::vector<Vec2>& pts, std::size_t k,
                                        const std::vector<std::uint32_t>& froms) {
  const GridKnn oracle(pts, k);
  GridKnn::QueryScratch scratch;
  std::vector<std::uint32_t> selection;
  std::vector<std::uint8_t> selected(pts.size());
  std::vector<GridKnn> grids;
  grids.emplace_back(pts, k);
  grids.push_back(GridKnn::for_radius(pts, 1.0));
  for (const std::uint32_t from : froms) {
    oracle.nearest_into(pts[from], k, from, scratch, selection);
    ASSERT_EQ(selection.size(), std::min(k, pts.size() - 1));
    std::fill(selected.begin(), selected.end(), 0);
    for (const std::uint32_t j : selection) selected[j] = 1;
    for (const GridKnn& grid : grids) {
      for (std::uint32_t to = 0; to < pts.size(); ++to) {
        if (to == from) continue;
        EXPECT_EQ(knn_selects(grid, k, from, to), selected[to] == 1)
            << "k=" << k << " from=" << from << " to=" << to;
      }
    }
  }
}

std::vector<std::uint32_t> every_nth(std::size_t n, std::size_t step) {
  std::vector<std::uint32_t> out;
  for (std::size_t i = 0; i < n; i += step) out.push_back(static_cast<std::uint32_t>(i));
  return out;
}

TEST(NnLinkTest, MatchesSelectionOnPoissonSamples) {
  for (const std::uint64_t seed : {1u, 2u}) {
    const PointSet ps = poisson_point_set(Box{{0.0, 0.0}, {35.0, 35.0}}, 1.0, seed);
    ASSERT_GT(ps.points.size(), 1000u);
    for (const std::size_t k : {160u, 188u}) {
      expect_link_test_matches_selection(ps.points, k, every_nth(ps.points.size(), 173));
    }
  }
}

TEST(NnLinkTest, MatchesSelectionOnLatticeTiesAndDuplicates) {
  // Integer lattice: many points at exactly the k-th distance, so the
  // index tie-break decides membership; every 7th point is duplicated at
  // the end of the list (distance-zero ties with a larger index).
  std::vector<Vec2> pts;
  for (int y = 0; y < 30; ++y) {
    for (int x = 0; x < 30; ++x) pts.push_back({static_cast<double>(x), static_cast<double>(y)});
  }
  const std::size_t lattice = pts.size();
  for (std::size_t i = 0; i < lattice; i += 7) pts.push_back(pts[i]);
  std::vector<std::uint32_t> froms = every_nth(lattice, 97);
  froms.push_back(static_cast<std::uint32_t>(15 * 30 + 12));  // interior, has a duplicate
  froms.push_back(static_cast<std::uint32_t>(lattice + 3));   // a duplicate itself
  for (const std::size_t k : {1u, 8u, 13u, 160u, 188u}) {
    expect_link_test_matches_selection(pts, k, froms);
  }
}

TEST(NnLinkTest, KAtLeastNMinusOneSelectsEveryPair) {
  const PointSet ps = poisson_point_set(Box{{0.0, 0.0}, {6.0, 6.0}}, 1.0, 9);
  const std::size_t n = ps.points.size();
  ASSERT_GT(n, 5u);
  const GridKnn grid(ps.points, n);
  for (const std::size_t k : {n - 1, n, std::size_t{188}}) {
    for (std::uint32_t from = 0; from < n; ++from) {
      for (std::uint32_t to = 0; to < n; ++to) {
        if (to != from) {
          EXPECT_TRUE(knn_selects(grid, k, from, to)) << k;
        }
      }
    }
  }
  expect_link_test_matches_selection(ps.points, n - 2, every_nth(n, 1));
}

TEST(NnLinkTest, OverlayLinksMatchSelectionsAtAnyThreadCount) {
  // Realized against a k well below the paper's, many prescribed edges are
  // not NN(2, k) edges, so the linked flags are mixed and a link test that
  // always (or never) links would show. The uncapped classification (the
  // A2 ablation) adds crowded good tiles.
  const NnSensResult capped = small_build(5, 9);
  const std::vector<Vec2>& pts = capped.points.points;
  for (const std::size_t k : {24u, 188u}) {
    NnClassification cls =
        classify_nn(NnTileSpec(0.893, 1u << 20), pts, capped.classification.window);
    cls.k = k;
    const OverlaySkeleton skeleton = overlay_skeleton(cls, 10.0 * cls.a, /*e_relays=*/true);
    const std::vector<std::uint32_t>& base = skeleton.overlay.base_index;
    const GridKnn grid(pts, k);
    GridKnn::QueryScratch scratch;
    std::vector<std::uint32_t> sel;
    auto selects = [&](std::uint32_t from, std::uint32_t to) {
      grid.nearest_into(pts[from], k, from, scratch, sel);
      return std::find(sel.begin(), sel.end(), to) != sel.end();
    };
    std::size_t missing = 0;
    std::vector<std::uint8_t> expected;
    for (const PrescribedEdge& e : skeleton.edges) {
      const bool linked = selects(base[e.a], base[e.b]) || selects(base[e.b], base[e.a]);
      expected.push_back(linked ? 1 : 0);
      if (!linked) ++missing;
    }
    if (k == 24) {
      ASSERT_GT(missing, 0u) << "every edge linked at k = 24: the test is vacuous";
      ASSERT_LT(missing, skeleton.edges.size());
    }
    for (const unsigned threads : {1u, 2u, 8u}) {
      set_thread_count(threads);
      const Overlay ov = build_nn_overlay(cls, pts);
      EXPECT_EQ(ov.edges_missing, missing) << "k=" << k << ", " << threads << " threads";
      for (std::size_t i = 0; i < skeleton.edges.size(); ++i) {
        const PrescribedEdge& e = skeleton.edges[i];
        EXPECT_EQ(ov.geo.graph.has_edge(e.a, e.b), expected[i] == 1)
            << "edge " << i << ", k=" << k << ", " << threads << " threads";
      }
    }
  }
  set_thread_count(0);
}

TEST(NnLinkTest, OverlayRejectsLeaderOutOfRange) {
  const NnSensResult r = small_build(1);
  NnClassification cls = r.classification;
  const auto good = std::find(cls.good.begin(), cls.good.end(), 1);
  ASSERT_NE(good, cls.good.end());
  cls.leaders[static_cast<std::size_t>(good - cls.good.begin())][5] =
      static_cast<std::uint32_t>(r.points.points.size());
  EXPECT_THROW((void)build_nn_overlay(cls, r.points.points), std::invalid_argument);
}

}  // namespace
}  // namespace sens
