// Tests for sens/tiles: tiling/coupling map, the two tile specs, goodness
// predicates, and the P(good) estimators behind Theorems 2.2 / 2.4.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <numbers>
#include <span>
#include <utility>
#include <vector>

#include "sens/geograph/point_set.hpp"
#include "sens/rng/rng.hpp"
#include "sens/tiles/classify.hpp"
#include "sens/tiles/good_prob.hpp"
#include "sens/tiles/nn_tile.hpp"
#include "sens/tiles/tiling.hpp"
#include "sens/tiles/udg_tile.hpp"

namespace sens {
namespace {

/// Coordinates as pairs, for exact comparisons.
std::pair<double, double> xy(Vec2 v) { return {v.x, v.y}; }
std::pair<std::int64_t, std::int64_t> ij(TileCoord t) { return {t.i, t.j}; }

/// The tile that `w` maps to site `s`: the inverse of TileWindow::phi.
TileCoord tile_at(const TileWindow& w, Site s) { return {w.i0 + s.x, w.j0 + s.y}; }

TEST(TilingTest, TileOfAndBox) {
  const Tiling t(2.0);
  EXPECT_EQ(ij(t.tile_of({0.5, 0.5})), ij({0, 0}));
  EXPECT_EQ(ij(t.tile_of({-0.5, 3.9})), ij({-1, 1}));
  const Box b = t.tile_box({1, -1});
  EXPECT_EQ(xy(b.lo), xy({2.0, -2.0}));
  EXPECT_EQ(xy(b.hi), xy({4.0, 0.0}));
  EXPECT_EQ(xy(t.tile_center({0, 0})), xy({1.0, 1.0}));
  EXPECT_EQ(xy(t.local({1.5, 0.5}, {0, 0})), xy({0.5, -0.5}));
}

TEST(TileWindowTest, PhiRoundTrip) {
  const TileWindow w{-3, 2, 8, 6};
  EXPECT_TRUE(w.contains({-3, 2}));
  EXPECT_TRUE(w.contains({4, 7}));
  EXPECT_FALSE(w.contains({5, 2}));
  EXPECT_FALSE(w.contains({-4, 2}));
  const TileCoord t{1, 5};
  EXPECT_EQ(ij(tile_at(w, w.phi(t))), ij(t));
  EXPECT_EQ(w.phi(t), (Site{4, 3}));
  EXPECT_EQ(w.tile_count(), 48u);
  EXPECT_EQ(w.index({-3, 2}), 0u);
  const Box b = w.bounds(Tiling(1.5));
  EXPECT_DOUBLE_EQ(b.lo.x, -4.5);
  EXPECT_DOUBLE_EQ(b.width(), 12.0);
}

TEST(UdgSpec, PresetsAndGuarantees) {
  const UdgTileSpec paper = UdgTileSpec::paper();
  EXPECT_DOUBLE_EQ(paper.side, 4.0 / 3.0);
  EXPECT_FALSE(paper.guarantees_paths());  // DESIGN.md 1.1

  const UdgTileSpec strict = UdgTileSpec::strict();
  EXPECT_TRUE(strict.guarantees_paths());
  EXPECT_GT(strict.relay_region_area(), 0.0);
}

TEST(UdgSpec, RegionMembership) {
  const UdgTileSpec s = UdgTileSpec::strict();
  EXPECT_TRUE(s.in_rep_region({0.0, 0.0}));
  EXPECT_TRUE(s.in_rep_region({s.rep_radius, 0.0}));
  EXPECT_FALSE(s.in_rep_region({s.rep_radius + 0.01, 0.0}));
  // A point between C0 and the right edge, inside both reach disks.
  const Vec2 relay_pt{(s.side - s.reach + s.reach) / 2.0, 0.0};  // = side/2 area midpoint
  EXPECT_TRUE(s.in_relay_region({0.40, 0.0}, 0));
  EXPECT_FALSE(s.in_relay_region({0.40, 0.0}, 1));  // wrong direction
  EXPECT_FALSE(s.in_relay_region({0.0, 0.0}, 0));   // inside C0
  EXPECT_FALSE(s.in_relay_region({s.side, 0.0}, 0));  // outside tile
  (void)relay_pt;
}

TEST(UdgSpec, RegionMaskAndGoodness) {
  const UdgTileSpec s = UdgTileSpec::strict();
  EXPECT_EQ(udg_region_mask(s, {0.0, 0.0}), 1u);
  EXPECT_EQ(udg_region_mask(s, {0.40, 0.0}) & 0b10u, 0b10u);
  // One point per region makes the tile good.
  const std::vector<Vec2> pts{{0.0, 0.0}, {0.40, 0.0}, {-0.40, 0.0}, {0.0, 0.40}, {0.0, -0.40}};
  EXPECT_TRUE(udg_tile_good(s, pts));
  // Remove one relay -> bad.
  const std::vector<Vec2> missing{{0.0, 0.0}, {0.40, 0.0}, {-0.40, 0.0}, {0.0, 0.40}};
  EXPECT_FALSE(udg_tile_good(s, missing));
  EXPECT_FALSE(udg_tile_good(s, {}));
}

TEST(UdgSpec, CornerPointsServeTwoRelays) {
  const UdgTileSpec s = UdgTileSpec::strict();
  // A point in the overlap of the +x and +y lenses (DESIGN/paper remark).
  const Vec2 p{0.30, 0.30};
  if (s.in_relay_region(p, 0)) {
    EXPECT_TRUE(s.in_relay_region(p, 2));
  }
}

TEST(UdgSpec, AreasSumBelowTileArea) {
  for (const auto& s : {UdgTileSpec::paper(), UdgTileSpec::strict()}) {
    // C0 lies inside the tile for both presets (rep_radius <= side / 2).
    ASSERT_LE(s.rep_radius, s.side / 2.0);
    const double rep_area = std::numbers::pi * s.rep_radius * s.rep_radius;
    EXPECT_GT(s.relay_region_area(), 0.0);
    EXPECT_LT(rep_area + 4.0 * s.relay_region_area(), s.side * s.side * 1.2);
  }
}

TEST(UdgSpec, StrictWorstCaseEdgeBound) {
  // Brute-force the Claim 2.1 guarantee: sampled rep/relay placements never
  // exceed the link radius for the strict spec.
  const UdgTileSpec s = UdgTileSpec::strict();
  Rng rng(41);
  for (int t = 0; t < 20000; ++t) {
    const Vec2 rep = Vec2{rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)} * s.rep_radius;
    if (!s.in_rep_region(rep)) continue;
    const Vec2 relay{rng.uniform(0.0, s.side / 2.0), rng.uniform(-s.side / 2.0, s.side / 2.0)};
    if (!s.in_relay_region(relay, 0)) continue;
    EXPECT_LE(dist(rep, relay), s.link_radius + 1e-12);
    // Facing relay in the right neighbor (local coords of the neighbor tile).
    const Vec2 relay2{rng.uniform(-s.side / 2.0, 0.0), rng.uniform(-s.side / 2.0, s.side / 2.0)};
    if (!s.in_relay_region(relay2, 1)) continue;
    const Vec2 relay2_abs = relay2 + Vec2{s.side, 0.0};
    EXPECT_LE(dist(relay, relay2_abs), s.link_radius + 1e-12);
  }
}

TEST(NnSpec, GeometrySanity) {
  const NnTileSpec s = NnTileSpec::paper();
  EXPECT_DOUBLE_EQ(s.a(), 0.893);
  EXPECT_EQ(s.k(), 188u);
  EXPECT_EQ(s.max_occupancy(), 94u);
  EXPECT_DOUBLE_EQ(s.side(), 8.93);
  // E regions are larger than the C disks.
  EXPECT_GT(s.e_polygon(0).area(), std::numbers::pi * 0.893 * 0.893);
  // E region lies strictly between C0 and the C disk, inside the tile.
  for (const Vec2 v : s.e_polygon(0).vertices()) {
    EXPECT_GT(v.x, 0.0);
    EXPECT_LT(v.x, s.side() / 2.0);
  }
}

TEST(NnSpec, RegionMembershipAndMask) {
  const NnTileSpec s = NnTileSpec::paper();
  const double a = s.a();
  EXPECT_TRUE(s.in_c0({0.0, 0.0}));
  EXPECT_TRUE(s.in_c_region({4.0 * a, 0.0}, 0));
  EXPECT_TRUE(s.in_c_region({-4.0 * a, 0.5 * a}, 1));
  EXPECT_FALSE(s.in_c_region({4.0 * a, 0.0}, 2));
  EXPECT_TRUE(s.in_e_region({2.0 * a, 0.0}, 0));
  EXPECT_TRUE(s.in_e_region({0.0, 2.0 * a}, 2));
  EXPECT_FALSE(s.in_e_region({2.0 * a, 0.0}, 1));
  EXPECT_EQ(s.region_mask({0.0, 0.0}) & 1u, 1u);
  EXPECT_EQ(s.region_mask({2.0 * a, 0.0}) & (1u << 5), 1u << 5);
  EXPECT_EQ(s.region_mask({4.0 * a, 0.0}) & (1u << 1), 1u << 1);
}

TEST(NnSpec, PolygonAgreesWithExactOracle) {
  const NnTileSpec s = NnTileSpec::paper();
  Rng rng(71);
  int checked = 0, disagreements = 0;
  for (int t = 0; t < 800; ++t) {
    const Vec2 p{rng.uniform(-s.side() / 2, s.side() / 2),
                 rng.uniform(-s.side() / 2, s.side() / 2)};
    const bool poly = s.in_e_region(p, 0);
    const bool exact = s.in_e_region_exact(p, 0, 1e-6);
    // Points near the boundary may flip; count real disagreements away from it.
    if (poly != exact) ++disagreements;
    ++checked;
  }
  EXPECT_GT(checked, 0);
  EXPECT_LE(disagreements, checked / 50);  // <= 2% boundary flips
}

TEST(NnSpec, SymmetryUnderRotation) {
  const NnTileSpec s = NnTileSpec::paper();
  // E regions are 90-degree rotations of each other.
  const Vec2 p{1.8 * s.a(), 0.4 * s.a()};
  const Vec2 rot{-p.y, p.x};  // +90 degrees: +x direction -> +y direction
  EXPECT_EQ(s.in_e_region(p, 0), s.in_e_region(rot, 2));
  EXPECT_NEAR(s.e_polygon(0).area(), s.e_polygon(2).area(), 1e-3);
  EXPECT_NEAR(s.e_polygon(1).area(), s.e_polygon(3).area(), 1e-3);
}

TEST(NnSpec, GoodnessRequiresCapAndOccupancy) {
  const NnTileSpec s(0.9, 20);  // cap = 10
  const double a = 0.9;
  std::vector<Vec2> pts{
      {0.0, 0.0},                        // C0
      {4.0 * a, 0.0},  {-4.0 * a, 0.0},  // Cr, Cl
      {0.0, 4.0 * a},  {0.0, -4.0 * a},  // Ct, Cb
      {2.0 * a, 0.0},  {-2.0 * a, 0.0},  // Er, El
      {0.0, 2.0 * a},  {0.0, -2.0 * a},  // Et, Eb
  };
  EXPECT_TRUE(s.good(pts));
  EXPECT_TRUE(s.regions_occupied(pts));
  // Blow the cap with filler points in no particular region.
  std::vector<Vec2> crowded = pts;
  for (int i = 0; i < 3; ++i) crowded.push_back({3.3 * a, 3.3 * a});
  EXPECT_GT(crowded.size(), s.max_occupancy());
  EXPECT_FALSE(s.good(crowded));
  EXPECT_TRUE(s.regions_occupied(crowded));
  // Remove a required region -> bad even under the cap.
  std::vector<Vec2> missing(pts.begin(), pts.end() - 1);
  EXPECT_FALSE(s.good(missing));
}

TEST(NnSpec, InvalidParamsThrow) {
  EXPECT_THROW(NnTileSpec(0.0, 10), std::invalid_argument);
  EXPECT_THROW(NnTileSpec(1.0, 0), std::invalid_argument);
}

TEST(NnTilePolygonTable, BakedTableMatchesFreshComputation) {
  // The baked table in nn_tile_polygons.inc seeds the spec's polygon cache
  // so every fresh process skips ~0.7 s of ray casting. Recompute the paper
  // geometry from the disk-family oracle and require bit-identical vertices:
  // if the region geometry code changes, this fails and the table must be
  // regenerated (tools/gen_nn_polygons, see its header for the command).
  const NnTileSpec cached = NnTileSpec::paper();  // baked-table hit
  const auto fresh = compute_nn_e_polygons(cached.a());
  for (int dir = 0; dir < 4; ++dir) {
    const auto& got = cached.e_polygon(dir).vertices();
    const auto& want = fresh[static_cast<std::size_t>(dir)].vertices();
    ASSERT_EQ(got.size(), want.size()) << "dir " << dir;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].x, want[i].x) << "dir " << dir << " vertex " << i;
      ASSERT_EQ(got[i].y, want[i].y) << "dir " << dir << " vertex " << i;
    }
  }
}

// A larger region-disk radius relaxes every disk constraint, so the relay
// regions grow with `a`. 0.95 is served from the baked table like the other
// hot values — construction must be instant, not a 0.7 s polygonization.
TEST(NnSpec, ERegionGrowsWithDiskRadius) {
  const NnTileSpec narrow(0.893, 188);
  const NnTileSpec wide(0.95, 188);
  EXPECT_GT(wide.e_polygon(0).area(), narrow.e_polygon(0).area());
  EXPECT_DOUBLE_EQ(wide.side(), 9.5);
}

TEST(NnTilePolygonTable, BakedTableCoversEveryTestedA) {
  // Every `a` the test suites construct repeatedly must be served from the
  // baked table (exact double match — the cache keys on the literal). When
  // this fails, add the new value to tools/gen_nn_polygons' default set and
  // regenerate nn_tile_polygons.inc (command in the tool's header).
  const std::vector<double> baked = baked_nn_polygon_a_values();
  for (const double a : {0.893, 0.9, 0.95}) {
    EXPECT_TRUE(std::find(baked.begin(), baked.end(), a) != baked.end())
        << "a = " << a << " is constructed by tests but not baked";
  }
}

TEST(GoodProb, UdgMonotoneInLambda) {
  const UdgTileSpec s = UdgTileSpec::paper();
  const double p1 = udg_good_probability(s, 4.0, 3000, 2).estimate();
  const double p2 = udg_good_probability(s, 8.0, 3000, 2).estimate();
  const double p3 = udg_good_probability(s, 16.0, 3000, 2).estimate();
  EXPECT_LT(p1, p2);
  EXPECT_LT(p2, p3);
}

TEST(GoodProb, UdgThresholdBracketsTarget) {
  const UdgTileSpec s = UdgTileSpec::paper();
  const double lambda_s = find_udg_lambda_threshold(s, 0.593, 2500, 7, 0.5, 64.0, 14);
  const double below = udg_good_probability(s, lambda_s * 0.8, 4000, 11).estimate();
  const double above = udg_good_probability(s, lambda_s * 1.2, 4000, 12).estimate();
  EXPECT_LT(below, 0.593);
  EXPECT_GT(above, 0.593);
}

TEST(GoodProb, NnCurveMonotoneInK) {
  const NnGoodCurve curve(0.893, 2500, 3);
  double prev = -1.0;
  for (std::size_t k = 80; k <= 280; k += 20) {
    const double p = curve.probability_at(k).estimate();
    EXPECT_GE(p, prev);
    prev = p;
  }
  EXPECT_LE(prev, curve.occupancy_only().estimate() + 1e-12);
}

TEST(GoodProb, NnThresholdNearPaperValue) {
  // Theorem 2.4 reproduction: measured k_s at a = 0.893 should be in the
  // paper's neighborhood (paper: 188).
  const NnGoodCurve curve(0.893, 4000, 9);
  const std::size_t ks = curve.threshold_k(0.593);
  EXPECT_GT(ks, 150u);
  EXPECT_LT(ks, 215u);
}

TEST(GoodProb, NnThresholdZeroWhenUnreachable) {
  // Tiny tiles: regions occupied almost never -> no k reaches the target.
  const NnGoodCurve curve(0.15, 400, 5);
  EXPECT_EQ(curve.threshold_k(0.99), 0u);
}

TEST(ClassifyUdg, HandCraftedTile) {
  const UdgTileSpec s = UdgTileSpec::strict();
  const TileWindow w{0, 0, 2, 1};
  // Tile (0,0) center is (side/2, side/2); place the 5 region points there.
  const Vec2 c{s.side / 2.0, s.side / 2.0};
  std::vector<Vec2> pts{c,
                        c + Vec2{0.40, 0.0},
                        c + Vec2{-0.40, 0.0},
                        c + Vec2{0.0, 0.40},
                        c + Vec2{0.0, -0.40}};
  const UdgClassification cls = classify_udg(s, pts, w);
  EXPECT_EQ(cls.good[0], 1);
  EXPECT_EQ(cls.good[1], 0);
  EXPECT_EQ(cls.occupancy[0], 5u);
  EXPECT_EQ(cls.leaders[0][0], 0u);
  EXPECT_EQ(cls.leaders[0][1], 1u);
  EXPECT_EQ(cls.leaders[0][2], 2u);
  EXPECT_EQ(cls.good_count(), 1u);
  const SiteGrid grid = cls.site_grid();
  EXPECT_TRUE(grid.open({0, 0}));
  EXPECT_FALSE(grid.open({1, 0}));
}

TEST(ClassifyUdg, ElectionPicksSmallestIndex) {
  const UdgTileSpec s = UdgTileSpec::strict();
  const TileWindow w{0, 0, 1, 1};
  const Vec2 c{s.side / 2.0, s.side / 2.0};
  // Two candidates in C0; the first index wins.
  std::vector<Vec2> pts{c + Vec2{0.05, 0.0}, c + Vec2{0.0, 0.05}};
  const UdgClassification cls = classify_udg(s, pts, w);
  EXPECT_EQ(cls.leaders[0][0], 0u);
}

TEST(ClassifyNn, OccupancyCapEnforced) {
  const NnTileSpec s(0.9, 20);  // cap 10
  const TileWindow w{0, 0, 1, 1};
  const double a = 0.9;
  const Vec2 c{s.side() / 2.0, s.side() / 2.0};
  std::vector<Vec2> pts;
  for (const Vec2 local : {Vec2{0, 0}, Vec2{4 * a, 0}, Vec2{-4 * a, 0}, Vec2{0, 4 * a},
                           Vec2{0, -4 * a}, Vec2{2 * a, 0}, Vec2{-2 * a, 0}, Vec2{0, 2 * a},
                           Vec2{0, -2 * a}})
    pts.push_back(c + local);
  NnClassification cls = classify_nn(s, pts, w);
  EXPECT_EQ(cls.good[0], 1);
  EXPECT_EQ(cls.leaders[0][0], 0u);
  // Exceed the cap.
  for (int i = 0; i < 4; ++i) pts.push_back(c + Vec2{3.4 * a, 3.4 * a});
  cls = classify_nn(s, pts, w);
  EXPECT_EQ(cls.good[0], 0);
  EXPECT_EQ(cls.occupancy[0], 13u);
}

TEST(ClassifyTiles, PointsOutsideWindowIgnored) {
  const UdgTileSpec s = UdgTileSpec::strict();
  const TileWindow w{0, 0, 1, 1};
  std::vector<Vec2> pts{{-0.1, 0.3}, {5.0, 5.0}};
  const UdgClassification cls = classify_udg(s, pts, w);
  EXPECT_EQ(cls.occupancy[0], 0u);
}

TEST(ClassifyTiles, NonFiniteCoordinatesThrow) {
  // A NaN or infinite coordinate has no tile (the floor-to-int64 cast would
  // be UB), so the role pass refuses it — in either coordinate, for both
  // models, and even when it is the only bad point in a large input.
  const UdgTileSpec udg = UdgTileSpec::strict();
  const NnTileSpec nn = NnTileSpec::paper();
  const TileWindow w{0, 0, 2, 2};
  for (const double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    for (const Vec2 p : {Vec2{bad, 0.5}, Vec2{0.5, bad}}) {
      std::vector<Vec2> pts(1000, Vec2{0.5, 0.5});
      pts[731] = p;
      EXPECT_THROW((void)classify_udg(udg, pts, w), std::invalid_argument) << bad;
      EXPECT_THROW((void)classify_nn(nn, pts, w), std::invalid_argument) << bad;
      EXPECT_THROW((void)tile_roles(udg, pts, w), std::invalid_argument) << bad;
    }
  }
}

// --- brute-force classification oracle ---

struct OracleTile {
  std::uint32_t occupancy = 0;
  unsigned mask = 0;
  std::array<std::uint32_t, 9> leaders{kNoNode, kNoNode, kNoNode, kNoNode, kNoNode,
                                       kNoNode, kNoNode, kNoNode, kNoNode};
};

/// Per tile, rescan every point: occupancy, OR of the region masks, and the
/// smallest point index holding each mask bit.
template <typename MaskFn>
std::vector<OracleTile> brute_force_tiles(std::span<const Vec2> pts, TileWindow w, double side,
                                          MaskFn mask_of) {
  const Tiling tiling(side);
  std::vector<OracleTile> out(w.tile_count());
  for (std::int32_t y = 0; y < w.height; ++y) {
    for (std::int32_t x = 0; x < w.width; ++x) {
      const TileCoord t = tile_at(w, {x, y});
      OracleTile& o = out[w.index(t)];
      for (std::uint32_t p = 0; p < pts.size(); ++p) {
        if (ij(tiling.tile_of(pts[p])) != ij(t)) continue;
        ++o.occupancy;
        const unsigned m = mask_of(tiling.local(pts[p], t));
        o.mask |= m;
        for (std::size_t slot = 0; slot < o.leaders.size(); ++slot)
          if (m & (1u << slot)) o.leaders[slot] = std::min(o.leaders[slot], p);
      }
    }
  }
  return out;
}

TEST(ClassifyOracle, UdgMatchesBruteForce) {
  const UdgTileSpec spec = UdgTileSpec::strict();
  const Tiling tiling(spec.side);
  const TileWindow w{1, 2, 6, 5};  // off-origin, with sampled points outside it
  std::size_t good = 0;
  std::size_t tiles = 0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const PointSet ps = poisson_point_set(w.bounds(tiling).expanded(spec.side), 12.0, seed);
    const UdgClassification cls = classify_udg(spec, ps.points, w);
    const std::vector<OracleTile> oracle = brute_force_tiles(
        ps.points, w, spec.side, [&](Vec2 local) { return udg_region_mask(spec, local); });
    ASSERT_EQ(cls.good.size(), oracle.size());
    for (std::size_t t = 0; t < oracle.size(); ++t) {
      const bool expect_good = oracle[t].mask == 0x1Fu;
      EXPECT_EQ(cls.occupancy[t], oracle[t].occupancy) << "seed " << seed << " tile " << t;
      EXPECT_EQ(cls.good[t], expect_good ? 1 : 0) << "seed " << seed << " tile " << t;
      EXPECT_EQ(cls.leaders[t], oracle[t].leaders) << "seed " << seed << " tile " << t;
      good += expect_good;
      ++tiles;
    }
  }
  // Both verdicts occur, so the goodness rule is exercised either way.
  EXPECT_GT(good, 0u);
  EXPECT_LT(good, tiles);
}

TEST(ClassifyOracle, NnMatchesBruteForce) {
  const TileWindow w{0, 0, 3, 3};
  std::size_t good = 0;
  std::size_t over_cap = 0;
  std::size_t tiles = 0;
  // k = 188 is the paper's spec; k = 160 caps at 80 points, near the mean
  // tile occupancy (100 a^2 = 79.7), so the cap decides many tiles.
  for (const std::size_t k : {std::size_t{188}, std::size_t{160}}) {
    const NnTileSpec spec(0.893, k);
    const Tiling tiling(spec.side());
    const PointSet ps = poisson_point_set(w.bounds(tiling).expanded(spec.side()), 1.0, k);
    const NnClassification cls = classify_nn(spec, ps.points, w);
    const std::vector<OracleTile> oracle = brute_force_tiles(
        ps.points, w, spec.side(), [&](Vec2 local) { return spec.region_mask(local); });
    ASSERT_EQ(cls.good.size(), oracle.size());
    for (std::size_t t = 0; t < oracle.size(); ++t) {
      const bool under_cap = oracle[t].occupancy <= k / 2;
      const bool expect_good = oracle[t].mask == 0x1FFu && under_cap;
      EXPECT_EQ(cls.occupancy[t], oracle[t].occupancy) << "k " << k << " tile " << t;
      EXPECT_EQ(cls.good[t], expect_good ? 1 : 0) << "k " << k << " tile " << t;
      EXPECT_EQ(cls.leaders[t], oracle[t].leaders) << "k " << k << " tile " << t;
      good += expect_good;
      over_cap += !under_cap;
      ++tiles;
    }
  }
  EXPECT_GT(good, 0u);
  EXPECT_GT(over_cap, 0u);
  EXPECT_LT(good, tiles);
}

}  // namespace
}  // namespace sens
