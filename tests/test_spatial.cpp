// Tests for sens/spatial: the bucket grid's radius and k-NN queries and the
// kd-tree, each against brute-force oracles (k-NN answers must agree
// bit-for-bit, including (distance, index) tie-breaks).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sens/geometry/vec2.hpp"
#include "sens/rng/rng.hpp"
#include "sens/spatial/grid_knn.hpp"
#include "sens/spatial/kdtree.hpp"

namespace sens {
namespace {

std::vector<Vec2> random_points(std::size_t n, std::uint64_t seed, double extent = 10.0) {
  Rng rng(seed);
  std::vector<Vec2> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    pts.push_back({rng.uniform(0.0, extent), rng.uniform(0.0, extent)});
  return pts;
}

std::vector<std::uint32_t> brute_radius(const std::vector<Vec2>& pts, Vec2 q, double r) {
  std::vector<std::uint32_t> out;
  for (std::uint32_t i = 0; i < pts.size(); ++i)
    if (dist2(pts[i], q) <= r * r) out.push_back(i);
  return out;
}

/// Every index within `r` of q, collected through the radius visitor and
/// sorted (the visitor's own order is the scan order, not index order).
std::vector<std::uint32_t> grid_radius(const GridKnn& index, Vec2 q, double r) {
  std::vector<std::uint32_t> out;
  index.for_each_in_radius(q, r, [&](std::uint32_t j) {
    out.push_back(j);
    return false;
  });
  std::sort(out.begin(), out.end());
  return out;
}

/// Independent k-NN reference: a fresh scratch plus `nearest_into`.
std::vector<std::uint32_t> kd_nearest(const KdTree& tree, Vec2 q, std::size_t k,
                                      std::uint32_t exclude = KdTree::npos) {
  KdTree::QueryScratch scratch;
  std::vector<std::uint32_t> out;
  tree.nearest_into(q, k, exclude, scratch, out);
  return out;
}

// --- GridKnn radius queries ---------------------------------------------

class GridKnnRadiusParamTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GridKnnRadiusParamTest, RadiusQueryMatchesBruteForce) {
  const auto pts = random_points(400, GetParam());
  const GridKnn index = GridKnn::for_radius(pts, 1.0);
  Rng rng(GetParam() + 999);
  for (int t = 0; t < 50; ++t) {
    const Vec2 q{rng.uniform(-1.0, 11.0), rng.uniform(-1.0, 11.0)};
    const double r = rng.uniform(0.1, 1.0);
    EXPECT_EQ(grid_radius(index, q, r), brute_radius(pts, q, r));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GridKnnRadiusParamTest, ::testing::Range<std::uint64_t>(1, 9));

TEST(GridKnnRadius, LargerRadiusThanCellStillExact) {
  const auto pts = random_points(300, 42);
  const GridKnn index = GridKnn::for_radius(pts, 0.5);
  EXPECT_EQ(grid_radius(index, {5.0, 5.0}, 3.0), brute_radius(pts, {5.0, 5.0}, 3.0));
}

// The scan widens to ceil(radius / cell) rings, so any radius is
// exhaustive — including one covering the whole grid from a corner.
TEST(GridKnnRadius, RadiusSweepsBeyondCellAreExhaustive) {
  const auto pts = random_points(250, 77);
  const GridKnn index = GridKnn::for_radius(pts, 1.0);
  Rng rng(770);
  for (int t = 0; t < 40; ++t) {
    const Vec2 q{rng.uniform(-2.0, 12.0), rng.uniform(-2.0, 12.0)};
    const double r = rng.uniform(1.0, 6.0);  // always > the cell side
    EXPECT_EQ(grid_radius(index, q, r), brute_radius(pts, q, r));
  }
  EXPECT_EQ(grid_radius(index, {0.0, 0.0}, 20.0).size(), pts.size());
  // A radius far beyond the grid caps its ring reach at the grid extent.
  EXPECT_EQ(grid_radius(index, {0.0, 0.0}, 1e300).size(), pts.size());
}

// A radius tiny against the point spread keeps the ~4n cell cap: the grid
// coarsens instead of allocating ~10^18 cells, and stays exact.
TEST(GridKnnRadius, TinyRadiusKeepsCellCap) {
  const std::vector<Vec2> pts{{0.0, 0.0}, {1e6, 1e6}, {1e6 + 1e-4, 1e6}, {3.0, 1e6}};
  const GridKnn index = GridKnn::for_radius(pts, 1e-3);
  for (const Vec2 q : pts) EXPECT_EQ(grid_radius(index, q, 1e-3), brute_radius(pts, q, 1e-3));
}

TEST(GridKnnRadius, VisitorStopsEarly) {
  const auto pts = random_points(300, 5);
  const GridKnn index = GridKnn::for_radius(pts, 1.0);
  int visits = 0;
  const bool hit = index.for_each_in_radius({5.0, 5.0}, 4.0, [&](std::uint32_t) {
    ++visits;
    return true;  // stop at the first point
  });
  EXPECT_TRUE(hit);
  EXPECT_EQ(visits, 1);
  const bool none =
      index.for_each_in_radius({5.0, 5.0}, 4.0, [](std::uint32_t) { return false; });
  EXPECT_FALSE(none);
}

// Spill entries (admitted since the last build, possibly outside the grid
// box) and tombstones must be invisible: the visitor answers exactly the
// live member set.
TEST(GridKnnRadius, MutatedGridMatchesLiveMembers) {
  auto pts = random_points(300, 61);
  pts.push_back({-3.0, 14.0});  // outside the members' bounding box
  pts.push_back({-3.2, 14.1});
  std::vector<std::uint32_t> members;
  for (std::uint32_t i = 0; i < 300; i += 2) members.push_back(i);
  GridKnn grid(pts, members, 4);
  for (std::uint32_t i = 0; i < 30; i += 3) grid.erase_member(i * 2);
  grid.insert_member(300);
  grid.insert_member(301);
  for (std::uint32_t i = 1; i < 9; i += 2) grid.insert_member(i);
  ASSERT_GT(grid.pending(), 0u);
  const std::vector<std::uint32_t> live = grid.live_members();
  Rng rng(610);
  for (int t = 0; t < 60; ++t) {
    const Vec2 q{rng.uniform(-4.0, 12.0), rng.uniform(-2.0, 15.0)};
    const double r = rng.uniform(0.2, 3.0);
    std::vector<std::uint32_t> want;
    for (const std::uint32_t m : live)
      if (dist2(pts[m], q) <= r * r) want.push_back(m);
    EXPECT_EQ(grid_radius(grid, q, r), want) << "t=" << t;
  }
  EXPECT_EQ(grid_radius(grid, {-3.1, 14.0}, 0.5), (std::vector<std::uint32_t>{300, 301}));
}

TEST(GridKnnRadius, InvalidInputThrows) {
  std::vector<Vec2> pts{{0.0, 0.0}};
  for (const double bad : {0.0, -1.0, std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    EXPECT_THROW((void)GridKnn::for_radius(pts, bad), std::invalid_argument) << bad;
  }
  // A non-finite point has no cell (the cast behind the clamp would be UB).
  for (const double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    for (const Vec2 p : {Vec2{bad, 0.5}, Vec2{0.5, bad}}) {
      const std::vector<Vec2> with_bad{{0.2, 0.2}, p};
      EXPECT_THROW((void)GridKnn::for_radius(with_bad, 1.0), std::invalid_argument) << bad;
    }
  }
}

TEST(GridKnnRadius, EmptyInput) {
  std::vector<Vec2> pts;
  const GridKnn index = GridKnn::for_radius(pts, 1.0);
  EXPECT_TRUE(grid_radius(index, {0.5, 0.5}, 10.0).empty());
}

// --- GridKnn input contract ----------------------------------------------

/// The k nearest by the kernels' own (d2, index) order, computed naively,
/// skipping index `exclude` (npos = skip nothing).
std::vector<std::uint32_t> brute_nearest(const std::vector<Vec2>& pts, Vec2 q, std::size_t k,
                                         std::uint32_t exclude = GridKnn::npos) {
  std::vector<std::pair<double, std::uint32_t>> all;
  for (std::uint32_t i = 0; i < pts.size(); ++i) {
    if (i != exclude) all.push_back({dist2(pts[i], q), i});
  }
  std::sort(all.begin(), all.end());
  std::vector<std::uint32_t> out;
  for (std::size_t i = 0; i < std::min(k, all.size()); ++i) out.push_back(all[i].second);
  return out;
}

TEST(GridKnnContract, NonFinitePointsThrow) {
  const auto pts = random_points(20, 8);
  for (const double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    for (const Vec2 p : {Vec2{bad, 0.5}, Vec2{0.5, bad}}) {
      std::vector<Vec2> with_bad = pts;
      with_bad[7] = p;
      EXPECT_THROW(GridKnn(with_bad, 4), std::invalid_argument) << bad;
      EXPECT_THROW(GridKnn(with_bad, std::vector<std::uint32_t>{3, 7}, 4), std::invalid_argument)
          << bad;
      // Admitting it is refused up front, leaving the grid unchanged.
      GridKnn grid(with_bad, std::vector<std::uint32_t>{1, 2, 3}, 2);
      EXPECT_THROW(grid.insert_member(7), std::invalid_argument) << bad;
      EXPECT_EQ(grid.live_members(), (std::vector<std::uint32_t>{1, 2, 3}));
    }
  }
  // Finite points whose bounding box spans more than a double.
  const std::vector<Vec2> wide{{-1e308, 0.0}, {1e308, 0.0}};
  EXPECT_THROW(GridKnn(wide, 1), std::invalid_argument);
  EXPECT_THROW((void)GridKnn::for_radius(wide, 1.0), std::invalid_argument);
}

// A member id past the shared store is rejected by the build, before any
// coordinate is read — for the constructor and for a later admission or
// retirement alike.
TEST(GridKnnContract, SubsetRejectsOutOfRangeMembers) {
  const auto pts = random_points(10, 4);
  EXPECT_THROW(GridKnn(pts, std::vector<std::uint32_t>{3, 10}, 1), std::out_of_range);
  GridKnn grid(pts, std::vector<std::uint32_t>{3, 9}, 1);
  EXPECT_THROW(grid.insert_member(10), std::out_of_range);
  EXPECT_THROW(grid.erase_member(10), std::out_of_range);
  EXPECT_EQ(grid.live_members(), (std::vector<std::uint32_t>{3, 9}));
}

TEST(GridKnnContract, NonFiniteQueryAndBadRadiusThrow) {
  const auto pts = random_points(50, 4);
  const GridKnn grid(pts, 4);
  const GridKnn radius_grid = GridKnn::for_radius(pts, 1.0);
  GridKnn::QueryScratch scratch;
  std::vector<std::uint32_t> out;
  auto none = [](std::uint32_t) { return false; };
  for (const double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    for (const Vec2 q : {Vec2{bad, 0.5}, Vec2{0.5, bad}}) {
      for (const std::size_t k : {std::size_t{3}, std::size_t{60}}) {
        EXPECT_THROW(grid.nearest_into(q, k, GridKnn::npos, scratch, out), std::invalid_argument)
            << bad;
      }
      EXPECT_THROW(radius_grid.for_each_in_radius(q, 1.0, none), std::invalid_argument) << bad;
    }
  }
  for (const double bad : {0.0, -1.0, std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    EXPECT_THROW(radius_grid.for_each_in_radius({5.0, 5.0}, bad, none), std::invalid_argument)
        << bad;
    EXPECT_THROW(grid.for_each_in_radius({5.0, 5.0}, bad, none), std::invalid_argument) << bad;
  }
}

// Query points far outside the grid, beyond 2^63 cells: the cell
// coordinate is clamped before the integer cast, so both query kinds stay
// defined and exact.
TEST(GridKnnContract, HugeQueryPointsAreExact) {
  const auto pts = random_points(120, 13);
  const GridKnn radius_grid = GridKnn::for_radius(pts, 1.0);
  GridKnn::QueryScratch scratch;
  std::vector<std::uint32_t> out;
  for (const double big : {1e20, -1e20, 1e300, -1e300}) {
    for (const Vec2 q : {Vec2{big, 5.0}, Vec2{5.0, big}, Vec2{big, big}}) {
      for (const std::size_t k : {std::size_t{1}, std::size_t{5}, std::size_t{60}}) {
        const GridKnn grid(pts, k);
        grid.nearest_into(q, k, GridKnn::npos, scratch, out);
        EXPECT_EQ(out, brute_nearest(pts, q, k)) << big << " k=" << k;
      }
      EXPECT_TRUE(grid_radius(radius_grid, q, 1.0).empty()) << big;
      EXPECT_EQ(grid_radius(radius_grid, q, 1e301), brute_radius(pts, q, 1e301)) << big;
    }
  }
}

class KdTreeParamTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KdTreeParamTest, NearestMatchesBruteForce) {
  const auto pts = random_points(350, GetParam() * 31 + 5);
  const KdTree tree(pts);
  Rng rng(GetParam() + 12345);
  for (int t = 0; t < 30; ++t) {
    const Vec2 q{rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)};
    const std::size_t k = 1 + rng.uniform_index(20);
    const auto got = kd_nearest(tree, q, k);
    // Oracle: sort all points by (distance, index).
    std::vector<std::uint32_t> want(pts.size());
    for (std::uint32_t i = 0; i < pts.size(); ++i) want[i] = i;
    std::sort(want.begin(), want.end(), [&](std::uint32_t a, std::uint32_t b) {
      const double da = dist2(pts[a], q), db = dist2(pts[b], q);
      return da != db ? da < db : a < b;
    });
    want.resize(std::min(k, want.size()));
    EXPECT_EQ(got, want);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KdTreeParamTest, ::testing::Range<std::uint64_t>(1, 9));

TEST(KdTree, ExcludeSelf) {
  const auto pts = random_points(100, 3);
  const KdTree tree(pts);
  const auto got = kd_nearest(tree, pts[17], 5, 17);
  for (const auto idx : got) EXPECT_NE(idx, 17u);
  // Without exclusion, the point itself comes first (distance 0).
  EXPECT_EQ(kd_nearest(tree, pts[17], 1).front(), 17u);
}

TEST(KdTree, KLargerThanN) {
  const auto pts = random_points(10, 8);
  const KdTree tree(pts);
  EXPECT_EQ(kd_nearest(tree, {5.0, 5.0}, 50).size(), 10u);
  EXPECT_EQ(kd_nearest(tree, {5.0, 5.0}, 50, 3).size(), 9u);
}

TEST(KdTree, DuplicatePointsTieBreakByIndex) {
  std::vector<Vec2> pts{{1.0, 1.0}, {1.0, 1.0}, {1.0, 1.0}, {2.0, 2.0}};
  const KdTree tree(pts);
  const auto got = kd_nearest(tree, {1.0, 1.0}, 3);
  EXPECT_EQ(got, (std::vector<std::uint32_t>{0, 1, 2}));
}

TEST(KdTree, EmptyAndZeroK) {
  std::vector<Vec2> none;
  const KdTree tree(none);
  EXPECT_TRUE(kd_nearest(tree, {0.0, 0.0}, 3).empty());
  const auto pts = random_points(5, 1);
  const KdTree t2(pts);
  EXPECT_TRUE(kd_nearest(t2, {0.0, 0.0}, 0).empty());
}

// --- scratch reuse --------------------------------------------------------

// `nearest_into` with one scratch reused across adversarial queries must
// equal a fresh-scratch run: duplicates, k >= n, exclusion, mixed k sizes
// (the sorted-array and heap candidate strategies share one scratch).
TEST(KdTree, NearestIntoMatchesNearestOnAdversarialInputs) {
  std::vector<Vec2> pts{{1.0, 1.0}, {1.0, 1.0}, {1.0, 1.0}, {2.0, 2.0}, {1.0, 1.0}};
  const KdTree tree(pts);
  KdTree::QueryScratch scratch;
  std::vector<std::uint32_t> out;
  tree.nearest_into({1.0, 1.0}, 3, KdTree::npos, scratch, out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{0, 1, 2}));
  tree.nearest_into({1.0, 1.0}, 3, 1, scratch, out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{0, 2, 4}));
  // k >= n, with and without exclusion.
  EXPECT_EQ(tree.nearest_into({0.0, 0.0}, 50, KdTree::npos, scratch, out), 5u);
  EXPECT_EQ(out, kd_nearest(tree, {0.0, 0.0}, 50));
  EXPECT_EQ(tree.nearest_into({0.0, 0.0}, 50, 3, scratch, out), 4u);
  EXPECT_EQ(out, kd_nearest(tree, {0.0, 0.0}, 50, 3));
  // Alternating k across the sorted-array / heap strategy threshold with
  // the same scratch.
  const auto big = random_points(400, 99);
  const KdTree btree(big);
  Rng rng(424);
  for (int t = 0; t < 20; ++t) {
    const Vec2 q{rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)};
    for (const std::size_t k : {3ul, 60ul, 17ul, 200ul}) {
      btree.nearest_into(q, k, KdTree::npos, scratch, out);
      EXPECT_EQ(out, kd_nearest(btree, q, k));
    }
  }
}

// --- GridKnn: the batched k-NN engine ------------------------------------

class GridKnnParamTest : public ::testing::TestWithParam<std::uint64_t> {};

// GridKnn must agree with a brute-force (distance, index) sort bit for bit
// — same neighbors, same order, same tie-breaks — on both sides of the
// 48 threshold (stack vs scratch candidate storage, and the k/4 vs k/16
// cell size).
TEST_P(GridKnnParamTest, MatchesBruteForceOracle) {
  const auto pts = random_points(350, GetParam() * 17 + 3);
  for (const std::size_t k : {1ul, 8ul, 48ul, 49ul, 120ul, 400ul}) {
    const GridKnn grid(pts, k);
    GridKnn::QueryScratch scratch;
    std::vector<std::uint32_t> got;
    Rng rng(GetParam() + 5000);
    for (int t = 0; t < 15; ++t) {
      const Vec2 q{rng.uniform(-1.0, 11.0), rng.uniform(-1.0, 11.0)};
      grid.nearest_into(q, k, GridKnn::npos, scratch, got);
      EXPECT_EQ(got, brute_nearest(pts, q, k)) << "k=" << k;
    }
    // Self-queries with exclusion — the batched builder's workload.
    for (std::uint32_t i = 0; i < 25; ++i) {
      grid.nearest_into(pts[i], k, i, scratch, got);
      EXPECT_EQ(got, brute_nearest(pts, pts[i], k, i)) << "k=" << k << " i=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GridKnnParamTest, ::testing::Range<std::uint64_t>(1, 7));

TEST(GridKnn, DuplicatePointsAndDegenerateInputs) {
  std::vector<Vec2> same(6, Vec2{3.0, 3.0});
  const GridKnn grid(same, 4);
  GridKnn::QueryScratch scratch;
  std::vector<std::uint32_t> out;
  grid.nearest_into({3.0, 3.0}, 4, 2, scratch, out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{0, 1, 3, 4}));
  std::vector<Vec2> none;
  const GridKnn empty(none, 4);
  EXPECT_EQ(empty.nearest_into({0.0, 0.0}, 4, GridKnn::npos, scratch, out), 0u);
  const GridKnn one(std::vector<Vec2>{{1.0, 2.0}}, 1);
  EXPECT_EQ(one.nearest_into({0.0, 0.0}, 0, GridKnn::npos, scratch, out), 0u);
  EXPECT_EQ(one.nearest_into({0.0, 0.0}, 3, GridKnn::npos, scratch, out), 1u);
  EXPECT_EQ(out, std::vector<std::uint32_t>{0});
}

// --- GridKnn subset views: per-level indexes over one shared store -------

class GridKnnSubsetParamTest : public ::testing::TestWithParam<std::uint64_t> {};

// Every subset view must agree bit-for-bit with a *fresh* owning GridKnn
// built over the compacted subset coordinates (local ids mapped back
// through the member list) — same neighbors, same order, same
// (distance, index) tie-breaks. Member lists are ascending, so local-id
// tie-break order equals global-id tie-break order. Mirrors
// GridKnnParamTest.MatchesBruteForceOracle for the per-level HNG engine.
TEST_P(GridKnnSubsetParamTest, LevelsMatchFreshGridKnnOracle) {
  const auto pts = random_points(420, GetParam() * 23 + 1);
  // Nested thinned subsets (keep every 2nd/4th/8th point), one view each
  // over the same store, tuned for very different k — the HNG workload
  // shape.
  std::vector<std::vector<std::uint32_t>> member_lists(3);
  std::vector<GridKnn> levels;
  const std::size_t ks[] = {4, 48, 120};
  for (std::size_t l = 0; l < 3; ++l) {
    for (std::uint32_t i = 0; i < pts.size(); i += (1u << (l + 1))) member_lists[l].push_back(i);
    levels.emplace_back(pts, member_lists[l], ks[l]);
  }

  GridKnn::QueryScratch scratch;
  GridKnn::QueryScratch oracle_scratch;
  std::vector<std::uint32_t> got;
  std::vector<std::uint32_t> oracle_local;
  for (std::size_t l = 0; l < 3; ++l) {
    const auto& members = member_lists[l];
    std::vector<Vec2> subset;
    subset.reserve(members.size());
    for (const std::uint32_t m : members) subset.push_back(pts[m]);
    const GridKnn fresh(subset, ks[l]);
    EXPECT_EQ(levels[l].size(), members.size());

    Rng rng(GetParam() + 31 * l);
    for (int t = 0; t < 20; ++t) {
      const Vec2 q{rng.uniform(-1.0, 11.0), rng.uniform(-1.0, 11.0)};
      // Query both off-tune (k != expected_k) and on-tune to cross the
      // stack/scratch storage threshold on shared scratches.
      for (const std::size_t k : {std::size_t{1}, ks[l], std::size_t{200}}) {
        levels[l].nearest_into(q, k, GridKnn::npos, scratch, got);
        fresh.nearest_into(q, k, GridKnn::npos, oracle_scratch, oracle_local);
        std::vector<std::uint32_t> want(oracle_local.size());
        for (std::size_t i = 0; i < oracle_local.size(); ++i) want[i] = members[oracle_local[i]];
        EXPECT_EQ(got, want) << "level " << l << " k " << k;
      }
    }
    // Member self-queries with exclusion — the HNG linking workload.
    for (std::size_t i = 0; i < members.size(); i += 7) {
      const std::uint32_t m = members[i];
      levels[l].nearest_into(pts[m], ks[l], m, scratch, got);
      fresh.nearest_into(pts[m], ks[l], static_cast<std::uint32_t>(i), oracle_scratch,
                         oracle_local);
      std::vector<std::uint32_t> want(oracle_local.size());
      for (std::size_t j = 0; j < oracle_local.size(); ++j) want[j] = members[oracle_local[j]];
      EXPECT_EQ(got, want) << "level " << l << " member " << m;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GridKnnSubsetParamTest, ::testing::Range<std::uint64_t>(1, 7));

TEST(GridKnnSubset, DuplicatePointsTieBreakByGlobalIndex) {
  // Six coincident points; the view indexes the odd-id half. Ties must
  // resolve by ascending *global* id within the membership.
  std::vector<Vec2> pts(6, Vec2{3.0, 3.0});
  const GridKnn level(pts, std::vector<std::uint32_t>{1, 3, 5}, 2);
  GridKnn::QueryScratch scratch;
  std::vector<std::uint32_t> out;
  level.nearest_into({3.0, 3.0}, 2, GridKnn::npos, scratch, out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{1, 3}));
  level.nearest_into({3.0, 3.0}, 2, 3, scratch, out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{1, 5}));
}

TEST(GridKnnSubset, KAtLeastLevelSizeAndEmptyLevels) {
  const auto pts = random_points(60, 12);
  const std::vector<std::uint32_t> members{2, 11, 29, 47};
  const GridKnn level(pts, members, 9);  // expected_k > |members|
  const GridKnn empty(pts, std::span<const std::uint32_t>{}, 3);  // queries must return 0
  GridKnn::QueryScratch scratch;
  std::vector<std::uint32_t> out;
  // k >= n collects the whole membership, sorted by (distance, id).
  EXPECT_EQ(level.nearest_into({5.0, 5.0}, 9, GridKnn::npos, scratch, out), 4u);
  std::vector<std::uint32_t> sorted = out;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, members);
  EXPECT_EQ(level.nearest_into({5.0, 5.0}, 9, 29, scratch, out), 3u);
  EXPECT_EQ(empty.nearest_into({5.0, 5.0}, 3, GridKnn::npos, scratch, out), 0u);
  EXPECT_EQ(empty.size(), 0u);
}

// --- mutable membership: the churn substrate of sens/dynamic -------------

/// The mutation oracle: a mutated grid must answer every query identically
/// to a *fresh* subset view over its current live member set — spill
/// entries, tombstones, and compactions must all be invisible.
void expect_matches_fresh(const GridKnn& grid, std::span<const Vec2> store,
                          std::size_t expected_k, std::uint64_t seed) {
  const std::vector<std::uint32_t> members = grid.live_members();
  const GridKnn fresh(store, members, expected_k);
  ASSERT_EQ(grid.size(), members.size());
  GridKnn::QueryScratch scratch, fresh_scratch;
  std::vector<std::uint32_t> got, want;
  Rng rng(seed);
  for (int t = 0; t < 10; ++t) {
    const Vec2 q{rng.uniform(-1.0, 11.0), rng.uniform(-1.0, 11.0)};
    for (const std::size_t k : {std::size_t{1}, std::size_t{4}, std::size_t{70}}) {
      grid.nearest_into(q, k, GridKnn::npos, scratch, got);
      fresh.nearest_into(q, k, GridKnn::npos, fresh_scratch, want);
      EXPECT_EQ(got, want) << "k=" << k << " t=" << t;
    }
  }
  for (const std::uint32_t m : members) {
    grid.nearest_into(store[m], 4, m, scratch, got);
    fresh.nearest_into(store[m], 4, m, fresh_scratch, want);
    EXPECT_EQ(got, want) << "self-query of member " << m;
  }
}

TEST(GridKnnMutation, RandomChurnMatchesFreshGrid) {
  const auto pts = random_points(260, 77);
  std::vector<std::uint32_t> members;
  for (std::uint32_t i = 0; i < pts.size(); i += 2) members.push_back(i);
  GridKnn grid(pts, members, 4);
  std::vector<std::uint8_t> in(pts.size(), 0);
  for (const std::uint32_t m : members) in[m] = 1;
  Rng rng(0x6A1D);
  for (int op = 0; op < 300; ++op) {
    const auto id = static_cast<std::uint32_t>(rng.uniform_index(pts.size()));
    if (in[id]) {
      grid.erase_member(id);
    } else {
      grid.insert_member(id);
    }
    in[id] ^= 1;
    if (op % 25 == 24) expect_matches_fresh(grid, pts, 4, 0x6A1D + static_cast<unsigned>(op));
  }
  expect_matches_fresh(grid, pts, 4, 0x6A1D);
}

// A level drained to empty must answer nothing (not stale members), then
// accept a full repopulation — the dynamic layer's top-level collapse and
// regrowth path.
TEST(GridKnnMutation, EmptiedThenRepopulated) {
  const auto pts = random_points(50, 9);
  std::vector<std::uint32_t> members{3, 11, 24, 40};
  GridKnn grid(pts, members, 3);
  for (const std::uint32_t m : members) grid.erase_member(m);
  EXPECT_EQ(grid.size(), 0u);
  GridKnn::QueryScratch scratch;
  std::vector<std::uint32_t> out;
  EXPECT_EQ(grid.nearest_into({5.0, 5.0}, 3, GridKnn::npos, scratch, out), 0u);
  for (std::uint32_t i = 0; i < pts.size(); i += 3) grid.insert_member(i);
  expect_matches_fresh(grid, pts, 3, 0xE2E2);
}

// k >= |membership| must re-saturate exactly as membership shrinks and
// regrows through the spill/tombstone path.
TEST(GridKnnMutation, KAtLeastMembershipResaturates) {
  const auto pts = random_points(30, 5);
  std::vector<std::uint32_t> members{0, 7, 14, 21, 28};
  GridKnn grid(pts, members, 9);
  GridKnn::QueryScratch scratch;
  std::vector<std::uint32_t> out;
  grid.erase_member(14);
  grid.erase_member(0);
  grid.insert_member(1);
  EXPECT_EQ(grid.nearest_into({5.0, 5.0}, 9, GridKnn::npos, scratch, out), 4u);
  std::vector<std::uint32_t> sorted = out;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<std::uint32_t>{1, 7, 21, 28}));
  expect_matches_fresh(grid, pts, 9, 0x5A7);
}

// Forcing compaction must be observable only through pending(): queries
// before and after are bit-identical to the fresh-grid oracle.
TEST(GridKnnMutation, ForcedCompactionIsInvisible) {
  const auto pts = random_points(120, 31);
  std::vector<std::uint32_t> members;
  for (std::uint32_t i = 0; i < 60; ++i) members.push_back(i);
  GridKnn grid(pts, members, 4);
  for (std::uint32_t i = 0; i < 6; ++i) grid.erase_member(i * 7);
  for (std::uint32_t i = 60; i < 66; ++i) grid.insert_member(i);
  ASSERT_GT(grid.pending(), 0u);
  expect_matches_fresh(grid, pts, 4, 0xC0A);
  grid.compact();
  EXPECT_EQ(grid.pending(), 0u);
  expect_matches_fresh(grid, pts, 4, 0xC0B);
}

TEST(GridKnnMutation, EraseNonMemberThrowsInsertOutOfRangeThrows) {
  const auto pts = random_points(20, 3);
  GridKnn grid(pts, std::vector<std::uint32_t>{1, 2, 3}, 2);
  EXPECT_THROW(grid.erase_member(5), std::invalid_argument);
  grid.erase_member(2);
  EXPECT_THROW(grid.erase_member(2), std::invalid_argument);
  EXPECT_THROW(grid.insert_member(20), std::out_of_range);
}

// Subset views over a growing store, the DynamicHng pattern: grow the
// vector past its capacity (rebinding every view), append a view, drain and
// repopulate it, recycle a vacated slot with new coordinates — after all of
// it, every view must match a fresh view built from the current state.
TEST(GridKnnSubsetMutation, GrowDrainRepopulateMatchesFreshViews) {
  std::vector<Vec2> store = random_points(40, 21);
  std::vector<std::uint32_t> odd;
  for (std::uint32_t i = 1; i < store.size(); i += 2) odd.push_back(i);
  std::vector<GridKnn> levels;
  levels.emplace_back(store, odd, 3);

  // Store growth (the first push_back reallocates) + admissions of
  // brand-new ids.
  ASSERT_EQ(store.capacity(), store.size());
  Rng rng(0x9E4);
  for (int i = 0; i < 20; ++i) {
    const auto id = static_cast<std::uint32_t>(store.size());
    store.push_back({rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)});
    for (GridKnn& level : levels) level.rebind(store);
    if (i % 2 == 0) levels[0].insert_member(id);
  }
  levels.emplace_back(store, std::span<const std::uint32_t>{}, 2);
  for (const std::uint32_t id : {41u, 45u, 49u}) levels[1].insert_member(id);

  // Drain view 1 to empty, then repopulate it differently.
  for (const std::uint32_t id : {41u, 45u, 49u}) levels[1].erase_member(id);
  GridKnn::QueryScratch scratch;
  std::vector<std::uint32_t> out;
  EXPECT_EQ(levels[1].nearest_into({5.0, 5.0}, 2, GridKnn::npos, scratch, out), 0u);
  for (const std::uint32_t id : {2u, 40u, 58u}) levels[1].insert_member(id);

  // Recycle a vacated slot at new coordinates.
  levels[0].erase_member(1);
  store[1] = {9.5, 0.25};
  levels[0].insert_member(1);

  EXPECT_EQ(store.size(), 60u);
  const std::size_t ks[] = {3, 2};
  for (std::size_t l = 0; l < 2; ++l) {
    expect_matches_fresh(levels[l], store, ks[l], 0x9E5 + l);
  }
  EXPECT_THROW(levels[0].insert_member(60), std::out_of_range);
  EXPECT_THROW(levels[0].erase_member(60), std::out_of_range);
}

// Collinear points: a degenerate (zero-height) bounding box must not break
// the ring bounds.
TEST(GridKnn, CollinearPoints) {
  std::vector<Vec2> pts;
  for (int i = 0; i < 40; ++i) pts.push_back({0.25 * i, 2.0});
  const GridKnn grid(pts, 5);
  GridKnn::QueryScratch scratch;
  std::vector<std::uint32_t> out;
  for (std::uint32_t i = 0; i < pts.size(); ++i) {
    grid.nearest_into(pts[i], 5, i, scratch, out);
    EXPECT_EQ(out, brute_nearest(pts, pts[i], 5, i));
  }
}

}  // namespace
}  // namespace sens
