// Tests for sens/geograph: the Poisson point process and the UDG / k-NN
// graph builders.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "sens/geograph/knn.hpp"
#include "sens/geograph/point_set.hpp"
#include "sens/geograph/udg.hpp"
#include "sens/support/parallel.hpp"
#include "sens/support/stats.hpp"

namespace sens {
namespace {

/// A point's coordinates as a pair, for exact comparisons.
std::pair<double, double> xy(Vec2 v) { return {v.x, v.y}; }

/// Expand a flat adjacency into nested per-vertex vectors — an
/// independent re-slicing of the offsets/neighbors arrays.
std::vector<std::vector<std::uint32_t>> to_nested(const FlatAdjacency& flat) {
  std::vector<std::vector<std::uint32_t>> out(flat.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i].assign(flat.neighbors.begin() + flat.offsets[i],
                  flat.neighbors.begin() + flat.offsets[i + 1]);
  }
  return out;
}

/// The k points nearest to points[i] other than i itself, by a brute-force
/// (squared distance, index) sort.
std::vector<std::uint32_t> brute_selection(const std::vector<Vec2>& points, std::size_t i,
                                           std::size_t k) {
  std::vector<std::pair<double, std::uint32_t>> all;
  for (std::uint32_t j = 0; j < points.size(); ++j) {
    if (j != i) all.push_back({dist2(points[j], points[i]), j});
  }
  std::sort(all.begin(), all.end());
  std::vector<std::uint32_t> out;
  for (std::size_t r = 0; r < std::min(k, all.size()); ++r) out.push_back(all[r].second);
  return out;
}

TEST(PointProcess, DeterministicForSeed) {
  const Box w{{0.0, 0.0}, {10.0, 10.0}};
  const PointSet a = poisson_point_set(w, 2.0, 42);
  const PointSet b = poisson_point_set(w, 2.0, 42);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(xy(a.points[i]), xy(b.points[i]));
  const PointSet c = poisson_point_set(w, 2.0, 43);
  EXPECT_NE(a.size(), 0u);
  EXPECT_TRUE(a.size() != c.size() || xy(a.points[0]) != xy(c.points[0]));
}

TEST(PointProcess, RestrictionConsistency) {
  // The points of a sub-window equal the restriction of the big window's
  // points (cell-consistent sampling).
  const Box big{{0.0, 0.0}, {20.0, 20.0}};
  const Box small{{5.0, 5.0}, {12.0, 12.0}};
  const PointSet pb = poisson_point_set(big, 1.5, 7);
  const PointSet ps = poisson_point_set(small, 1.5, 7);
  std::vector<Vec2> restricted;
  for (const Vec2 p : pb.points)
    if (small.contains(p)) restricted.push_back(p);
  auto key = [](Vec2 a, Vec2 b) { return a.x != b.x ? a.x < b.x : a.y < b.y; };
  std::vector<Vec2> got = ps.points;
  std::sort(got.begin(), got.end(), key);
  std::sort(restricted.begin(), restricted.end(), key);
  ASSERT_EQ(got.size(), restricted.size());
  for (std::size_t i = 0; i < got.size(); ++i) EXPECT_EQ(xy(got[i]), xy(restricted[i]));
}

TEST(PointProcess, MeanCountMatchesIntensity) {
  RunningStats counts;
  const Box w{{0.0, 0.0}, {8.0, 8.0}};
  for (std::uint64_t s = 0; s < 60; ++s)
    counts.add(static_cast<double>(poisson_point_set(w, 3.0, 1000 + s).size()));
  const double expected = 3.0 * w.area();
  EXPECT_NEAR(counts.mean(), expected, 5.0 * std::sqrt(expected / 60.0) + 1.0);
}

TEST(PointProcess, AllPointsInsideWindow) {
  const Box w{{-3.5, 2.25}, {4.5, 9.75}};
  const PointSet ps = poisson_point_set(w, 2.0, 11);
  for (const Vec2 p : ps.points) EXPECT_TRUE(w.contains(p));
}

TEST(PointProcess, ZeroIntensity) {
  EXPECT_EQ(poisson_point_set(Box{{0, 0}, {5, 5}}, 0.0, 1).size(), 0u);
  EXPECT_THROW((void)poisson_point_set(Box{{0, 0}, {5, 5}}, -1.0, 1), std::invalid_argument);
}

TEST(PointProcess, BoxSampler) {
  const Box b{{2.0, 3.0}, {4.0, 6.0}};
  RunningStats counts;
  for (std::uint64_t t = 0; t < 200; ++t) {
    const auto pts = poisson_points_in_box(b, 5.0, 3, t);
    counts.add(static_cast<double>(pts.size()));
    for (const Vec2 p : pts) {
      EXPECT_TRUE(p.x >= b.lo.x && p.x <= b.hi.x && p.y >= b.lo.y && p.y <= b.hi.y);
    }
  }
  EXPECT_NEAR(counts.mean(), 5.0 * b.area(), 5.0 * std::sqrt(30.0 / 200.0) + 1.0);
}

TEST(Udg, EdgesMatchBruteForce) {
  const Box w{{0.0, 0.0}, {6.0, 6.0}};
  const PointSet ps = poisson_point_set(w, 1.5, 21);
  const GeoGraph g = build_udg(ps.points, w, 1.0);
  ASSERT_EQ(g.size(), ps.size());
  for (std::uint32_t i = 0; i < ps.size(); ++i) {
    for (std::uint32_t j = i + 1; j < ps.size(); ++j) {
      EXPECT_EQ(g.graph.has_edge(i, j), dist(ps.points[i], ps.points[j]) <= 1.0);
    }
  }
}

TEST(Udg, CustomRadius) {
  std::vector<Vec2> pts{{0.0, 0.0}, {1.5, 0.0}, {3.5, 0.0}};
  const GeoGraph g = build_udg(pts, Box{{0, 0}, {4, 1}}, 2.0);
  EXPECT_TRUE(g.graph.has_edge(0, 1));
  EXPECT_TRUE(g.graph.has_edge(1, 2));
  EXPECT_FALSE(g.graph.has_edge(0, 2));
  EXPECT_THROW((void)build_udg(pts, Box{{0, 0}, {4, 1}}, 0.0), std::invalid_argument);
  // NaN fails every comparison, so only a negated guard rejects it before
  // the grid's cell-count cast (UB for NaN); an infinite radius is refused
  // alike.
  for (const double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    EXPECT_THROW((void)build_udg(pts, Box{{0, 0}, {4, 1}}, bad), std::invalid_argument) << bad;
  }
  // Non-finite points are refused by the grid the builder runs on.
  for (const double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    for (const Vec2 p : {Vec2{bad, 0.5}, Vec2{0.5, bad}}) {
      std::vector<Vec2> with_bad = pts;
      with_bad[1] = p;
      EXPECT_THROW((void)build_udg(with_bad, Box{{0, 0}, {4, 1}}, 2.0), std::invalid_argument)
          << bad;
    }
  }
}

// `bounds` does not limit the grid: points outside it still get every edge.
TEST(Udg, PointsOutsideBoundsGetEveryEdge) {
  const std::vector<Vec2> pts{{-5.0, -5.0}, {-5.5, -5.2}, {15.0, 15.0}, {14.2, 15.3}, {5.0, 5.0}};
  const GeoGraph g = build_udg(pts, Box{{0, 0}, {10, 10}}, 1.0);
  for (std::uint32_t i = 0; i < pts.size(); ++i) {
    for (std::uint32_t j = 0; j < pts.size(); ++j) {
      if (i == j) continue;
      EXPECT_EQ(g.graph.has_edge(i, j), dist(pts[i], pts[j]) <= 1.0) << i << "-" << j;
    }
  }
  EXPECT_TRUE(g.graph.has_edge(0, 1));
  EXPECT_TRUE(g.graph.has_edge(2, 3));
}

TEST(Udg, MeanDegreeNearTheory) {
  // E[degree] = lambda * pi * r^2 for interior points.
  const Box w{{0.0, 0.0}, {30.0, 30.0}};
  const double lambda = 2.0;
  const PointSet ps = poisson_point_set(w, lambda, 5);
  const GeoGraph g = build_udg(ps.points, w, 1.0);
  EXPECT_NEAR(g.graph.mean_degree(), lambda * 3.14159265, 0.6);  // boundary bias lowers it
}

TEST(Knn, SelectionsHaveSizeK) {
  const Box w{{0.0, 0.0}, {10.0, 10.0}};
  const PointSet ps = poisson_point_set(w, 2.0, 31);
  const FlatAdjacency sel = knn_selections_flat(ps.points, 5);
  ASSERT_EQ(sel.size(), ps.size());
  for (std::size_t i = 0; i < sel.size(); ++i) {
    EXPECT_EQ(sel.degree(i), std::min<std::size_t>(5, ps.size() - 1));
    for (const auto j : sel[i]) EXPECT_NE(j, i);
  }
}

TEST(Knn, GraphIsUndirectedUnion) {
  const Box w{{0.0, 0.0}, {8.0, 8.0}};
  const PointSet ps = poisson_point_set(w, 2.0, 33);
  const std::size_t k = 4;
  const GeoGraph g = build_knn_graph(ps.points, k);
  const auto sel = to_nested(knn_selections_flat(ps.points, k));
  for (std::uint32_t u = 0; u < ps.size(); ++u) {
    for (std::uint32_t v = u + 1; v < ps.size(); ++v) {
      const bool u_sel_v = std::find(sel[u].begin(), sel[u].end(), v) != sel[u].end();
      const bool v_sel_u = std::find(sel[v].begin(), sel[v].end(), u) != sel[v].end();
      EXPECT_EQ(g.graph.has_edge(u, v), u_sel_v || v_sel_u);
    }
  }
  // Undirected union => min degree >= k (every vertex selects k others).
  for (std::uint32_t u = 0; u < ps.size(); ++u) EXPECT_GE(g.graph.degree(u), k);
}

TEST(Knn, GraphWithKAtLeastNIsComplete) {
  // Adversarial k >= n: every vertex selects all others, so the selection
  // union (CsrGraph::from_selections) must be the complete graph.
  const Box w{{0.0, 0.0}, {4.0, 4.0}};
  const PointSet ps = poisson_point_set(w, 1.5, 35);
  ASSERT_GE(ps.size(), 3u);
  const GeoGraph g = build_knn_graph(ps.points, ps.size() + 5);
  EXPECT_EQ(g.graph.num_edges(), ps.size() * (ps.size() - 1) / 2);
  for (std::uint32_t u = 0; u < ps.size(); ++u) EXPECT_EQ(g.graph.degree(u), ps.size() - 1);
}

// Restore the default worker count even if an assertion fails mid-test.
class ThreadCountGuard {
 public:
  ~ThreadCountGuard() { set_thread_count(0); }
};

TEST(Knn, FlatSelectionsRoundTripAgainstNested) {
  const Box w{{0.0, 0.0}, {10.0, 10.0}};
  const PointSet ps = poisson_point_set(w, 2.0, 4711);  // pinned seed
  const std::size_t k = 6;
  const FlatAdjacency flat = knn_selections_flat(ps.points, k);
  ASSERT_EQ(flat.size(), ps.size());
  ASSERT_EQ(flat.offsets.front(), 0u);
  ASSERT_EQ(flat.offsets.back(), flat.neighbors.size());
  // Per-vertex slices equal the nested shape and the brute-force oracle.
  const auto nested = to_nested(flat);
  ASSERT_EQ(nested.size(), flat.size());
  for (std::size_t i = 0; i < flat.size(); ++i) {
    EXPECT_EQ(flat.degree(i), std::min(k, ps.size() - 1));
    const auto slice = flat[i];
    EXPECT_TRUE(std::equal(slice.begin(), slice.end(), nested[i].begin(), nested[i].end()));
    const auto oracle = brute_selection(ps.points, i, k);
    EXPECT_TRUE(std::equal(slice.begin(), slice.end(), oracle.begin(), oracle.end()));
  }
}

TEST(Knn, FlatSelectionsKLargerThanN) {
  const auto flat = knn_selections_flat(std::vector<Vec2>{{0.0, 0.0}, {1.0, 0.0}, {0.0, 1.0}}, 10);
  ASSERT_EQ(flat.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(flat.degree(i), 2u);
  const FlatAdjacency none = knn_selections_flat({}, 5);
  EXPECT_EQ(none.size(), 0u);
  const FlatAdjacency single = knn_selections_flat(std::vector<Vec2>{{1.0, 1.0}}, 5);
  ASSERT_EQ(single.size(), 1u);
  EXPECT_EQ(single.degree(0), 0u);
}

// DESIGN.md §2.3: chunk-ordered edge collection makes graph builds
// bit-identical at any thread count.
TEST(Udg, EdgeListBitIdenticalAcrossThreadCounts) {
  const ThreadCountGuard guard;
  const Box w{{0.0, 0.0}, {14.0, 14.0}};
  const PointSet ps = poisson_point_set(w, 3.0, 8472);
  set_thread_count(1);
  const auto base = build_udg(ps.points, w, 1.0).graph.edge_list();
  EXPECT_FALSE(base.empty());
  for (const unsigned threads : {2u, 8u}) {
    set_thread_count(threads);
    EXPECT_EQ(build_udg(ps.points, w, 1.0).graph.edge_list(), base) << threads << " threads";
  }
}

TEST(Knn, SelectionsBitIdenticalAcrossThreadCounts) {
  const ThreadCountGuard guard;
  const Box w{{0.0, 0.0}, {12.0, 12.0}};
  const PointSet ps = poisson_point_set(w, 2.0, 1234);
  set_thread_count(1);
  const FlatAdjacency base = knn_selections_flat(ps.points, 7);
  const auto base_edges = build_knn_graph(ps.points, 7).graph.edge_list();
  for (const unsigned threads : {2u, 8u}) {
    set_thread_count(threads);
    const FlatAdjacency flat = knn_selections_flat(ps.points, 7);
    EXPECT_EQ(flat.offsets, base.offsets) << threads << " threads";
    EXPECT_EQ(flat.neighbors, base.neighbors) << threads << " threads";
    EXPECT_EQ(build_knn_graph(ps.points, 7).graph.edge_list(), base_edges)
        << threads << " threads";
  }
}

TEST(GeoGraphMetrics, PathLengthAndPower) {
  GeoGraph g;
  g.points = {{0.0, 0.0}, {3.0, 4.0}, {3.0, 6.0}};
  g.graph = CsrGraph::from_edges(3, {{0, 1}, {1, 2}});
  const std::vector<std::uint32_t> path{0, 1, 2};
  EXPECT_DOUBLE_EQ(g.path_length(path), 7.0);
  EXPECT_DOUBLE_EQ(g.path_power(path, 2.0), 25.0 + 4.0);
  EXPECT_DOUBLE_EQ(g.path_power(path, 3.0), 125.0 + 8.0);
  EXPECT_DOUBLE_EQ(g.edge_length(0, 1), 5.0);
}

}  // namespace
}  // namespace sens
