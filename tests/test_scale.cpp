// Scale-tier contracts (DESIGN.md §2.8): the two-pass Poisson generator is
// bit-identical to a serial per-cell reference and really is grid-major, and
// keeps every point inside its half-open window at any coordinate magnitude;
// spatial relabeling is an exact isomorphism (building on permuted points
// equals permuting the build); and the 32-bit index-width guards throw
// instead of truncating. This is the `scale` ctest label — the guarantees
// bench_e18 relies on at n = 10^6.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <set>
#include <stdexcept>
#include <vector>

#include "sens/geograph/point_set.hpp"
#include "sens/geograph/udg.hpp"
#include "sens/geometry/box.hpp"
#include "sens/graph/csr.hpp"
#include "sens/graph/flat_adjacency.hpp"
#include "sens/rng/rng.hpp"
#include "sens/spatial/reorder.hpp"
#include "sens/support/checked.hpp"
#include "sens/support/parallel.hpp"

namespace sens {
namespace {

constexpr std::uint64_t kSeed = 0x5CA1E;

void expect_same_points(const std::vector<Vec2>& a, const std::vector<Vec2>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Bit-for-bit, not approximately: both sides must draw the exact same
    // doubles from the exact same per-cell streams.
    EXPECT_EQ(a[i].x, b[i].x) << "point " << i;
    EXPECT_EQ(a[i].y, b[i].y) << "point " << i;
  }
}

// --- streaming generation ---------------------------------------------------

/// Serial reference for `poisson_point_set`: visit the window's unit cells
/// row-major, draw each cell's points from its own stream (seed, ix, iy)
/// and append those `window.contains` accepts. It shares no code with the
/// library's two-pass generator beyond the Rng and the pinned per-cell
/// stream keys.
PointSet serial_poisson(Box window, double lambda, std::uint64_t seed) {
  PointSet ps;
  ps.window = window;
  ps.intensity = lambda;
  if (lambda == 0.0 || window.area() <= 0.0) return ps;
  const auto ix1 = static_cast<long>(std::ceil(window.hi.x));
  const auto iy1 = static_cast<long>(std::ceil(window.hi.y));
  for (auto iy = static_cast<long>(std::floor(window.lo.y)); iy < iy1; ++iy) {
    for (auto ix = static_cast<long>(std::floor(window.lo.x)); ix < ix1; ++ix) {
      Rng rng = Rng::stream(seed, static_cast<std::uint64_t>(ix) * 0x9E3779B9ULL + 0x12345,
                            static_cast<std::uint64_t>(iy) * 0x85EBCA6BULL + 0x6789A);
      const std::uint64_t n = rng.poisson(lambda);
      for (std::uint64_t i = 0; i < n; ++i) {
        const Vec2 p{static_cast<double>(ix) + rng.uniform(),
                     static_cast<double>(iy) + rng.uniform()};
        if (window.contains(p)) ps.points.push_back(p);
      }
    }
  }
  return ps;
}

TEST(OrderedPoisson, MatchesSerialPathBitForBit) {
  const Box windows[] = {
      {{0.0, 0.0}, {7.0, 5.0}},          // integral bounds
      {{-3.5, -2.25}, {4.75, 1.5}},      // negative, fractional bounds
      {{10.125, 20.0}, {11.0, 20.875}},  // sub-cell window
  };
  for (const Box& window : windows) {
    const PointSet serial = serial_poisson(window, 4.0, kSeed);
    const PointSet ps = poisson_point_set(window, 4.0, kSeed);
    EXPECT_EQ(serial.intensity, ps.intensity);
    expect_same_points(serial.points, ps.points);
  }
}

TEST(OrderedPoisson, LargeOffsetWindowKeepsPointsInside) {
  // At x = 2^40 the spacing of doubles is 2^-12, so ix + u rounds up to
  // ix + 1 == hi.x for u > 1 - 2^-13: about ten of these 80k draws land on
  // the excluded upper edge. A cell whose upper edge is the window's must
  // still test each point, not keep all of them as an interior cell.
  const double x0 = std::ldexp(1.0, 40);
  const Box window{{x0, 0.0}, {x0 + 1.0, 20000.0}};
  const PointSet ps = poisson_point_set(window, 4.0, 7);
  std::size_t outside = 0;
  for (const Vec2 p : ps.points) outside += window.contains(p) ? 0u : 1u;
  EXPECT_EQ(outside, 0u);
  expect_same_points(serial_poisson(window, 4.0, 7).points, ps.points);
}

TEST(OrderedPoisson, SerialOrderIsAlreadyGridMajor) {
  // The equality above is only meaningful if "grid-major" is a real
  // invariant of the generator: stable-sorting its output by
  // (cell row, cell column) must be a no-op.
  const PointSet ps = poisson_point_set({{0.0, 0.0}, {9.0, 9.0}}, 3.0, kSeed);
  std::vector<Vec2> sorted = ps.points;
  std::stable_sort(sorted.begin(), sorted.end(), [](Vec2 a, Vec2 b) {
    const auto cell = [](Vec2 p) {
      return std::pair<long, long>{static_cast<long>(std::floor(p.y)),
                                   static_cast<long>(std::floor(p.x))};
    };
    return cell(a) < cell(b);
  });
  expect_same_points(ps.points, sorted);
}

TEST(OrderedPoisson, ThreadCountInvariance) {
  const Box window{{0.0, 0.0}, {12.0, 8.0}};
  const unsigned restore = thread_count();
  set_thread_count(1);
  const PointSet one = poisson_point_set(window, 5.0, kSeed);
  set_thread_count(3);
  const PointSet three = poisson_point_set(window, 5.0, kSeed);
  set_thread_count(restore);
  expect_same_points(one.points, three.points);
}

TEST(OrderedPoisson, DegenerateInputs) {
  EXPECT_TRUE(poisson_point_set({{0.0, 0.0}, {8.0, 8.0}}, 0.0, kSeed).points.empty());
  EXPECT_TRUE(poisson_point_set({{2.0, 2.0}, {2.0, 5.0}}, 4.0, kSeed).points.empty());
  EXPECT_THROW((void)poisson_point_set({{0.0, 0.0}, {1.0, 1.0}}, -1.0, kSeed),
               std::invalid_argument);
}

// --- relabeling -------------------------------------------------------------

std::vector<std::uint32_t> random_permutation(std::size_t n, std::uint64_t seed) {
  std::vector<std::uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0u);
  Rng rng = Rng::stream(seed, 0x5E0);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.uniform_index(i)]);
  }
  return perm;
}

TEST(Reorder, InvertRoundTrip) {
  const std::vector<std::uint32_t> perm = random_permutation(257, kSeed);
  const std::vector<std::uint32_t> inv = invert_permutation(perm);
  for (std::size_t i = 0; i < perm.size(); ++i) {
    EXPECT_EQ(inv[perm[i]], i);
    EXPECT_EQ(perm[inv[i]], i);
  }
  EXPECT_EQ(invert_permutation(inv), perm);  // inversion is an involution
}

TEST(Reorder, InvertRejectsNonPermutations) {
  EXPECT_THROW((void)invert_permutation(std::vector<std::uint32_t>{0, 2}),
               std::invalid_argument);  // out of range
  EXPECT_THROW((void)invert_permutation(std::vector<std::uint32_t>{0, 1, 1}),
               std::invalid_argument);  // duplicate
}

TEST(Reorder, ApplyPointsRoundTrip) {
  const PointSet ps = poisson_point_set({{0.0, 0.0}, {6.0, 6.0}}, 4.0, kSeed);
  const std::vector<std::uint32_t> perm = random_permutation(ps.size(), kSeed);
  const std::vector<std::uint32_t> inv = invert_permutation(perm);
  const std::vector<Vec2> shuffled = apply_permutation(std::span<const Vec2>(ps.points), perm);
  std::vector<Vec2> picked(perm.size());
  for (std::size_t i = 0; i < perm.size(); ++i) picked[i] = ps.points[perm[i]];
  expect_same_points(shuffled, picked);
  const std::vector<Vec2> back = apply_permutation(std::span<const Vec2>(shuffled), inv);
  expect_same_points(back, ps.points);
  EXPECT_THROW((void)apply_permutation(std::span<const Vec2>(ps.points),
                                       std::vector<std::uint32_t>{0}),
               std::invalid_argument);  // size mismatch
}

TEST(Reorder, HilbertIndexIsInjective) {
  std::set<std::uint64_t> seen;
  for (std::uint32_t x = 0; x < 32; ++x) {
    for (std::uint32_t y = 0; y < 32; ++y) {
      seen.insert(hilbert_index_16(x * 2047, y * 2047));
    }
  }
  EXPECT_EQ(seen.size(), 32u * 32u);
}

TEST(Reorder, SpatialPermutationIsDeterministicPermutation) {
  const PointSet ps = poisson_point_set({{0.0, 0.0}, {8.0, 8.0}}, 4.0, kSeed);
  for (const SpatialOrder order : {SpatialOrder::kHilbert, SpatialOrder::kGridMajor}) {
    const std::vector<std::uint32_t> perm = spatial_order_permutation(ps.points, order);
    (void)invert_permutation(perm);  // throws unless a genuine permutation
    EXPECT_EQ(perm, spatial_order_permutation(ps.points, order));
  }
  EXPECT_TRUE(spatial_order_permutation({}, SpatialOrder::kHilbert).empty());
}

TEST(Reorder, HilbertBuildMatchesRelabeledBuildOracle) {
  // The layout contract at the heart of E18: building the UDG on permuted
  // points is the *same graph* as permuting the built UDG — bit for bit,
  // edge lists and coordinates. (UDG only: HNG promotion levels are keyed
  // by node id, so relabeling resamples its hierarchy — DESIGN.md §2.8.)
  const Box window{{0.0, 0.0}, {12.0, 12.0}};
  const PointSet ps = poisson_point_set(window, 4.0, kSeed);
  const GeoGraph built = build_udg(ps.points, window, 1.0);

  const std::vector<std::uint32_t> perm =
      spatial_order_permutation(ps.points, SpatialOrder::kHilbert);
  const std::vector<Vec2> permuted = apply_permutation(std::span<const Vec2>(ps.points), perm);
  const GeoGraph rebuilt = build_udg(permuted, window, 1.0);
  const GeoGraph relabeled = apply_permutation(built, perm);

  expect_same_points(rebuilt.points, relabeled.points);
  EXPECT_EQ(rebuilt.graph.edge_list(), relabeled.graph.edge_list());
  EXPECT_EQ(rebuilt.graph.num_edges(), built.graph.num_edges());
}

// --- index-width guards -----------------------------------------------------

TEST(ScaleGuards, CheckedU32Boundary) {
  EXPECT_EQ(checked_u32(0xffffffffull, "test"), 0xffffffffu);
  EXPECT_THROW((void)checked_u32(0x100000000ull, "test"), std::overflow_error);
}

TEST(ScaleGuards, CsrBuilderRejectsHugeVertexCount) {
  CsrGraph::Builder b;
  b.add_edge(0, 1);
  // The guard fires at entry, before any offsets allocation — a 2^32 vertex
  // count must throw, not attempt a 16 GiB resize or wrap silently.
  EXPECT_THROW((void)std::move(b).build(std::size_t{1} << 32), std::overflow_error);
}

TEST(ScaleGuards, ApplyEdgeDeltaRejectsHugeVertexCount) {
  // The delta path (PR 7) predates the checked builders: a grow delta to a
  // 2^32 vertex count must throw at entry — before the counting sort would
  // attempt a 16 GiB offsets allocation or wrap a 32-bit prefix sum.
  const CsrGraph g = CsrGraph::from_edges(2, {{0, 1}});
  EXPECT_THROW((void)CsrGraph::apply_edge_delta(g, std::size_t{1} << 32, {}, {}),
               std::overflow_error);
}

TEST(ScaleGuards, FlatAdjacencyBuilderRejectsOffsetOverflow) {
  // Two vertices whose degrees each fit u32 but whose prefix sum does not:
  // the checked prefix must throw before the neighbors resize is attempted.
  EXPECT_THROW((void)build_flat_adjacency(
                   2, [](std::size_t) { return std::size_t{0x80000000}; },
                   [](std::size_t, std::uint32_t*) { FAIL() << "fill must never run"; }),
               std::overflow_error);
  EXPECT_THROW((void)build_flat_adjacency(
                   1, [](std::size_t) { return std::size_t{0x100000000}; },
                   [](std::size_t, std::uint32_t*) { FAIL() << "fill must never run"; }),
               std::overflow_error);
}

}  // namespace
}  // namespace sens
