// Tests for sens/serve: the landmark distance oracle, the batched
// QueryEngine (exact, estimated and route serving), and the §2.6 serving
// contract — one shared engine, many concurrent callers, bit-identical
// answers. The ServeConcurrency suite is the TSan-backed `concurrency`
// ctest tier together with ParallelReentrancy in test_support; every Serve*
// suite, ServeContract's input contract included, and the SsspOracle
// differential harness (every exact shortest-path search against
// dijkstra_costs_into, bit for bit) are the ASan-backed `serve` tier.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <deque>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sens/core/sens_router.hpp"
#include "sens/core/udg_sens.hpp"
#include "sens/dynamic/dynamic_hng.hpp"
#include "sens/geograph/point_set.hpp"
#include "sens/geograph/udg.hpp"
#include "sens/graph/chain_sweep.hpp"
#include "sens/graph/csr.hpp"
#include "sens/graph/dijkstra.hpp"
#include "sens/hng/hng.hpp"
#include "sens/obs/obs.hpp"
#include "sens/rng/rng.hpp"
#include "sens/serve/epoch_engine.hpp"
#include "sens/serve/landmark_oracle.hpp"
#include "sens/serve/query_engine.hpp"
#include "sens/support/parallel.hpp"

#include "chain_reference.hpp"

namespace sens {
namespace {

#if SENS_OBS_ENABLED
/// Registry total of counter `c` (summed over every thread's block).
std::uint64_t counter(obs::Counter c) {
  return obs::CounterRegistry::global().snapshot()[static_cast<std::size_t>(c)];
}
#endif

/// Deterministic symmetric weight for edge {u, v} — irregular enough that
/// shortest paths are not hop counts.
double edge_weight(std::uint32_t u, std::uint32_t v) {
  const std::uint32_t lo = std::min(u, v);
  const std::uint32_t hi = std::max(u, v);
  return 1.0 + static_cast<double>((lo * 2654435761u + hi * 40503u) % 97) / 97.0;
}

struct TestGraph {
  CsrGraph graph;
  std::vector<double> weights;
};

/// Random sparse graph: a Hamiltonian-ish backbone keeping one big
/// component plus random chords, and `island` extra vertices forming a
/// separate small component (adversarial disconnected pairs).
TestGraph make_graph(std::size_t n, std::size_t chords, std::uint64_t seed,
                     std::size_t island = 0) {
  Rng rng = Rng::stream(seed, 0x57a9, 0);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (std::uint32_t i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  for (std::size_t c = 0; c < chords; ++c)
    edges.emplace_back(static_cast<std::uint32_t>(rng.uniform_index(n)),
                       static_cast<std::uint32_t>(rng.uniform_index(n)));
  const std::size_t total = n + island;
  for (std::uint32_t i = static_cast<std::uint32_t>(n); i + 1 < total; ++i)
    edges.emplace_back(i, i + 1);
  TestGraph tg;
  tg.graph = CsrGraph::from_edges(total, std::move(edges));
  tg.weights = tg.graph.arc_weights(edge_weight);
  return tg;
}

/// Deterministic query batch over [0, n) vertex ids.
std::vector<Query> make_queries(std::size_t count, std::size_t n, std::uint64_t seed) {
  Rng rng = Rng::stream(seed, 0x57a9, 1);
  std::vector<Query> qs(count);
  for (auto& q : qs) {
    q.src = static_cast<std::uint32_t>(rng.uniform_index(n));
    q.dst = static_cast<std::uint32_t>(rng.uniform_index(n));
  }
  return qs;
}

TEST(ServeSmoke, ExactMatchesDijkstra) {
  const TestGraph tg = make_graph(120, 60, 7);
  const QueryEngine engine(tg.graph, tg.weights);
  const auto qs = make_queries(50, tg.graph.num_vertices(), 7);
  std::vector<double> got(qs.size());
  engine.exact_distances(qs, got);
  DijkstraScratch scratch;
  for (std::size_t i = 0; i < qs.size(); ++i) {
    EXPECT_EQ(got[i], dijkstra_cost(tg.graph, qs[i].src, qs[i].dst, tg.weights, scratch))
        << "query " << i;
  }
}

TEST(ServeOracle, BoundsBracketExactDistance) {
  const TestGraph tg = make_graph(90, 45, 11);
  const LandmarkOracle oracle =
      LandmarkOracle::build(tg.graph, tg.weights, {.num_landmarks = 8, .seed = 11});
  DijkstraScratch scratch;
  const std::size_t n = tg.graph.num_vertices();
  for (std::uint32_t s = 0; s < n; s += 7) {
    for (std::uint32_t t = 0; t < n; t += 5) {
      const double exact = dijkstra_cost(tg.graph, s, t, tg.weights, scratch);
      const LandmarkOracle::Bounds b = oracle.bounds(s, t);
      // FP tolerance: the label sums/differences and the Dijkstra
      // accumulation round differently.
      const double eps = 1e-9 * (1.0 + std::abs(exact));
      EXPECT_LE(b.lower, exact + eps) << s << "->" << t;
      if (exact < kInfCost) {
        EXPECT_GE(b.upper + eps, exact) << s << "->" << t;
      }
    }
  }
}

TEST(ServeOracle, BlockedLabelSweepMatchesPerLandmarkDijkstra) {
  // build_with sweeps landmarks in blocks of 8: counts below, at, just
  // above and at a multiple of the block must all label every vertex with
  // the bit-exact per-landmark distance (the island makes some labels
  // infinite), at any thread count.
  const TestGraph tg = make_graph(300, 150, 21, /*island=*/12);
  const std::size_t n = tg.graph.num_vertices();
  std::vector<std::uint32_t> order(n);
  for (std::uint32_t v = 0; v < n; ++v) order[v] = (v * 37u + 5u) % static_cast<std::uint32_t>(n);
  DijkstraScratch scratch;
  std::vector<double> row(n);
  for (const std::size_t num : {1u, 7u, 8u, 9u, 64u}) {
    const std::vector<std::uint32_t> picks(order.begin(),
                                           order.begin() + static_cast<std::ptrdiff_t>(num));
    for (const unsigned threads : {1u, 2u, 8u}) {
      set_thread_count(threads);
      const LandmarkOracle oracle = LandmarkOracle::build_with(tg.graph, tg.weights, picks);
      ASSERT_EQ(oracle.num_landmarks(), num);
      for (std::size_t l = 0; l < num; ++l) {
        dijkstra_costs_into(tg.graph, picks[l], tg.weights, scratch, row);
        for (std::uint32_t v = 0; v < n; ++v) {
          const double got = oracle.label(v, l);
          ASSERT_EQ(std::memcmp(&got, &row[v], sizeof(double)), 0)
              << "landmark " << l << " of " << num << ", vertex " << v << ", " << threads
              << " threads";
        }
      }
    }
  }
  set_thread_count(0);
}

TEST(ServeOracle, LandmarksClampedAndDistinct) {
  const TestGraph tg = make_graph(20, 10, 3);
  // k >= n: every vertex becomes a landmark, exactly once.
  const LandmarkOracle oracle =
      LandmarkOracle::build(tg.graph, tg.weights, {.num_landmarks = 500, .seed = 3});
  EXPECT_EQ(oracle.num_landmarks(), tg.graph.num_vertices());
  std::vector<std::uint32_t> ids(oracle.landmarks().begin(), oracle.landmarks().end());
  std::sort(ids.begin(), ids.end());
  EXPECT_TRUE(std::adjacent_find(ids.begin(), ids.end()) == ids.end());
  // With every vertex a landmark, the bracket collapses to the exact
  // distance for every pair (landmark == s gives |0 - d| = d both ways).
  DijkstraScratch scratch;
  for (std::uint32_t s = 0; s < 20; s += 3) {
    for (std::uint32_t t = 0; t < 20; t += 4) {
      const double exact = dijkstra_cost(tg.graph, s, t, tg.weights, scratch);
      const LandmarkOracle::Bounds b = oracle.bounds(s, t);
      const double eps = 1e-9 * (1.0 + std::abs(exact));
      EXPECT_NEAR(b.lower, exact, eps);
      EXPECT_NEAR(b.upper, exact, eps);
    }
  }
}

TEST(ServeOracle, FarthestPointPicksAreDistinctAndDeterministic) {
  const TestGraph tg = make_graph(160, 80, 11);
  const LandmarkOracleParams params{.num_landmarks = 12,
                                    .seed = 11,
                                    .selection = LandmarkSelection::kFarthestPoint};
  const LandmarkOracle a = LandmarkOracle::build(tg.graph, tg.weights, params);
  const LandmarkOracle b = LandmarkOracle::build(tg.graph, tg.weights, params);
  ASSERT_EQ(a.num_landmarks(), 12u);
  EXPECT_TRUE(std::equal(a.landmarks().begin(), a.landmarks().end(), b.landmarks().begin()));
  std::vector<std::uint32_t> ids(a.landmarks().begin(), a.landmarks().end());
  std::sort(ids.begin(), ids.end());
  EXPECT_TRUE(std::adjacent_find(ids.begin(), ids.end()) == ids.end());
  // The max-min pick is thread-count-invariant (it is serial by design).
  set_thread_count(1);
  const LandmarkOracle serial = LandmarkOracle::build(tg.graph, tg.weights, params);
  set_thread_count(8);
  const LandmarkOracle wide = LandmarkOracle::build(tg.graph, tg.weights, params);
  set_thread_count(0);
  EXPECT_TRUE(
      std::equal(serial.landmarks().begin(), serial.landmarks().end(), wide.landmarks().begin()));
}

TEST(ServeOracle, FarthestPointPicksStayDistinctOnZeroWeights) {
  // Every distance is 0, so every unchosen vertex ties with the chosen
  // ones: the pick must still move on (it used to re-pick vertex 0).
  const CsrGraph g = CsrGraph::from_edges(6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}});
  const LandmarkOracle oracle = LandmarkOracle::build(
      g, g.arc_weights([](std::uint32_t, std::uint32_t) { return 0.0; }),
      {.num_landmarks = 6, .seed = 3, .selection = LandmarkSelection::kFarthestPoint});
  std::vector<std::uint32_t> ids(oracle.landmarks().begin(), oracle.landmarks().end());
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<std::uint32_t>{0, 1, 2, 3, 4, 5}));
}

TEST(ServeOracle, FarthestPointCoversEveryComponentFirst) {
  // 50-vertex backbone plus a 6-vertex island: unreached counts as
  // infinitely far, so the island must receive a pivot by the second pick.
  const TestGraph tg = make_graph(50, 20, 13, /*island=*/6);
  const LandmarkOracle oracle = LandmarkOracle::build(
      tg.graph, tg.weights,
      {.num_landmarks = 2, .seed = 13, .selection = LandmarkSelection::kFarthestPoint});
  ASSERT_EQ(oracle.num_landmarks(), 2u);
  const auto lm = oracle.landmarks();
  const bool first_in_island = lm[0] >= 50;
  const bool second_in_island = lm[1] >= 50;
  EXPECT_NE(first_in_island, second_in_island)
      << "one pivot per component before any component gets two";
}

TEST(ServeOracle, FarthestPointCertificationIsSound) {
  // Spread pivots keep the bracket useful (a healthy certified share on
  // the E17-style workload — which pivot set certifies *more* is workload-
  // and seed-dependent, so no cross-policy comparison here) and, above
  // all, sound: a certified answer never undershoots the exact distance
  // and never overshoots the stretch budget.
  const TestGraph tg = make_graph(400, 240, 21);
  const auto qs = make_queries(300, 400, 21);
  std::vector<double> est(qs.size());
  const QueryEngine farthest(tg.graph, tg.weights,
                             {.num_landmarks = 16,
                              .max_stretch = 1.2,
                              .seed = 21,
                              .selection = LandmarkSelection::kFarthestPoint});
  const ServeStats sf = farthest.estimate_distances(qs, est);
  // Oracle-only answers: certified upper bounds plus exact brackets (an
  // endpoint is a pivot, or s == t), which count as exact verdicts.
  std::size_t tight = 0;
  for (const Query& q : qs) {
    const LandmarkOracle::Bounds b = farthest.oracle().bounds(q.src, q.dst);
    tight += b.exact() ? 1u : 0u;
  }
  EXPECT_GT(sf.certified + tight, qs.size() / 20) << "the fast path barely fires";
  std::vector<double> exact(qs.size());
  farthest.exact_distances(qs, exact);
  for (std::size_t i = 0; i < qs.size(); ++i) {
    EXPECT_GE(est[i], exact[i] - 1e-9);
    if (est[i] < kInfCost) {
      EXPECT_LE(est[i], 1.2 * exact[i] + 1e-9);
    }
  }
}

TEST(ServeOracle, ZeroLandmarksNeverCertifiesConnectedPairs) {
  const TestGraph tg = make_graph(30, 15, 5);
  const QueryEngine engine(tg.graph, tg.weights, {.num_landmarks = 0});
  EXPECT_EQ(engine.oracle().num_landmarks(), 0u);
  const auto qs = make_queries(20, 30, 5);
  std::vector<double> est(qs.size());
  const ServeStats stats = engine.estimate_distances(qs, est);
  // Nothing certifies: s == t is an exact bracket, everything else falls
  // back to exact Dijkstra.
  std::vector<double> exact(qs.size());
  engine.exact_distances(qs, exact);
  for (std::size_t i = 0; i < qs.size(); ++i) EXPECT_EQ(est[i], exact[i]);
  EXPECT_EQ(stats.certified, 0u);
  EXPECT_EQ(stats.exact, qs.size());
}

TEST(ServeEstimate, CertifiedWithinStretchAndStatsAddUp) {
  const TestGraph tg = make_graph(200, 120, 17);
  const QueryEngineParams params{.num_landmarks = 12, .max_stretch = 1.2, .seed = 17};
  const QueryEngine engine(tg.graph, tg.weights, params);
  const auto qs = make_queries(300, tg.graph.num_vertices(), 17);
  std::vector<double> est(qs.size());
  const ServeStats stats = engine.estimate_distances(qs, est);
  EXPECT_EQ(stats.queries, qs.size());
  EXPECT_EQ(stats.exact + stats.certified + stats.disconnected + stats.stale, stats.queries);
  EXPECT_EQ(stats.disconnected + stats.stale, 0u);  // one component, ids in range
  std::vector<double> exact(qs.size());
  engine.exact_distances(qs, exact);
  for (std::size_t i = 0; i < qs.size(); ++i) {
    // Every answer is exact or a certified overestimate within the budget.
    EXPECT_GE(est[i] + 1e-9 * (1.0 + std::abs(exact[i])), exact[i]) << "query " << i;
    if (exact[i] > 0.0 && exact[i] < kInfCost) {
      EXPECT_LE(est[i], params.max_stretch * exact[i] * (1.0 + 1e-12)) << "query " << i;
    } else {
      EXPECT_EQ(est[i], exact[i]) << "query " << i;  // 0 and inf answered exactly
    }
  }
}

TEST(ServeEstimate, SelfAndDuplicateQueries) {
  const TestGraph tg = make_graph(60, 30, 23);
  const QueryEngine engine(tg.graph, tg.weights, {.num_landmarks = 6, .seed = 23});
  // Duplicates (including self queries) must produce bit-identical slots.
  const std::vector<Query> qs = {{5, 40}, {5, 40}, {12, 12}, {5, 40}, {12, 12}, {0, 59}, {0, 59}};
  std::vector<double> est(qs.size());
  const ServeStats stats = engine.estimate_distances(qs, est);
  EXPECT_EQ(stats.queries, qs.size());
  EXPECT_EQ(est[0], est[1]);
  EXPECT_EQ(est[1], est[3]);
  EXPECT_EQ(est[2], 0.0);
  EXPECT_EQ(est[4], 0.0);
  EXPECT_EQ(est[5], est[6]);
}

TEST(ServeEstimate, DisconnectedPairsCertifiedInfinite) {
  // 80-vertex giant + 8-vertex island: cross-component queries must come
  // back infinite, and (with at least one landmark in either component)
  // proven disconnected by the bracket alone.
  const TestGraph tg = make_graph(80, 40, 29, 8);
  const QueryEngine engine(tg.graph, tg.weights, {.num_landmarks = 88, .seed = 29});
  const std::vector<Query> qs = {{0, 85}, {85, 0}, {79, 80}, {82, 3}};
  std::vector<double> est(qs.size());
  const ServeStats stats = engine.estimate_distances(qs, est);
  for (std::size_t i = 0; i < qs.size(); ++i) {
    EXPECT_EQ(est[i], kInfCost) << "query " << i;
    // The bracket itself is {inf, inf}: the kernel takes the exact-bracket
    // branch, never a fallback Dijkstra that merely also returns inf.
    const LandmarkOracle::Bounds b = engine.oracle().bounds(qs[i].src, qs[i].dst);
    EXPECT_EQ(b.lower, kInfCost) << "query " << i;
    EXPECT_EQ(b.upper, kInfCost) << "query " << i;
  }
  EXPECT_EQ(stats.disconnected, qs.size());
  EXPECT_EQ(stats.certified + stats.exact, 0u);
#if SENS_OBS_ENABLED
  auto& reg = obs::CounterRegistry::global();
  reg.reset();
  (void)engine.estimate_distances(qs, est);
  EXPECT_EQ(counter(obs::Counter::kOracleFallback), 0u);
  EXPECT_EQ(counter(obs::Counter::kDijkstraRuns), 0u);
  EXPECT_EQ(counter(obs::Counter::kOracleDisconnected), qs.size());
#endif
}

TEST(ServeEstimate, OutOfRangeIdsAreStale) {
  // Ids >= n must never reach the label array or a Dijkstra scratch: the
  // kernel answers them kInfCost with a kStale verdict.
  const TestGraph tg = make_graph(40, 20, 53);
  const QueryEngine engine(tg.graph, tg.weights, {.num_landmarks = 4, .seed = 53});
  const auto n = static_cast<std::uint32_t>(tg.graph.num_vertices());
  const std::vector<Query> qs = {{0, 39}, {n, 0}, {3, n + 7}, {0xffffffffu, 0xffffffffu}};
  std::vector<double> est(qs.size());
  const ServeStats stats = engine.estimate_distances(qs, est);
  EXPECT_EQ(stats.queries, qs.size());
  EXPECT_EQ(stats.stale, 3u);
  for (std::size_t i = 1; i < qs.size(); ++i) EXPECT_EQ(est[i], kInfCost) << "query " << i;
  EXPECT_LT(est[0], kInfCost);
  std::vector<Verdict> verdicts(qs.size());
  (void)serve_batch(tg.graph, tg.weights, engine.oracle(), engine.max_stretch(),
                    qs, est, verdicts);
  EXPECT_NE(verdicts[0], Verdict::kStale);
  for (std::size_t i = 1; i < qs.size(); ++i) EXPECT_EQ(verdicts[i], Verdict::kStale);
}

TEST(ServeEstimate, MixedVerdictBatchBitIdenticalAcrossThreadCounts) {
  // One batch mixing every verdict path — certified brackets, Dijkstra
  // fallbacks, disconnected pairs, stale ids and s == t — in 1000 chunks of
  // three queries, so each participant's Dijkstra scratch is reused across
  // chunks of all kinds. Bytes, verdicts and stats must not depend on how
  // the chunks were spread over participants.
  const TestGraph tg = make_graph(300, 150, 67, 12);
  const QueryEngine engine(tg.graph, tg.weights,
                           {.num_landmarks = 6, .max_stretch = 1.15, .seed = 67});
  const auto n = static_cast<std::uint32_t>(tg.graph.num_vertices());
  std::vector<Query> qs = make_queries(3000, n, 67);
  for (std::size_t i = 0; i < qs.size(); i += 7) qs[i].dst = qs[i].src;  // s == t
  for (std::size_t i = 3; i < qs.size(); i += 11) qs[i].src = n + static_cast<std::uint32_t>(i);
  for (std::size_t i = 5; i < qs.size(); i += 13) qs[i] = {static_cast<std::uint32_t>(i % 300),
                                                           300 + static_cast<std::uint32_t>(i % 12)};

  struct Run {
    std::vector<double> out;
    std::vector<Verdict> verdicts;
    ServeStats stats;
  };
  const auto serve = [&](unsigned threads) {
    set_thread_count(threads);
    Run r{std::vector<double>(qs.size()), std::vector<Verdict>(qs.size()), {}};
    r.stats = serve_batch(tg.graph, tg.weights, engine.oracle(),
                          engine.max_stretch(), qs, r.out, r.verdicts);
    set_thread_count(0);
    return r;
  };
  const Run ref = serve(1);
  std::size_t self = 0;
  std::size_t fallbacks = 0;
  for (const Query& q : qs) {
    if (q.src >= n || q.dst >= n) continue;
    self += q.src == q.dst;
    const LandmarkOracle::Bounds b = engine.oracle().bounds(q.src, q.dst);
    fallbacks += !b.exact() && !b.certifies(engine.max_stretch());
  }
  ASSERT_GT(self, 0u);
  ASSERT_GT(fallbacks, 0u);
  ASSERT_GT(ref.stats.certified, 0u);
  ASSERT_GT(ref.stats.disconnected, 0u);
  ASSERT_GT(ref.stats.stale, 0u);
  for (const unsigned threads : {2u, 8u}) {
    const Run got = serve(threads);
    EXPECT_EQ(std::memcmp(got.out.data(), ref.out.data(), ref.out.size() * sizeof(double)), 0)
        << "threads=" << threads;
    EXPECT_EQ(got.verdicts, ref.verdicts) << "threads=" << threads;
    EXPECT_EQ(got.stats.queries, ref.stats.queries) << "threads=" << threads;
    EXPECT_EQ(got.stats.exact, ref.stats.exact) << "threads=" << threads;
    EXPECT_EQ(got.stats.certified, ref.stats.certified) << "threads=" << threads;
    EXPECT_EQ(got.stats.disconnected, ref.stats.disconnected) << "threads=" << threads;
    EXPECT_EQ(got.stats.stale, ref.stats.stale) << "threads=" << threads;
  }
}

// --- the batch buffers' input contract: a mis-sized buffer or weight array
// throws std::invalid_argument before any dispatch, leaving `out` untouched.

TEST(ServeContract, EstimateRejectsMisSizedOutput) {
  const TestGraph tg = make_graph(40, 20, 71);
  const QueryEngine engine(tg.graph, tg.weights, {.num_landmarks = 4, .seed = 71});
  const auto qs = make_queries(64, 40, 71);
  std::vector<double> out(4, -1.0);
  EXPECT_THROW((void)engine.estimate_distances(qs, out), std::invalid_argument);
  EXPECT_EQ(out[0], -1.0);
  std::vector<double> long_out(65);
  EXPECT_THROW((void)engine.estimate_distances(qs, long_out), std::invalid_argument);
}

TEST(ServeContract, BatchRejectsMisSizedVerdicts) {
  const TestGraph tg = make_graph(40, 20, 73);
  const QueryEngine engine(tg.graph, tg.weights, {.num_landmarks = 4, .seed = 73});
  const auto qs = make_queries(64, 40, 73);
  std::vector<double> out(qs.size(), -1.0);
  std::vector<Verdict> verdicts(3);
  EXPECT_THROW((void)serve_batch(tg.graph, tg.weights, engine.oracle(),
                                 engine.max_stretch(), qs, out, verdicts),
               std::invalid_argument);
  EXPECT_EQ(out[0], -1.0);
  // Empty verdicts means "not wanted", never a size mismatch.
  EXPECT_NO_THROW((void)serve_batch(tg.graph, tg.weights, engine.oracle(),
                                    engine.max_stretch(), qs, out, {}));
  const std::vector<double> short_weights(2, 1.0);
  EXPECT_THROW((void)serve_batch(tg.graph, short_weights, engine.oracle(),
                                 engine.max_stretch(), qs, out, {}),
               std::invalid_argument);
}

TEST(ServeContract, EpochServeRejectsMisSizedBuffers) {
  std::vector<Vec2> pts;
  Rng rng = Rng::stream(79, 0x57a9, 2);
  for (int i = 0; i < 120; ++i) pts.push_back({rng.uniform() * 6.0, rng.uniform() * 6.0});
  const DynamicHng dyn(pts, HngParams{.promote_p = 0.25, .k = 3, .max_level = 48}, 79);
  const EpochQueryEngine engine(dyn, EpochEngineParams{.num_landmarks = 4, .seed = 79});
  const auto qs = make_queries(32, 120, 79);
  std::vector<double> out(qs.size());
  std::vector<Verdict> verdicts(qs.size());
  std::vector<double> short_out(31);
  std::vector<Verdict> short_verdicts(1);
  EXPECT_THROW((void)engine.serve(qs, short_out, verdicts), std::invalid_argument);
  EXPECT_THROW((void)engine.serve(qs, out, short_verdicts), std::invalid_argument);
  EXPECT_NO_THROW((void)engine.serve(qs, out, verdicts));
}

TEST(ServeContract, ExactRejectsMisSizedOutput) {
  const TestGraph tg = make_graph(40, 20, 83);
  const QueryEngine engine(tg.graph, tg.weights, {.num_landmarks = 4, .seed = 83});
  const auto qs = make_queries(16, 40, 83);
  std::vector<double> out(15, -1.0);
  EXPECT_THROW(engine.exact_distances(qs, out), std::invalid_argument);
  EXPECT_EQ(out[0], -1.0);
}

TEST(ServeContract, OracleBuildRejectsMisalignedWeights) {
  const TestGraph tg = make_graph(40, 20, 97);
  const std::vector<double> short_weights(2, 1.0);
  for (const LandmarkSelection sel :
       {LandmarkSelection::kUniformRandom, LandmarkSelection::kFarthestPoint}) {
    EXPECT_THROW((void)LandmarkOracle::build(tg.graph, short_weights,
                                             {.num_landmarks = 4, .seed = 97, .selection = sel}),
                 std::invalid_argument);
  }
  EXPECT_THROW((void)LandmarkOracle::build_with(tg.graph, short_weights, {0, 5}),
               std::invalid_argument);
}

TEST(ServeContract, BuildWithRejectsBadLandmarkIds) {
  // Checked before the first sweep: an id >= n would index past the
  // Dijkstra scratch, and a repeated id would label one pivot twice.
  const TestGraph tg = make_graph(40, 20, 101);
  const auto n = static_cast<std::uint32_t>(tg.graph.num_vertices());
  EXPECT_THROW((void)LandmarkOracle::build_with(tg.graph, tg.weights, {0, n}), std::out_of_range);
  EXPECT_THROW((void)LandmarkOracle::build_with(tg.graph, tg.weights, {n + 7}), std::out_of_range);
  EXPECT_THROW((void)LandmarkOracle::build_with(tg.graph, tg.weights, {3, 5, 3}),
               std::invalid_argument);
  EXPECT_THROW((void)LandmarkOracle::build_with(CsrGraph::from_edges(0, {}), {}, {0}),
               std::out_of_range);
  const LandmarkOracle ok = LandmarkOracle::build_with(tg.graph, tg.weights, {3, 5});
  EXPECT_EQ(ok.num_landmarks(), 2u);
}

TEST(ServeContract, ExactCostRejectsBadInput) {
  const TestGraph tg = make_graph(40, 20, 103);
  const auto n = static_cast<std::uint32_t>(tg.graph.num_vertices());
  const LandmarkOracle oracle =
      LandmarkOracle::build(tg.graph, tg.weights, {.num_landmarks = 4, .seed = 103});
  DijkstraScratch scratch;
  EXPECT_THROW((void)oracle.exact_cost(tg.graph, tg.weights, n, 0, kInfCost, scratch),
               std::out_of_range);
  EXPECT_THROW((void)oracle.exact_cost(tg.graph, tg.weights, 0, n, kInfCost, scratch),
               std::out_of_range);
  EXPECT_THROW((void)oracle.exact_cost(tg.graph, std::vector<double>(3, 1.0), 0, 1, kInfCost,
                                       scratch),
               std::invalid_argument);
  // Labels swept on another graph would be read out of bounds.
  const TestGraph other = make_graph(60, 20, 103);
  EXPECT_THROW((void)oracle.exact_cost(other.graph, other.weights, 0, 1, kInfCost, scratch),
               std::invalid_argument);
  EXPECT_TRUE(scratch.stamp.empty());
}

TEST(ServeContract, EngineRejectsMisalignedWeights) {
  // 4 vertices on a path: 3 edges, 6 arcs, but only 2 weights.
  const CsrGraph g = CsrGraph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}});
  ASSERT_EQ(g.num_arcs(), 6u);
  for (const LandmarkSelection sel :
       {LandmarkSelection::kUniformRandom, LandmarkSelection::kFarthestPoint}) {
    EXPECT_THROW(QueryEngine(g, std::vector<double>(2, 1.0),
                             {.num_landmarks = 2, .selection = sel}),
                 std::invalid_argument);
  }
  EXPECT_NO_THROW(QueryEngine(g, g.arc_weights([](std::uint32_t, std::uint32_t) { return 1.0; })));
}

TEST(ServeExact, OutOfRangeIdsThrowBeforeAnyWork) {
  const TestGraph tg = make_graph(40, 20, 59);
  const QueryEngine engine(tg.graph, tg.weights, {.num_landmarks = 4, .seed = 59});
  const auto n = static_cast<std::uint32_t>(tg.graph.num_vertices());
  const std::vector<Query> qs = {{0, 1}, {2, n}};
  std::vector<double> dist(qs.size(), -1.0);
  EXPECT_THROW(engine.exact_distances(qs, dist), std::out_of_range);
  EXPECT_EQ(dist[0], -1.0);  // rejected upfront: no slot written
}

TEST(ServeRoutes, PathsValidAndCostMatchesDistance) {
  // An exact node path (dijkstra_path_into) costs exactly what
  // exact_distances serves for the same query.
  const TestGraph tg = make_graph(150, 80, 31, 6);
  const QueryEngine engine(tg.graph, tg.weights);
  auto qs = make_queries(60, tg.graph.num_vertices(), 31);
  qs.push_back({10, 10});     // self: single-vertex path
  qs.push_back({0, 152});     // disconnected: empty path
  std::vector<double> exact(qs.size());
  engine.exact_distances(qs, exact);
  DijkstraScratch scratch;
  std::vector<std::uint32_t> path{7};  // stale contents must vanish
  for (std::size_t i = 0; i < qs.size(); ++i) {
    EXPECT_EQ(dijkstra_path_into(tg.graph, qs[i].src, qs[i].dst, tg.weights, scratch, path),
              exact[i] < kInfCost)
        << "query " << i;
    if (exact[i] >= kInfCost) {
      EXPECT_TRUE(path.empty()) << "query " << i;
      continue;
    }
    ASSERT_FALSE(path.empty()) << "query " << i;
    EXPECT_EQ(path.front(), qs[i].src);
    EXPECT_EQ(path.back(), qs[i].dst);
    double cost = 0.0;
    for (std::size_t j = 1; j < path.size(); ++j) {
      ASSERT_TRUE(tg.graph.has_edge(path[j - 1], path[j])) << "query " << i;
      cost += edge_weight(path[j - 1], path[j]);
    }
    // Same additions in the same order as the Dijkstra relaxation chain.
    EXPECT_EQ(cost, exact[i]) << "query " << i;
  }
}

// --- the §2.6 serving contract under real concurrency (TSan tier) ---

TEST(ServeConcurrency, ConcurrentCallersMatchSingleThreadBitExact) {
  const TestGraph tg = make_graph(400, 250, 43, 10);
  const QueryEngine engine(tg.graph, tg.weights, {.num_landmarks = 12, .seed = 43});
  const auto qs = make_queries(2000, tg.graph.num_vertices(), 43);

  // Reference: one caller, serial worker pool.
  set_thread_count(1);
  std::vector<double> ref_exact(qs.size());
  std::vector<double> ref_est(qs.size());
  engine.exact_distances(qs, ref_exact);
  const ServeStats ref_stats = engine.estimate_distances(qs, ref_est);

  // 4 caller threads share the engine, each slicing a disjoint quarter of
  // the batch, with the pool's helpers active underneath (reentrant runs).
  set_thread_count(4);
  constexpr std::size_t kCallers = 4;
  std::vector<double> got_exact(qs.size());
  std::vector<double> got_est(qs.size());
  std::vector<ServeStats> got_stats(kCallers);
  {
    std::vector<std::thread> callers;
    const std::size_t slice = qs.size() / kCallers;
    for (std::size_t c = 0; c < kCallers; ++c) {
      callers.emplace_back([&, c] {
        const std::size_t begin = c * slice;
        const std::size_t count = c + 1 == kCallers ? qs.size() - begin : slice;
        const auto sub = std::span<const Query>(qs).subspan(begin, count);
        engine.exact_distances(sub, std::span<double>(got_exact).subspan(begin, count));
        got_stats[c] =
            engine.estimate_distances(sub, std::span<double>(got_est).subspan(begin, count));
      });
    }
    for (auto& t : callers) t.join();
  }
  set_thread_count(0);

  EXPECT_EQ(0, std::memcmp(ref_exact.data(), got_exact.data(), qs.size() * sizeof(double)));
  EXPECT_EQ(0, std::memcmp(ref_est.data(), got_est.data(), qs.size() * sizeof(double)));
  ServeStats total;
  for (const ServeStats& s : got_stats) total += s;
  EXPECT_EQ(total.queries, ref_stats.queries);
  EXPECT_EQ(total.exact, ref_stats.exact);
  EXPECT_EQ(total.certified, ref_stats.certified);
  EXPECT_EQ(total.disconnected, ref_stats.disconnected);
  EXPECT_EQ(total.stale, ref_stats.stale);
}

TEST(ServeConcurrency, SharedSensRouterBatchMatchesSequential) {
  // A real overlay: the immutable SensRouter is shared by route_batch
  // (per-participant scratches) and compared with one-at-a-time
  // caller-scratch runs.
  const UdgSensResult r = build_udg_sens(UdgTileSpec::strict(), 25.0, 10, 10, 51);
  const SensRouter router(r.overlay);
  const auto reps = r.overlay.giant_rep_sites();
  ASSERT_GE(reps.size(), 2u);
  Rng pick = Rng::stream(51, 0x5e12e);
  std::vector<std::pair<Site, Site>> pairs(64);
  for (auto& p : pairs) {
    p.first = reps[pick.uniform_index(reps.size())];
    p.second = reps[pick.uniform_index(reps.size())];
  }

  SensRouteScratch scratch;
  std::vector<SensRoute> expected;
  expected.reserve(pairs.size());
  for (const auto& [a, b] : pairs) expected.push_back(router.route(a, b, scratch));

  set_thread_count(4);
  constexpr std::size_t kCallers = 3;
  std::vector<std::vector<SensRoute>> got(kCallers);
  {
    std::vector<std::thread> callers;
    for (std::size_t c = 0; c < kCallers; ++c) {
      callers.emplace_back([&, c] { got[c] = route_batch(router, pairs); });
    }
    for (auto& t : callers) t.join();
  }
  set_thread_count(0);
  for (std::size_t c = 0; c < kCallers; ++c) {
    ASSERT_EQ(got[c].size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(got[c][i].success, expected[i].success) << c << "/" << i;
      EXPECT_EQ(got[c][i].node_path, expected[i].node_path) << c << "/" << i;
      EXPECT_EQ(got[c][i].probes, expected[i].probes) << c << "/" << i;
      EXPECT_EQ(got[c][i].euclid_length, expected[i].euclid_length) << c << "/" << i;
      EXPECT_EQ(got[c][i].power2, expected[i].power2) << c << "/" << i;
    }
  }
}

// --- SsspOracle: one differential harness for every exact shortest-path
// search (DESIGN.md §2.4). A search answers d(source, t) for a list of
// targets; each answer must equal the dijkstra_costs_into row bit for bit.

/// d(source, targets[i]) into out[i].
using ExactSearch = std::function<void(std::uint32_t source, std::span<const std::uint32_t> targets,
                                       std::span<double> out)>;

struct SsspCase {
  std::string name;
  CsrGraph graph;
  std::vector<double> weights;
};

/// Both ends, the middle, and seeded picks; every vertex when n <= want.
std::vector<std::uint32_t> probe_ids(std::size_t n, std::size_t want, std::uint64_t seed) {
  std::vector<std::uint32_t> ids;
  if (n <= want) {
    for (std::uint32_t v = 0; v < n; ++v) ids.push_back(v);
    return ids;
  }
  ids = {0, static_cast<std::uint32_t>(n - 1), static_cast<std::uint32_t>(n / 2)};
  Rng rng = Rng::stream(seed, 0x555b, n);
  while (ids.size() < want) ids.push_back(static_cast<std::uint32_t>(rng.uniform_index(n)));
  return ids;
}

/// Run every registered search on `c` from `sources` — dijkstra_cost, the
/// rows of one batched dijkstra_many_into call, the chain sweep
/// (chain_costs_into and the rows of chain_many_into, whatever the
/// dispatch rule says of the graph), and LandmarkOracle::exact_cost under
/// the bracket's upper bound, over uniform and farthest-point oracles with
/// L in `landmark_counts` — and compare each answer bitwise with the
/// dijkstra_costs_into row of its source.
void expect_searches_match_dijkstra(const SsspCase& c, const std::vector<std::uint32_t>& sources,
                                    std::size_t num_targets,
                                    std::initializer_list<std::size_t> landmark_counts) {
  const CsrGraph& g = c.graph;
  const std::span<const double> w = c.weights;
  const std::size_t n = g.num_vertices();
  const std::vector<std::uint32_t> targets = probe_ids(n, num_targets, 2);

  std::vector<std::pair<std::string, ExactSearch>> searches;
  searches.emplace_back("dijkstra_cost", [&](std::uint32_t s, std::span<const std::uint32_t> ts,
                                             std::span<double> out) {
    DijkstraScratch scratch;
    for (std::size_t i = 0; i < ts.size(); ++i) out[i] = dijkstra_cost(g, s, ts[i], w, scratch);
  });
  std::vector<double> many(sources.size() * n);
  dijkstra_many_into(g, sources, w, many);
  searches.emplace_back("dijkstra_many_into", [&](std::uint32_t s,
                                                  std::span<const std::uint32_t> ts,
                                                  std::span<double> out) {
    const auto row = static_cast<std::size_t>(
        std::find(sources.begin(), sources.end(), s) - sources.begin());
    for (std::size_t i = 0; i < ts.size(); ++i) out[i] = many[row * n + ts[i]];
  });
  const ChainIndex chains(g);
  searches.emplace_back("chain_costs_into", [&](std::uint32_t s,
                                                std::span<const std::uint32_t> ts,
                                                std::span<double> out) {
    DijkstraScratch scratch;
    std::vector<double> row(n);
    chain_costs_into(g, chains, s, w, scratch, row);
    for (std::size_t i = 0; i < ts.size(); ++i) out[i] = row[ts[i]];
  });
  std::vector<double> chain_many(sources.size() * n);
  chain_many_into(g, chains, sources, w, chain_many);
  searches.emplace_back("chain_many_into", [&](std::uint32_t s,
                                               std::span<const std::uint32_t> ts,
                                               std::span<double> out) {
    const auto row = static_cast<std::size_t>(
        std::find(sources.begin(), sources.end(), s) - sources.begin());
    for (std::size_t i = 0; i < ts.size(); ++i) out[i] = chain_many[row * n + ts[i]];
  });
  std::deque<LandmarkOracle> oracles;
  for (const LandmarkSelection sel :
       {LandmarkSelection::kUniformRandom, LandmarkSelection::kFarthestPoint}) {
    for (const std::size_t num : landmark_counts) {
      const LandmarkOracle& oracle = oracles.emplace_back(
          LandmarkOracle::build(g, w, {.num_landmarks = num, .seed = 7, .selection = sel}));
      const char* pick = sel == LandmarkSelection::kUniformRandom ? "uniform" : "farthest";
      searches.emplace_back(
          std::string("exact_cost/") + pick + "/L=" + std::to_string(num),
          [&g, w, &oracle](std::uint32_t s, std::span<const std::uint32_t> ts,
                           std::span<double> out) {
            DijkstraScratch scratch;
            for (std::size_t i = 0; i < ts.size(); ++i) {
              const double upper = oracle.bounds(s, ts[i]).upper;
              out[i] = oracle.exact_cost(g, w, s, ts[i], upper, scratch);
            }
          });
    }
  }

  DijkstraScratch scratch;
  std::vector<double> rows(sources.size() * n);
  for (std::size_t k = 0; k < sources.size(); ++k) {
    dijkstra_costs_into(g, sources[k], w, scratch, std::span(rows).subspan(k * n, n));
  }
  std::vector<double> got(targets.size());
  for (const auto& [name, search] : searches) {
    std::size_t mismatches = 0;
    for (std::size_t k = 0; k < sources.size(); ++k) {
      search(sources[k], targets, got);
      for (std::size_t i = 0; i < targets.size(); ++i) {
        const double want = rows[k * n + targets[i]];
        if (std::bit_cast<std::uint64_t>(got[i]) != std::bit_cast<std::uint64_t>(want) &&
            mismatches++ == 0) {
          ADD_FAILURE() << c.name << ", " << name << ": d(" << sources[k] << ", " << targets[i]
                        << ") = " << got[i] << ", dijkstra_costs_into says " << want;
        }
      }
    }
    EXPECT_EQ(mismatches, 0u) << c.name << ", " << name;
  }
}

/// The harness from `num_sources` probe sources (both ends, the middle,
/// seeded picks).
void expect_searches_match_dijkstra(const SsspCase& c, std::size_t num_sources,
                                    std::size_t num_targets,
                                    std::initializer_list<std::size_t> landmark_counts = {1, 4, 16,
                                                                                          64}) {
  expect_searches_match_dijkstra(c, probe_ids(c.graph.num_vertices(), num_sources, 1),
                                 num_targets, landmark_counts);
}

/// A rows x cols 4-neighbor lattice; vertex id = r * cols + col.
CsrGraph lattice(std::uint32_t rows, std::uint32_t cols) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (std::uint32_t r = 0; r < rows; ++r) {
    for (std::uint32_t col = 0; col < cols; ++col) {
      const std::uint32_t v = r * cols + col;
      if (col + 1 < cols) edges.emplace_back(v, v + 1);
      if (r + 1 < rows) edges.emplace_back(v, v + cols);
    }
  }
  return CsrGraph::from_edges(static_cast<std::size_t>(rows) * cols, std::move(edges));
}

/// Symmetric seeded weight per edge {u, v}: lo * 10^(span * (x - 0.5)),
/// x uniform in [0, 1) from the pair's own stream.
std::vector<double> log_uniform_weights(const CsrGraph& g, double lo, double span,
                                        std::uint64_t seed) {
  return g.arc_weights([=](std::uint32_t u, std::uint32_t v) {
    Rng rng = Rng::stream(seed, std::min(u, v), std::max(u, v));
    return lo * std::pow(10.0, span * (rng.uniform() - 0.5));
  });
}

TEST(SsspOracle, SensOverlays) {
  for (const std::uint64_t seed : {3u, 8u}) {
    const UdgSensResult r = build_udg_sens(UdgTileSpec::strict(), 25.0, 12, 12, seed);
    const GeoGraph& geo = r.overlay.geo;
    ASSERT_GT(geo.size(), 100u);
    expect_searches_match_dijkstra({"udg-sens length", geo.graph, geo.length_arc_weights()}, 6,
                                   96);
    expect_searches_match_dijkstra({"udg-sens power", geo.graph, geo.power_arc_weights(2.0)}, 4,
                                   64, {4, 16});
  }
}

TEST(SsspOracle, SensOverlaySourceClasses) {
  // The chain sweep seeds each kind of source its own way: a branch goes
  // straight into the heap, a chain interior walks both ways, a tree node
  // walks up to its root first, and that root may itself sit inside a
  // chain. Sources from every class, on overlays that have them all.
  using testing_ref::ChainReference;
  for (const std::uint64_t seed : {3u, 8u}) {
    const UdgSensResult r = build_udg_sens(UdgTileSpec::strict(), 25.0, 12, 12, seed);
    const CsrGraph& g = r.overlay.geo.graph;
    const ChainReference ref = testing_ref::chain_reference(g);
    std::vector<std::uint32_t> branch, chain, chain_root, below_branch, below_chain_root;
    for (std::uint32_t v = 0; v < g.num_vertices(); ++v) {
      const std::uint32_t root = ref.root[v];
      if (ref.in_core(v)) {
        if (ref.core_degree[v] >= 3) {
          branch.push_back(v);
        } else {
          (g.degree(v) == 2 ? chain : chain_root).push_back(v);
        }
      } else if (root != ChainReference::kNone) {
        (ref.core_degree[root] == 2 ? below_chain_root : below_branch).push_back(v);
      }
    }
    std::vector<std::uint32_t> sources;
    for (const auto* cls : {&branch, &chain, &chain_root, &below_branch, &below_chain_root}) {
      ASSERT_GE(cls->size(), 3u) << "seed " << seed;
      for (std::size_t i = 0; i < 3; ++i) sources.push_back((*cls)[i * cls->size() / 3]);
    }
    const GeoGraph& geo = r.overlay.geo;
    expect_searches_match_dijkstra({"udg-sens length, by class", g, geo.length_arc_weights()},
                                   sources, 96, {4, 16});
    expect_searches_match_dijkstra({"udg-sens power, by class", g, geo.power_arc_weights(3.0)},
                                   sources, 96, {4});
  }
}

TEST(SsspOracle, HierarchicalNeighborGraphs) {
  const PointSet ps = poisson_point_set(Box{{0.0, 0.0}, {30.0, 30.0}}, 2.0, 0x55);
  const HngResult h = build_hng(ps.points, {.promote_p = 0.25, .k = 3}, 0x55);
  expect_searches_match_dijkstra({"hng length", h.geo.graph, h.geo.length_arc_weights()}, 6, 96);
  expect_searches_match_dijkstra({"hng power", h.geo.graph, h.geo.power_arc_weights(3.0)}, 4, 64,
                                 {4, 16});
}

TEST(SsspOracle, ExactAndNearTies) {
  // Integer weights on a lattice: every path sum is exact and shortest
  // paths tie everywhere; the margins must not break that.
  const CsrGraph g = lattice(24, 24);
  expect_searches_match_dijkstra({"unit lattice", g, g.arc_weights([](std::uint32_t,
                                                                      std::uint32_t) {
                                    return 1.0;
                                  })},
                                 6, 128);
  expect_searches_match_dijkstra(
      {"1/2 lattice", g, g.arc_weights([](std::uint32_t u, std::uint32_t v) {
         return (u + v) % 3 == 0 ? 0.5 : 1.0;
       })},
      6, 128);
  // Near ties, 1 + k 1e-15: paths differ by less than the heuristic's
  // rounding margin, so it is inconsistent and settled vertices must be
  // reopened (this case fails without the reopen rule).
  const TestGraph tg = make_graph(300, 300, 0x7e);
  expect_searches_match_dijkstra(
      {"near ties", tg.graph, tg.graph.arc_weights([](std::uint32_t u, std::uint32_t v) {
         return 1.0 + 1e-15 * static_cast<double>((std::min(u, v) * 7 + std::max(u, v)) % 8);
       })},
      6, 128);
}

TEST(SsspOracle, DuplicatePointsZeroLengthArcs) {
  // Every fourth point repeated (some three times): the UDG links each
  // copy to its twin by a zero-length arc.
  PointSet ps = poisson_point_set(Box{{0.0, 0.0}, {12.0, 12.0}}, 3.0, 0xd0);
  const std::size_t base = ps.points.size();
  for (std::size_t i = 0; i < base; i += 4) ps.points.push_back(ps.points[i]);
  for (std::size_t i = 0; i < base; i += 12) ps.points.push_back(ps.points[i]);
  const GeoGraph udg = build_udg(ps.points, Box{{0.0, 0.0}, {12.0, 12.0}});
  const std::vector<double> w = udg.length_arc_weights();
  ASSERT_TRUE(std::find(w.begin(), w.end(), 0.0) != w.end());
  expect_searches_match_dijkstra({"udg with duplicates", udg.graph, w}, 6, 128);
  // All-zero weights: every reachable distance is 0.
  expect_searches_match_dijkstra(
      {"zero lattice", lattice(8, 8),
       lattice(8, 8).arc_weights([](std::uint32_t, std::uint32_t) { return 0.0; })},
      4, 64);
}

TEST(SsspOracle, ExtremeWeights) {
  const TestGraph tg = make_graph(400, 300, 0xe7);
  const CsrGraph& g = tg.graph;
  // Log-uniform over [1e-300, 1e300], and each end of that range alone.
  expect_searches_match_dijkstra({"1e-300..1e300", g, log_uniform_weights(g, 1.0, 600.0, 1)}, 4,
                                 64);
  // Over 40 decades the heuristic's rounding is larger than many arcs.
  expect_searches_match_dijkstra({"1e-20..1e20", g, log_uniform_weights(g, 1.0, 40.0, 6)}, 6, 128);
  expect_searches_match_dijkstra({"near 1e-300", g, log_uniform_weights(g, 1e-300, 1.0, 2)}, 6,
                                 128);
  expect_searches_match_dijkstra({"near 1e300", g, log_uniform_weights(g, 1e300, 1.0, 3)}, 6, 128);
  // Sums past DBL_MAX: far vertices are reached at kInfCost, and labels
  // overflow on one side of a pair only.
  expect_searches_match_dijkstra({"overflowing", g, log_uniform_weights(g, 1e306, 1.0, 4)}, 6,
                                 128);
}

TEST(SsspOracle, LongPath) {
  // 10^5 hops: the margin must grow with the hop count, and a label sums
  // the path from the other end than the search does.
  constexpr std::uint32_t kHops = 100'000;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (std::uint32_t i = 0; i < kHops; ++i) edges.emplace_back(i, i + 1);
  const CsrGraph g = CsrGraph::from_edges(kHops + 1, std::move(edges));
  expect_searches_match_dijkstra({"path", g, log_uniform_weights(g, 1.0, 0.5, 5)}, 3, 8,
                                 {1, 4, 16});
}

TEST(SsspOracle, DisconnectedPartsAndBranchlessCycles) {
  // Cycles of 60, 7 and 3 nodes (no node of degree >= 3), a 20-node path,
  // two isolated nodes: most landmarks see one part only, and a part with
  // no landmark searches with h = 0.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  std::uint32_t next = 0;
  for (const std::uint32_t len : {60u, 7u, 3u}) {
    for (std::uint32_t i = 0; i < len; ++i) edges.emplace_back(next + i, next + (i + 1) % len);
    next += len;
  }
  for (std::uint32_t i = 0; i + 1 < 20; ++i) edges.emplace_back(next + i, next + i + 1);
  next += 20;
  const CsrGraph g = CsrGraph::from_edges(next + 2, std::move(edges));
  expect_searches_match_dijkstra({"parts", g, g.arc_weights(edge_weight)}, 16, 128);
  expect_searches_match_dijkstra(
      {"parts, unit", g, g.arc_weights([](std::uint32_t, std::uint32_t) { return 1.0; })}, 16,
      128);
}

TEST(ServeFallbackWork, GoalDirectedFallbackPopsFiveTimesFewer) {
#if !SENS_OBS_ENABLED
  GTEST_SKIP() << "work counters compiled out";
#else
  // A fixed HNG, served the way churn_20k serves: 16 farthest-point
  // landmarks, stretch 1.25. The heap pops of serve_batch's fallbacks
  // must be at least 5x below plain dijkstra_cost on the same pairs.
  const PointSet ps = poisson_point_set(Box{{0.0, 0.0}, {50.0, 50.0}}, 4.0, 0x23);
  const HngResult h = build_hng(ps.points, {.promote_p = 0.25, .k = 3}, 0x23);
  const std::vector<double> weights = h.geo.length_arc_weights();
  const QueryEngine engine(h.geo.graph, weights,
                           {.num_landmarks = 16,
                            .max_stretch = 1.25,
                            .seed = 0x23,
                            .selection = LandmarkSelection::kFarthestPoint});
  const auto qs = make_queries(1024, h.geo.size(), 0x23);
  auto& reg = obs::CounterRegistry::global();
  reg.reset();
  std::vector<double> served(qs.size());
  std::vector<Verdict> verdicts(qs.size());
  (void)serve_batch(h.geo.graph, weights, engine.oracle(), engine.max_stretch(), qs,
                    served, verdicts);
  const std::uint64_t fallbacks = counter(obs::Counter::kOracleFallback);
  const std::uint64_t search_pops = counter(obs::Counter::kDijkstraHeapPops);

  reg.reset();
  DijkstraScratch scratch;
  std::uint64_t pairs = 0;
  for (std::size_t i = 0; i < qs.size(); ++i) {
    if (engine.oracle().bounds(qs[i].src, qs[i].dst).certifies(engine.max_stretch())) continue;
    ++pairs;
    EXPECT_EQ(dijkstra_cost(h.geo.graph, qs[i].src, qs[i].dst, weights, scratch),
              served[i])
        << "query " << i;
  }
  const std::uint64_t dijkstra_pops = counter(obs::Counter::kDijkstraHeapPops);
  EXPECT_EQ(pairs, fallbacks);
  ASSERT_GE(fallbacks, 50u);
  EXPECT_LE(5 * search_pops, dijkstra_pops)
      << search_pops << " search pops vs " << dijkstra_pops << " Dijkstra pops over " << fallbacks
      << " fallbacks";
#endif
}

}  // namespace
}  // namespace sens
