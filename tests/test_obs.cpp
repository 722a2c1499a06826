// Tests for the observability layer (DESIGN.md §2.10). The heart of the
// suite is the determinism contract: every *work counter* is a pure
// function of (seed, workload), so registry totals must be bit-identical at
// --threads 1/2/8 for the instrumented kernels (dijkstra_many_into /
// bfs_many_into, GridKnn batches, and an EpochQueryEngine churn replay).
// The timing classes (LatencyHistogram, TraceLog) are tested for shape
// only — their values are machine-dependent by design and banned from
// `--json`. The whole Obs* set is the `obs` ctest tier.
//
// Exact-count assertions are gated on SENS_OBS_ENABLED so this suite also
// passes in the compiled-out build (where the registry exists but no kernel
// flushes into it).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <thread>
#include <vector>

#include "sens/core/nn_sens.hpp"
#include "sens/core/udg_sens.hpp"
#include "sens/dynamic/dynamic_hng.hpp"
#include "sens/geograph/knn.hpp"
#include "sens/geograph/point_set.hpp"
#include "sens/geograph/udg.hpp"
#include "sens/graph/bfs.hpp"
#include "sens/graph/chain_sweep.hpp"
#include "sens/graph/dijkstra.hpp"
#include "sens/hng/hng.hpp"
#include "sens/obs/obs.hpp"
#include "sens/rng/rng.hpp"
#include "sens/serve/epoch_engine.hpp"
#include "sens/serve/landmark_oracle.hpp"
#include "sens/serve/query_engine.hpp"
#include "sens/support/parallel.hpp"
#include "sens/support/timer.hpp"

#include "chain_reference.hpp"

namespace sens {
namespace {

constexpr std::uint64_t kSeed = 0x0b5e55edULL;

/// Registry total of counter `c` (summed over every thread's block).
std::uint64_t counter(obs::Counter c) {
  return obs::CounterRegistry::global().snapshot()[static_cast<std::size_t>(c)];
}

// --- LatencyHistogram (timing class: shape only) ---------------------------

TEST(ObsHistogram, EmptyIsZero) {
  const obs::LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile_ns(0.5), 0u);
  EXPECT_EQ(h.percentile_ns(1.0), 0u);
}

TEST(ObsHistogram, PercentilesBracketSamplesWithinBucketResolution) {
  obs::LatencyHistogram h;
  for (std::uint64_t ns : {100u, 200u, 400u, 800u, 1600u, 3200u, 6400u, 12800u}) {
    h.record(ns);
  }
  EXPECT_EQ(h.count(), 8u);
  // Log2 buckets: each percentile is the upper edge of its bucket, so it
  // overshoots the true sample by at most 2x and never leaves [min, max].
  const std::uint64_t p50 = h.percentile_ns(0.50);
  const std::uint64_t p95 = h.percentile_ns(0.95);
  const std::uint64_t p99 = h.percentile_ns(0.99);
  EXPECT_GE(p50, 400u);
  EXPECT_LE(p50, 1023u);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(p99, 12800u);
  EXPECT_EQ(h.percentile_ns(1.0), 12800u);  // the observed max
}

TEST(ObsHistogram, ZeroSamplesLandInBucketZero) {
  obs::LatencyHistogram h;
  h.record(0);
  h.record(0);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.percentile_ns(0.5), 0u);
  EXPECT_EQ(h.percentile_ns(1.0), 0u);
}

// --- CounterRegistry -------------------------------------------------------

TEST(ObsRegistry, AddSnapshotResetRoundTrip) {
  auto& reg = obs::CounterRegistry::global();
  reg.reset();
  reg.add(obs::Counter::kBfsRuns, 3);
  reg.add(obs::Counter::kBfsVisits, 41);
  reg.add(obs::Counter::kBfsVisits, 1);
  EXPECT_EQ(counter(obs::Counter::kBfsRuns), 3u);
  EXPECT_EQ(counter(obs::Counter::kBfsVisits), 42u);
  reg.reset();
  const obs::CounterSnapshot zero = reg.snapshot();
  for (const std::uint64_t v : zero) EXPECT_EQ(v, 0u);
}

TEST(ObsRegistry, SumsExactlyAcrossForeignThreads) {
  auto& reg = obs::CounterRegistry::global();
  reg.reset();
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        reg.add(obs::Counter::kGridKnnCandidates, 1);
      }
    });
  }
  for (auto& t : threads) t.join();
  // uint64 sums commute: the total is exact no matter which thread's block
  // absorbed which increment.
  EXPECT_EQ(counter(obs::Counter::kGridKnnCandidates), kThreads * kPerThread);
}

TEST(ObsRegistry, CounterNamesAreUniqueAndStable) {
  std::vector<std::string> names;
  for (std::size_t i = 0; i < obs::kCounterCount; ++i) {
    names.emplace_back(obs::counter_name(static_cast<obs::Counter>(i)));
  }
  std::vector<std::string> sorted = names;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end())
      << "duplicate counter name";
  EXPECT_EQ(names.front(), "dijkstra_runs");
  for (const std::string& n : names) EXPECT_NE(n, "unknown");
}

// --- work-counter determinism across --threads (the §2.10 contract) --------

/// Reset the registry, run `workload` under `threads` workers, and return
/// the accumulated totals (thread count restored to serial afterwards).
template <typename Fn>
obs::CounterSnapshot counters_at_threads(unsigned threads, Fn&& workload) {
  set_thread_count(threads);
  obs::CounterRegistry::global().reset();
  workload();
  set_thread_count(1);
  return obs::CounterRegistry::global().snapshot();
}

template <typename Fn>
void expect_thread_invariant(Fn&& workload, bool expect_nonzero) {
  const obs::CounterSnapshot base = counters_at_threads(1, workload);
  for (unsigned threads : {2u, 8u}) {
    const obs::CounterSnapshot got = counters_at_threads(threads, workload);
    for (std::size_t i = 0; i < obs::kCounterCount; ++i) {
      EXPECT_EQ(got[i], base[i]) << "counter "
                                 << obs::counter_name(static_cast<obs::Counter>(i))
                                 << " at --threads " << threads;
    }
  }
  if (expect_nonzero) {
    std::uint64_t total = 0;
    for (const std::uint64_t v : base) total += v;
#if SENS_OBS_ENABLED
    EXPECT_GT(total, 0u) << "instrumented workload tallied nothing";
#else
    EXPECT_EQ(total, 0u) << "compiled-out build must tally nothing";
#endif
  }
}

/// Shared workload: a connected-ish Poisson UDG (the E7/E17 shape).
GeoGraph make_udg(double side = 9.0, double lambda = 4.0) {
  const Box window{{0.0, 0.0}, {side, side}};
  const PointSet ps = poisson_point_set(window, lambda, kSeed);
  return build_udg(ps.points, window, 1.0);
}

TEST(ObsCounters, DijkstraManyIsThreadInvariant) {
  const GeoGraph geo = make_udg();
  const std::vector<double> w = geo.graph.arc_weights(
      [&](std::uint32_t u, std::uint32_t v) { return dist(geo.points[u], geo.points[v]); });
  std::vector<std::uint32_t> sources;
  for (std::uint32_t s = 0; s < geo.size(); s += 7) sources.push_back(s);
  std::vector<double> out(sources.size() * geo.size());
  expect_thread_invariant(
      [&] { dijkstra_many_into(geo.graph, sources, w, out); }, /*expect_nonzero=*/true);
}

TEST(ObsCounters, OracleBuildIsThreadInvariant) {
  // Both label sweeps, and the farthest-point pick on each: a UDG-SENS
  // overlay takes the chain sweep, an HNG the plain one (DESIGN.md §2.6).
  const UdgSensResult sens = build_udg_sens(UdgTileSpec::strict(), 25.0, 8, 8, kSeed);
  const PointSet ps = poisson_point_set(Box{{0.0, 0.0}, {12.0, 12.0}}, 2.0, kSeed);
  const HngResult hng = build_hng(ps.points, {.promote_p = 0.25, .k = 3}, kSeed);
  for (const GeoGraph* geo : {&sens.overlay.geo, &hng.geo}) {
    const std::vector<double> w = geo->length_arc_weights();
    for (const LandmarkSelection sel :
         {LandmarkSelection::kUniformRandom, LandmarkSelection::kFarthestPoint}) {
      expect_thread_invariant(
          [&] {
            (void)LandmarkOracle::build(geo->graph, w,
                                        {.num_landmarks = 12, .seed = kSeed, .selection = sel});
          },
          /*expect_nonzero=*/true);
    }
  }
}

TEST(ObsCounters, BfsManyIsThreadInvariant) {
  const GeoGraph geo = make_udg();
  std::vector<std::uint32_t> sources;
  for (std::uint32_t s = 0; s < geo.size(); s += 11) sources.push_back(s);
  std::vector<std::uint32_t> out(sources.size() * geo.size());
  expect_thread_invariant(
      [&] { bfs_many_into(geo.graph, sources, out); }, /*expect_nonzero=*/true);
}

TEST(ObsCounters, GridKnnBatchIsThreadInvariant) {
  const Box window{{0.0, 0.0}, {9.0, 9.0}};
  const PointSet ps = poisson_point_set(window, 5.0, kSeed);
  expect_thread_invariant(
      [&] { (void)knn_selections_flat(ps.points, 6); }, /*expect_nonzero=*/true);
}

TEST(ObsCounters, NnLinkTestIsThreadInvariant) {
  // The NN-SENS link test counts the points its visitor is offered; each
  // prescribed pair's count depends only on the data, so the chunk-parallel
  // pass over the pairs must tally the same total at any thread count.
  const NnSensResult r = build_nn_sens(NnTileSpec::paper(), 6, 6, kSeed);
  expect_thread_invariant(
      [&] { (void)build_nn_overlay(r.classification, r.points.points); },
      /*expect_nonzero=*/true);
#if SENS_OBS_ENABLED
  EXPECT_GT(counter(obs::Counter::kNnLinkPointsCounted), 0u);
#endif
}

TEST(ObsCounters, EpochChurnReplayIsThreadInvariant) {
  // The full churn-serving cycle: bulk build, churn events, journal replay,
  // then a served batch — every instrumented kernel fires (k-NN linking in
  // the maintainer, Dijkstra label sweeps in the oracle, verdict counts in
  // serve), and the whole composition must stay bit-identical.
  const Box window{{0.0, 0.0}, {7.0, 7.0}};
  const PointSet ps = poisson_point_set(window, 4.0, kSeed);
  const std::vector<Vec2> pts(ps.points.begin(),
                              ps.points.begin() +
                                  static_cast<std::ptrdiff_t>(std::min<std::size_t>(
                                      140, ps.points.size())));
  expect_thread_invariant(
      [&] {
        DynamicHng dyn(pts, HngParams{.promote_p = 0.25, .k = 3, .max_level = 48}, kSeed);
        EpochQueryEngine engine(dyn, EpochEngineParams{.num_landmarks = 6, .seed = kSeed});
        Rng rng = Rng::stream(kSeed, 0xc4u);
        for (int ev = 0; ev < 20; ++ev) {
          if (dyn.size() > 60 && rng.bernoulli(0.5)) {
            dyn.remove(static_cast<std::uint32_t>(rng.uniform_index(dyn.size())));
          } else {
            dyn.insert(Vec2{rng.uniform(0.0, 7.0), rng.uniform(0.0, 7.0)});
          }
        }
        (void)engine.refresh();
        std::vector<Query> queries;
        Rng qrng = Rng::stream(kSeed, 0x9eu);
        for (int i = 0; i < 256; ++i) {
          queries.push_back(Query{
              static_cast<std::uint32_t>(qrng.uniform_index(engine.graph().num_vertices())),
              static_cast<std::uint32_t>(qrng.uniform_index(engine.graph().num_vertices()))});
        }
        std::vector<double> out(queries.size());
        std::vector<Verdict> verdicts(queries.size());
        (void)engine.serve(queries, out, verdicts);
      },
      /*expect_nonzero=*/true);
}

#if SENS_OBS_ENABLED

// --- exact counts pin the counter semantics --------------------------------

TEST(ObsCounters, BfsCountsVisitsOnAPath) {
  // 0-1-2-3-4 path: a full BFS from 0 labels all 5 vertices.
  const CsrGraph g = CsrGraph::from_edges(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  auto& reg = obs::CounterRegistry::global();
  BfsScratch scratch;
  std::vector<std::uint32_t> out(g.num_vertices());
  reg.reset();
  bfs_distances_into(g, 0, scratch, out);
  EXPECT_EQ(counter(obs::Counter::kBfsRuns), 1u);
  EXPECT_EQ(counter(obs::Counter::kBfsVisits), 5u);
}

TEST(ObsCounters, DijkstraCountsPopsAndRelaxations) {
  // Same path graph, unit weights: a full run settles all 5 vertices and
  // examines every arc once per settle (8 directed arcs).
  const CsrGraph g = CsrGraph::from_edges(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  const std::vector<double> w(g.num_arcs(), 1.0);
  auto& reg = obs::CounterRegistry::global();
  DijkstraScratch scratch;
  std::vector<double> out(g.num_vertices());
  reg.reset();
  dijkstra_costs_into(g, 0, w, scratch, out);
  EXPECT_EQ(counter(obs::Counter::kDijkstraRuns), 1u);
  EXPECT_EQ(counter(obs::Counter::kDijkstraHeapPops), 5u);
  EXPECT_EQ(counter(obs::Counter::kDijkstraRelaxedArcs), 8u);
}

TEST(ObsCounters, ChainSweepCountsBranchPopsAndSummedArcs) {
  // Branches 0 and 1 joined directly, through 2 and through 3-4; the tree
  // 5-6 hangs from the chain interior 2. One run per source, one pop per
  // branch (2), and one relaxed arc per arc weight summed: each branch
  // walks its 3 super arcs (1 + 2 + 3 arcs) and the fill sums the 2 tree
  // arcs. From 6, the up-path (2 arcs) and the two walks out of 2 (1 arc
  // each) come first.
  const CsrGraph g = CsrGraph::from_edges(
      7, {{0, 2}, {2, 1}, {0, 3}, {3, 4}, {4, 1}, {0, 1}, {2, 5}, {5, 6}});
  const std::vector<double> w(g.num_arcs(), 1.0);
  const ChainIndex chains(g);
  auto& reg = obs::CounterRegistry::global();
  DijkstraScratch scratch;
  std::vector<double> out(g.num_vertices());
  for (const auto& [source, relaxed] : {std::pair{0u, 14u}, std::pair{6u, 18u}}) {
    reg.reset();
    chain_costs_into(g, chains, source, w, scratch, out);
    EXPECT_EQ(counter(obs::Counter::kDijkstraRuns), 1u) << "source " << source;
    EXPECT_EQ(counter(obs::Counter::kDijkstraHeapPops), 2u) << "source " << source;
    EXPECT_EQ(counter(obs::Counter::kDijkstraRelaxedArcs), relaxed) << "source " << source;
  }
}

TEST(ObsCounters, OracleSweepFollowsTheDegreeRule) {
  // An HNG has few vertices of degree <= 2: build_with runs the plain
  // sweep, so its work equals dijkstra_many_into over the same landmarks.
  const PointSet ps = poisson_point_set(Box{{0.0, 0.0}, {20.0, 20.0}}, 2.0, kSeed);
  const HngResult hng = build_hng(ps.points, {.promote_p = 0.25, .k = 3}, kSeed);
  const CsrGraph& h = hng.geo.graph;
  ASSERT_FALSE(chains_dominate(h));
  const std::vector<double> hw = hng.geo.length_arc_weights();
  std::vector<std::uint32_t> picks;
  for (std::uint32_t v = 0; v < h.num_vertices(); v += 97) picks.push_back(v);
  auto& reg = obs::CounterRegistry::global();
  reg.reset();
  (void)LandmarkOracle::build_with(h, hw, picks);
  const obs::CounterSnapshot oracle = reg.snapshot();
  std::vector<double> rows(picks.size() * h.num_vertices());
  reg.reset();
  dijkstra_many_into(h, picks, hw, rows);
  const obs::CounterSnapshot plain = reg.snapshot();
  for (const obs::Counter c : {obs::Counter::kDijkstraRuns, obs::Counter::kDijkstraHeapPops,
                               obs::Counter::kDijkstraRelaxedArcs}) {
    EXPECT_EQ(oracle[static_cast<std::size_t>(c)], plain[static_cast<std::size_t>(c)])
        << obs::counter_name(c);
  }

  // A UDG-SENS overlay is mostly relays: the chain sweep pops branch
  // nodes only, at most once each per landmark.
  const UdgSensResult sens = build_udg_sens(UdgTileSpec::strict(), 25.0, 10, 10, kSeed);
  const CsrGraph& g = sens.overlay.geo.graph;
  ASSERT_TRUE(chains_dominate(g));
  const std::vector<double> w = sens.overlay.geo.length_arc_weights();
  const std::size_t branches = testing_ref::chain_reference(g).branches;
  ASSERT_GT(branches, 0u);
  ASSERT_LT(5 * branches, g.num_vertices());
  for (std::uint32_t l = 0; l < g.num_vertices(); l += 61) {
    reg.reset();
    (void)LandmarkOracle::build_with(g, w, {l});
    EXPECT_EQ(counter(obs::Counter::kDijkstraRuns), 1u) << "landmark " << l;
    EXPECT_LE(counter(obs::Counter::kDijkstraHeapPops), branches) << "landmark " << l;
  }
}

/// The serve-kernel counter contract, shared by both engines: verdicts are
/// disjoint, the certified/disconnected counters equal those verdict
/// counts, and every fallback is one Dijkstra run (nothing else in a serve
/// call runs Dijkstra).
void expect_serve_counters_match(const ServeStats& stats, std::span<const Verdict> verdicts) {
  EXPECT_EQ(stats.queries, verdicts.size());
  EXPECT_EQ(stats.exact + stats.certified + stats.disconnected + stats.stale, stats.queries);
  auto count = [&](Verdict v) {
    return static_cast<std::size_t>(std::count(verdicts.begin(), verdicts.end(), v));
  };
  EXPECT_EQ(stats.exact, count(Verdict::kExact));
  EXPECT_EQ(stats.certified, count(Verdict::kCertified));
  EXPECT_EQ(stats.disconnected, count(Verdict::kDisconnected));
  EXPECT_EQ(stats.stale, count(Verdict::kStale));
  EXPECT_EQ(counter(obs::Counter::kOracleCertified), stats.certified);
  EXPECT_EQ(counter(obs::Counter::kOracleDisconnected), stats.disconnected);
  EXPECT_EQ(counter(obs::Counter::kOracleFallback), counter(obs::Counter::kDijkstraRuns));
  EXPECT_GT(counter(obs::Counter::kOracleFallback), 0u);
  EXPECT_LE(counter(obs::Counter::kOracleFallback), stats.exact + stats.disconnected);
}

TEST(ObsCounters, ServeVerdictsMatchServeStats) {
  const GeoGraph geo = make_udg();
  const std::vector<double> w = geo.graph.arc_weights(
      [&](std::uint32_t u, std::uint32_t v) { return dist(geo.points[u], geo.points[v]); });
  const QueryEngine engine(geo.graph, w,
                           QueryEngineParams{.num_landmarks = 8, .seed = kSeed});
  std::vector<Query> queries;
  Rng rng = Rng::stream(kSeed, 0x7au);
  for (int i = 0; i < 300; ++i) {
    queries.push_back(
        Query{static_cast<std::uint32_t>(rng.uniform_index(geo.size())),
              static_cast<std::uint32_t>(rng.uniform_index(geo.size()))});
  }
  // The verdicts behind estimate_distances, from the same kernel.
  std::vector<double> with_verdicts(queries.size());
  std::vector<Verdict> verdicts(queries.size());
  (void)serve_batch(geo.graph, w, engine.oracle(), engine.max_stretch(),
                    queries, with_verdicts, verdicts);
  std::vector<double> out(queries.size());
  auto& reg = obs::CounterRegistry::global();
  reg.reset();
  const ServeStats stats = engine.estimate_distances(queries, out);
  EXPECT_EQ(out, with_verdicts);
  expect_serve_counters_match(stats, verdicts);
  // Disconnected verdicts are exactly the inf answers.
  std::size_t inf = 0;
  for (const double d : out) inf += d >= kInfCost ? 1 : 0;
  EXPECT_EQ(stats.disconnected, inf);
}

TEST(ObsCounters, EpochServeVerdictsMatchServeStats) {
  DynamicHng dyn(poisson_point_set(Box{{0.0, 0.0}, {9.0, 9.0}}, 3.0, kSeed).points,
                 HngParams{.promote_p = 0.25, .k = 3, .max_level = 48}, kSeed);
  const EpochQueryEngine engine(dyn, EpochEngineParams{.num_landmarks = 6, .seed = kSeed});
  std::vector<Query> queries;
  Rng rng = Rng::stream(kSeed, 0x7bu);
  for (int i = 0; i < 300; ++i) {
    queries.push_back(  // ids up to n + 4: a few stale
        Query{static_cast<std::uint32_t>(rng.uniform_index(dyn.size() + 5)),
              static_cast<std::uint32_t>(rng.uniform_index(dyn.size() + 5))});
  }
  std::vector<double> out(queries.size());
  std::vector<Verdict> verdicts(queries.size());
  auto& reg = obs::CounterRegistry::global();
  reg.reset();
  const ServeStats stats = engine.serve(queries, out, verdicts);
  EXPECT_GT(stats.stale, 0u);
  expect_serve_counters_match(stats, verdicts);
}

#endif  // SENS_OBS_ENABLED

// --- spans + trace export (timing class: shape only) -----------------------

TEST(ObsTrace, ScopedSpanFeedsTotalsWhenEnabled) {
  auto& log = obs::TraceLog::global();
  log.clear();
  log.enable(/*keep_events=*/false);
  {
    const ScopedSpan outer("obs-test/outer");
    const ScopedSpan inner("obs-test/inner");
  }
  { const ScopedSpan outer("obs-test/outer"); }
  log.disable();
  { const ScopedSpan ignored("obs-test/after-disable"); }
  const auto totals = log.totals();
  ASSERT_EQ(totals.size(), 2u);
  // First-seen order; spans record at destruction, so inner lands first.
  EXPECT_EQ(totals[0].name, "obs-test/inner");
  EXPECT_EQ(totals[0].count, 1u);
  EXPECT_EQ(totals[1].name, "obs-test/outer");
  EXPECT_EQ(totals[1].count, 2u);
  EXPECT_EQ(log.event_count(), 0u) << "keep_events=false must not retain events";
  log.clear();
}

TEST(ObsTrace, ChromeTraceExportIsWellFormed) {
  auto& log = obs::TraceLog::global();
  log.clear();
  log.enable(/*keep_events=*/true);
  {
    const ScopedSpan a("phase-a");
    const ScopedSpan b("phase-b");
  }
  log.disable();
  EXPECT_EQ(log.event_count(), 2u);
  std::ostringstream out;
  log.write_chrome_trace(out);
  const std::string doc = out.str();
  EXPECT_NE(doc.find("{\"traceEvents\":["), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"phase-a\""), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"phase-b\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_EQ(doc.back(), '\n');
  log.clear();
}

TEST(ObsTrace, MonotonicClockNeverGoesBackwards) {
  std::uint64_t prev = monotonic_ns();
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t now = monotonic_ns();
    ASSERT_GE(now, prev);
    prev = now;
  }
}

}  // namespace
}  // namespace sens
