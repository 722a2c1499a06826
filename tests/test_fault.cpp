// Tests for sens/fault and the epoch serving path (DESIGN.md §2.9): pure
// per-entity fault draws, the full-rebuild oracle over survivors, replay
// bit-identity across thread counts, apply_edge_delta drain/regrow edge
// cases, the degradation audit, and the EpochQueryEngine's
// zero-uncertified-wrong verdict contract under churn. The FaultInjector /
// FaultOracle / FaultDelta / FaultThreads / Degradation / EpochEngine
// suites are the `fault` ctest tier (ASan CI job, `ctest --preset
// asan-fault`).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sens/dynamic/dynamic_hng.hpp"
#include "sens/fault/degradation.hpp"
#include "sens/fault/fault_plan.hpp"
#include "sens/geograph/point_set.hpp"
#include "sens/geograph/udg.hpp"
#include "sens/graph/bfs.hpp"
#include "sens/graph/components.hpp"
#include "sens/graph/dijkstra.hpp"
#include "sens/rng/rng.hpp"
#include "sens/serve/epoch_engine.hpp"
#include "sens/serve/query_engine.hpp"
#include "sens/support/parallel.hpp"

namespace sens {
namespace {

constexpr std::uint64_t kSeed = 0xfa177e57ULL;

/// A point's coordinates as a pair, for exact comparisons.
std::pair<double, double> xy(Vec2 v) { return {v.x, v.y}; }

/// Shared workload: a Poisson UDG dense enough to be connected.
GeoGraph make_udg(double side = 14.0, double lambda = 4.0, std::uint64_t seed = kSeed) {
  const Box window{{0.0, 0.0}, {side, side}};
  const PointSet ps = poisson_point_set(window, lambda, seed);
  return build_udg(ps.points, window, 1.0);
}

/// The full-rebuild oracle: filter the original edge list down to the
/// survivors minus the failed links, relabel with the injector's monotone
/// survivor map, rebuild from scratch.
CsrGraph rebuild_over_survivors(const GeoGraph& geo, const FaultInjector& inj,
                                const FaultedGraph& faulted) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (const auto& [u, v] : geo.graph.edge_list()) {
    if (faulted.new_id[u] == FaultedGraph::kDead) continue;
    if (faulted.new_id[v] == FaultedGraph::kDead) continue;
    if (inj.link_fails(u, v)) continue;
    edges.emplace_back(faulted.new_id[u], faulted.new_id[v]);
  }
  return CsrGraph::from_edges(faulted.survivor.size(), std::move(edges));
}

TEST(FaultInjector, EmptyPlanKillsNothing) {
  const GeoGraph geo = make_udg(8.0);
  const FaultInjector inj{FaultPlan{}};
  const FaultedGraph faulted = apply_faults(geo, inj);
  EXPECT_EQ(faulted.nodes_failed, 0u);
  EXPECT_EQ(faulted.edges_lost_endpoint, 0u);
  EXPECT_EQ(faulted.edges_lost_link, 0u);
  ASSERT_EQ(faulted.survivor.size(), geo.size());
  EXPECT_EQ(faulted.geo.graph.edge_list(), geo.graph.edge_list());
  for (std::size_t i = 0; i < geo.size(); ++i) {
    EXPECT_EQ(faulted.survivor[i], i);
    EXPECT_EQ(faulted.new_id[i], i);
  }
}

TEST(FaultInjector, DrawsArePureAndSymmetric) {
  FaultPlan plan;
  plan.node_crash = 0.3;
  plan.link_failure = 0.25;
  plan.seed = 77;
  const FaultInjector a{plan};
  const FaultInjector b{plan};
  // Evaluate b in reverse order first: per-entity streams mean the order
  // of draws cannot matter.
  std::vector<bool> reversed(500);
  for (std::uint32_t id = 500; id-- > 0;) reversed[id] = b.node_crashes(id);
  std::size_t crashed = 0;
  for (std::uint32_t id = 0; id < 500; ++id) {
    EXPECT_EQ(a.node_crashes(id), reversed[id]);
    if (a.node_crashes(id)) ++crashed;
  }
  EXPECT_GT(crashed, 100u);  // ~150 expected at p = 0.3
  EXPECT_LT(crashed, 200u);
  for (std::uint32_t u = 0; u < 40; ++u) {
    for (std::uint32_t v = u + 1; v < 40; ++v) {
      EXPECT_EQ(a.link_fails(u, v), a.link_fails(v, u));
    }
  }
}

TEST(FaultInjector, BlackoutKillsExactlyTheContainedNodes) {
  const GeoGraph geo = make_udg(10.0);
  FaultPlan plan;
  plan.blackouts.push_back(Box{{2.0, 2.0}, {6.0, 5.0}});
  plan.blackouts.push_back(Box{{7.5, 7.5}, {9.0, 9.5}});
  const FaultInjector inj{plan};
  const FaultedGraph faulted = apply_faults(geo, inj);
  std::size_t inside = 0;
  for (std::size_t i = 0; i < geo.size(); ++i) {
    const bool dead = faulted.new_id[i] == FaultedGraph::kDead;
    EXPECT_EQ(dead, inj.node_blacked_out(geo.points[i])) << "node " << i;
    if (dead) ++inside;
  }
  EXPECT_GT(inside, 0u);
  EXPECT_EQ(faulted.nodes_failed, inside);
}

TEST(FaultInjector, TotalCrashLeavesNothing) {
  const GeoGraph geo = make_udg(6.0);
  FaultPlan plan;
  plan.node_crash = 1.0;
  const FaultedGraph faulted = apply_faults(geo, FaultInjector{plan});
  EXPECT_EQ(faulted.survivor.size(), 0u);
  EXPECT_EQ(faulted.geo.graph.num_vertices(), 0u);
  EXPECT_EQ(faulted.nodes_failed, geo.size());
  EXPECT_EQ(faulted.edges_lost_endpoint, geo.graph.num_edges());
}

// --- plan validation: a meaningless plan throws at construction --------

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(FaultInjector, RejectsNodeCrashOutsideUnitInterval) {
  for (const double p : {kNan, kInf, -kInf, -0.1, 1.5}) {
    FaultPlan plan;
    plan.node_crash = p;
    EXPECT_THROW(FaultInjector{plan}, std::invalid_argument) << "node_crash " << p;
  }
}

TEST(FaultInjector, RejectsLinkFailureOutsideUnitInterval) {
  for (const double p : {kNan, kInf, -kInf, -1e-9, 1.0000001}) {
    FaultPlan plan;
    plan.link_failure = p;
    EXPECT_THROW(FaultInjector{plan}, std::invalid_argument) << "link_failure " << p;
  }
}

TEST(FaultInjector, RejectsNonFiniteBlackoutCorners) {
  for (const double bad : {kNan, kInf, -kInf}) {
    for (int corner = 0; corner < 4; ++corner) {
      Box box{{1.0, 1.0}, {2.0, 2.0}};
      double* coords[] = {&box.lo.x, &box.lo.y, &box.hi.x, &box.hi.y};
      *coords[corner] = bad;
      FaultPlan plan;
      plan.blackouts = {Box{{0.0, 0.0}, {1.0, 1.0}}, box};
      EXPECT_THROW(FaultInjector{plan}, std::invalid_argument)
          << "corner " << corner << " = " << bad;
    }
  }
}

TEST(FaultInjector, RejectsInvertedBlackoutBox) {
  for (const Box& box : {Box{{3.0, 1.0}, {2.0, 2.0}}, Box{{1.0, 3.0}, {2.0, 2.0}}}) {
    FaultPlan plan;
    plan.blackouts = {box};
    EXPECT_THROW(FaultInjector{plan}, std::invalid_argument);
  }
}

// The closed ends of the ranges stay legal, as do the plans the benches
// build: certain death, a zero-area box, and E19's compound plan.
TEST(FaultInjector, AcceptsBoundaryPlans) {
  FaultPlan plan;
  plan.node_crash = 1.0;
  plan.link_failure = 0.0;
  plan.blackouts = {Box{{2.0, 2.0}, {2.0, 2.0}}, Box{{-5.0, -1.0}, {5.0, 21.0}}};
  EXPECT_NO_THROW(FaultInjector{plan});
  plan.node_crash = 0.0;
  plan.link_failure = 1.0;
  EXPECT_NO_THROW(FaultInjector{plan});
  FaultPlan compound;
  compound.node_crash = 0.05;
  compound.link_failure = 0.15;
  compound.blackouts = {Box{{8.0, -1.0}, {12.0, 21.0}}};
  EXPECT_NO_THROW(FaultInjector{compound});
}

TEST(FaultOracle, MatchesFreshRebuildOverSurvivors) {
  const GeoGraph geo = make_udg();
  for (const double crash : {0.0, 0.1, 0.35}) {
    for (const double link : {0.0, 0.2}) {
      FaultPlan plan;
      plan.node_crash = crash;
      plan.link_failure = link;
      plan.blackouts.push_back(Box{{1.0, 1.0}, {4.0, 4.0}});
      plan.seed = 0xabcdULL + static_cast<std::uint64_t>(crash * 100 + link * 10);
      const FaultInjector inj{plan};
      const FaultedGraph faulted = apply_faults(geo, inj);
      const CsrGraph rebuilt = rebuild_over_survivors(geo, inj, faulted);
      EXPECT_EQ(faulted.geo.graph.edge_list(), rebuilt.edge_list())
          << "crash=" << crash << " link=" << link;
      // Loss accounting is exact: survivors' edges + losses = original edges.
      EXPECT_EQ(faulted.geo.graph.num_edges() + faulted.edges_lost_endpoint +
                    faulted.edges_lost_link,
                geo.graph.num_edges());
      // The relabel is the monotone survivor map.
      for (std::size_t i = 0; i < faulted.survivor.size(); ++i) {
        EXPECT_EQ(xy(faulted.geo.points[i]), xy(geo.points[faulted.survivor[i]]));
        EXPECT_EQ(faulted.new_id[faulted.survivor[i]], i);
      }
    }
  }
}

TEST(FaultOracle, UdgCrashEqualsGeometricRebuild) {
  // Node failures only: the induced UDG subgraph on the survivors IS the
  // UDG of the surviving points (the disk predicate is pairwise), so the
  // fault path must agree with the geometric builder edge-for-edge.
  const Box window{{0.0, 0.0}, {12.0, 12.0}};
  const PointSet ps = poisson_point_set(window, 4.0, kSeed);
  const GeoGraph udg = build_udg(ps.points, window, 1.0);
  FaultPlan plan;
  plan.node_crash = 0.3;
  const FaultedGraph faulted = apply_faults(udg, FaultInjector{plan});
  const GeoGraph fresh = build_udg(faulted.geo.points, window, 1.0);
  EXPECT_EQ(faulted.geo.graph.edge_list(), fresh.graph.edge_list());
}

TEST(FaultDelta, DrainToEmptyAndGrowBack) {
  const GeoGraph geo = make_udg(8.0);
  const std::size_t n = geo.graph.num_vertices();
  const auto edges = geo.graph.edge_list();  // sorted (u < v) ascending
  // Drain: remove every edge and every vertex in one delta.
  const CsrGraph empty = CsrGraph::apply_edge_delta(geo.graph, 0, edges, {});
  EXPECT_EQ(empty.num_vertices(), 0u);
  EXPECT_EQ(empty.num_edges(), 0u);
  // Regrow: add everything back onto the empty graph.
  const CsrGraph regrown = CsrGraph::apply_edge_delta(empty, n, {}, edges);
  EXPECT_EQ(regrown.edge_list(), edges);
  // Edges-only drain keeps the vertices as isolated slots.
  const CsrGraph hollow = CsrGraph::apply_edge_delta(geo.graph, n, edges, {});
  EXPECT_EQ(hollow.num_vertices(), n);
  EXPECT_EQ(hollow.num_edges(), 0u);
  const CsrGraph refilled = CsrGraph::apply_edge_delta(hollow, n, {}, edges);
  EXPECT_EQ(refilled.edge_list(), edges);
}

TEST(FaultDelta, DroppedVertexMustShedItsEdges) {
  const CsrGraph g = CsrGraph::from_edges(3, {{0, 1}, {1, 2}});
  // Shrinking to 2 vertices without removing {1, 2} must throw.
  EXPECT_THROW(
      (void)CsrGraph::apply_edge_delta(g, 2, std::vector<std::pair<std::uint32_t, std::uint32_t>>{},
                                       {}),
      std::invalid_argument);
}

TEST(FaultThreads, ReplayBitIdenticalAcrossThreadCounts) {
  const GeoGraph geo = make_udg();
  FaultPlan plan;
  plan.node_crash = 0.25;
  plan.link_failure = 0.15;
  plan.blackouts.push_back(Box{{3.0, 3.0}, {7.0, 9.0}});
  const FaultInjector inj{plan};

  set_thread_count(1);
  const FaultedGraph base = apply_faults(geo, inj);
  const DegradationParams audit_params{.sample_pairs = 128, .seed = kSeed};
  const Box window{{0.0, 0.0}, {14.0, 14.0}};
  const DegradationReport base_report = audit_degradation(base.geo, window, audit_params);
  for (const unsigned threads : {2u, 8u}) {
    set_thread_count(threads);
    const FaultedGraph got = apply_faults(geo, inj);
    EXPECT_EQ(got.geo.graph.edge_list(), base.geo.graph.edge_list()) << threads << " threads";
    EXPECT_EQ(got.survivor, base.survivor);
    EXPECT_EQ(got.new_id, base.new_id);
    EXPECT_EQ(got.nodes_failed, base.nodes_failed);
    EXPECT_EQ(got.edges_lost_endpoint, base.edges_lost_endpoint);
    EXPECT_EQ(got.edges_lost_link, base.edges_lost_link);
    const DegradationReport report = audit_degradation(got.geo, window, audit_params);
    EXPECT_EQ(report.giant_fraction, base_report.giant_fraction);
    EXPECT_EQ(report.coverage_fraction, base_report.coverage_fraction);
    EXPECT_EQ(report.mean_stretch, base_report.mean_stretch);
    EXPECT_EQ(report.certified_rate, base_report.certified_rate);
    EXPECT_EQ(report.disconnected_rate, base_report.disconnected_rate);
  }
  set_thread_count(0);
}

TEST(Degradation, IntactConnectedGraphBaseline) {
  const GeoGraph geo = make_udg();
  const Box window{{0.0, 0.0}, {14.0, 14.0}};
  const DegradationReport rep =
      audit_degradation(geo, window, DegradationParams{.sample_pairs = 128, .seed = kSeed});
  EXPECT_EQ(rep.nodes, geo.size());
  EXPECT_EQ(rep.edges, geo.graph.num_edges());
  // lambda = 4 per unit cell: the UDG covers the window and is connected up
  // to the odd isolated straggler, so the giant holds essentially all mass
  // and sampled pairs (drawn over ALL nodes) almost never miss.
  EXPECT_GT(rep.giant_fraction, 0.99);
  EXPECT_LE(rep.giant_fraction, 1.0);
  EXPECT_GT(rep.coverage_fraction, 0.9);
  EXPECT_GE(rep.mean_stretch, 1.0);
  EXPECT_GT(rep.stretch_pairs, 0u);
  EXPECT_LT(rep.disconnected_rate, 0.05);
  EXPECT_GT(rep.certified_rate, 0.5);
}

TEST(Degradation, MassFailureDegradesTheCurves) {
  const GeoGraph geo = make_udg();
  const Box window{{0.0, 0.0}, {14.0, 14.0}};
  const DegradationParams p{.sample_pairs = 128, .seed = kSeed};
  const DegradationReport before = audit_degradation(geo, window, p);
  FaultPlan plan;
  plan.node_crash = 0.5;
  const FaultedGraph faulted = apply_faults(geo, FaultInjector{plan});
  const DegradationReport after = audit_degradation(faulted.geo, window, p);
  EXPECT_LT(after.nodes, before.nodes);
  EXPECT_LE(after.coverage_fraction, before.coverage_fraction);
  EXPECT_LT(after.coverage_fraction, 1.0);
  EXPECT_LE(after.giant_fraction, 1.0);
}

TEST(Degradation, EmptyAndTinyGraphs) {
  const Box window{{0.0, 0.0}, {4.0, 4.0}};
  const GeoGraph empty;
  const DegradationReport rep0 = audit_degradation(empty, window, {});
  EXPECT_EQ(rep0.nodes, 0u);
  EXPECT_EQ(rep0.giant_fraction, 0.0);
  GeoGraph one;
  one.points = {Vec2{1.0, 1.0}};
  one.graph = CsrGraph::from_edges(1, {});
  const DegradationReport rep1 = audit_degradation(one, window, {});
  EXPECT_EQ(rep1.giant_fraction, 1.0);
  EXPECT_EQ(rep1.mean_stretch, 0.0);  // no pair to sample
}

// --- epoch serving under churn ---------------------------------------------

/// A DynamicHng over a Poisson workload (the E16/E19 shape).
DynamicHng make_dyn(std::size_t n = 220, std::uint64_t seed = kSeed) {
  const Box window{{0.0, 0.0}, {9.0, 9.0}};
  const PointSet ps = poisson_point_set(window, 4.0, seed);
  std::vector<Vec2> pts(ps.points.begin(),
                        ps.points.begin() + static_cast<std::ptrdiff_t>(
                                                std::min(n, ps.points.size())));
  return DynamicHng(pts, HngParams{.promote_p = 0.25, .k = 3, .max_level = 48}, seed);
}

TEST(EpochEngine, JournalReplayMatchesMaintainerBitForBit) {
  DynamicHng dyn = make_dyn();
  EpochQueryEngine engine(dyn, EpochEngineParams{.num_landmarks = 8, .seed = kSeed});
  EXPECT_EQ(engine.generation(), dyn.overlay_generation());

  Rng rng = Rng::stream(kSeed, 0xc4u);
  for (int round = 0; round < 4; ++round) {
    for (int ev = 0; ev < 15; ++ev) {
      if (dyn.size() > 40 && rng.bernoulli(0.5)) {
        dyn.remove(static_cast<std::uint32_t>(rng.uniform_index(dyn.size())));
      } else {
        dyn.insert(Vec2{rng.uniform(0.0, 9.0), rng.uniform(0.0, 9.0)});
      }
    }
    const EpochRefreshStats stats = engine.refresh();
    EXPECT_FALSE(stats.resynced);
    EXPECT_GT(stats.deltas_applied, 0u);
    EXPECT_EQ(engine.generation(), dyn.overlay_generation());
    // The epoch snapshot is the maintainer's overlay, bit for bit — via
    // delta replay, never a rebuild.
    EXPECT_EQ(engine.graph().edge_list(), dyn.overlay().edge_list()) << "round " << round;
    // Its arc weights are the Euclidean lengths over the maintainer's
    // current points (the engine keeps no copy of them).
    const std::vector<double> want = engine.graph().arc_weights(
        [&](std::uint32_t u, std::uint32_t v) { return dist(dyn.points()[u], dyn.points()[v]); });
    EXPECT_TRUE(std::equal(engine.arc_weights().begin(), engine.arc_weights().end(), want.begin(),
                           want.end()))
        << "round " << round;
  }
}

TEST(EpochEngine, ResyncsPastATrimmedJournal) {
  DynamicHng dyn = make_dyn(120);
  EpochQueryEngine engine(dyn, EpochEngineParams{.num_landmarks = 6, .seed = kSeed});
  Rng rng = Rng::stream(kSeed, 0xc5u);
  for (int ev = 0; ev < 10; ++ev) {
    dyn.insert(Vec2{rng.uniform(0.0, 9.0), rng.uniform(0.0, 9.0)});
  }
  dyn.trim_overlay_journal(dyn.overlay_generation());
  const EpochRefreshStats stats = engine.refresh();
  EXPECT_TRUE(stats.resynced);
  EXPECT_EQ(stats.deltas_applied, 0u);
  EXPECT_EQ(engine.graph().edge_list(), dyn.overlay().edge_list());
}

/// Assert the §2.9 verdict contract of one served batch against exact
/// Dijkstra on the engine's own epoch snapshot.
void expect_verdicts_sound(const EpochQueryEngine& engine, std::span<const Query> queries,
                           std::span<const double> out, std::span<const Verdict> verdicts) {
  const std::size_t n = engine.graph().num_vertices();
  DijkstraScratch scratch;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const Query q = queries[i];
    if (verdicts[i] == Verdict::kStale) {
      EXPECT_TRUE(q.src >= n || q.dst >= n) << "query " << i;
      EXPECT_EQ(out[i], kInfCost);
      continue;
    }
    ASSERT_TRUE(q.src < n && q.dst < n) << "query " << i;
    const double exact =
        dijkstra_cost(engine.graph(), q.src, q.dst, engine.arc_weights(), scratch);
    switch (verdicts[i]) {
      case Verdict::kExact:
        // Bracket-exact answers (landmark == endpoint) may differ from the
        // fallback Dijkstra by summation order, hence NEAR not EQ.
        EXPECT_NEAR(out[i], exact, 1e-9 * (1.0 + exact)) << "query " << i;
        EXPECT_LT(out[i], kInfCost);
        break;
      case Verdict::kCertified:
        EXPECT_GE(out[i], exact - 1e-9) << "query " << i;
        EXPECT_LE(out[i], engine.max_stretch() * exact + 1e-9) << "query " << i;
        break;
      case Verdict::kDisconnected:
        EXPECT_EQ(exact, kInfCost) << "query " << i;
        EXPECT_EQ(out[i], kInfCost);
        break;
      case Verdict::kStale:
        break;
    }
  }
}

TEST(EpochEngine, ZeroUncertifiedWrongAnswersUnderChurn) {
  DynamicHng dyn = make_dyn();
  const std::size_t n_pre = dyn.size();
  EpochQueryEngine engine(
      dyn, EpochEngineParams{.num_landmarks = 8,
                             .max_stretch = 1.25,
                             .seed = kSeed,
                             .selection = LandmarkSelection::kFarthestPoint});
  // Heavy churn: remove a third of the slots (descending, so planned slots
  // stay valid), then refresh.
  Rng rng = Rng::stream(kSeed, 0xc6u);
  for (std::uint32_t slot = static_cast<std::uint32_t>(n_pre); slot-- > 0;) {
    if (slot % 3 == 0) dyn.remove(slot);
  }
  const EpochRefreshStats stats = engine.refresh();
  EXPECT_GT(stats.landmarks_demoted + stats.landmarks_recruited, 0u);

  // Queries drawn over the PRE-churn id space: a third of the ids are now
  // out of range and must come back stale, not resolved to other nodes.
  std::vector<Query> queries(300);
  for (auto& q : queries) {
    q.src = static_cast<std::uint32_t>(rng.uniform_index(n_pre));
    q.dst = static_cast<std::uint32_t>(rng.uniform_index(n_pre));
  }
  std::vector<double> out(queries.size());
  std::vector<Verdict> verdicts(queries.size());
  const ServeStats served = engine.serve(queries, out, verdicts);
  EXPECT_EQ(served.queries, queries.size());
  EXPECT_EQ(served.exact + served.certified + served.disconnected + served.stale,
            served.queries);
  EXPECT_GT(served.stale, 0u);
  expect_verdicts_sound(engine, queries, out, verdicts);
}

TEST(EpochEngine, AgreesWithQueryEngineAtGenerationZero) {
  // Both engines serve through one kernel: at generation 0 a QueryEngine
  // over the epoch snapshot with the same landmark params picks the same
  // pivots, so answers and stats must match exactly (stale ids included).
  DynamicHng dyn = make_dyn(180);
  const EpochEngineParams params{.num_landmarks = 8,
                                 .max_stretch = 1.25,
                                 .seed = kSeed,
                                 .selection = LandmarkSelection::kFarthestPoint};
  const EpochQueryEngine epoch(dyn, params);
  const QueryEngine plain(
      epoch.graph(), std::vector<double>(epoch.arc_weights().begin(), epoch.arc_weights().end()),
      QueryEngineParams{.num_landmarks = params.num_landmarks,
                        .max_stretch = params.max_stretch,
                        .seed = params.seed,
                        .selection = params.selection});
  ASSERT_TRUE(std::equal(plain.oracle().landmarks().begin(), plain.oracle().landmarks().end(),
                         epoch.oracle().landmarks().begin(), epoch.oracle().landmarks().end()));
  Rng rng = Rng::stream(kSeed, 0xc8u);
  std::vector<Query> queries(400);
  for (auto& q : queries) {
    q.src = static_cast<std::uint32_t>(rng.uniform_index(dyn.size() + 3));  // a few stale
    q.dst = static_cast<std::uint32_t>(rng.uniform_index(dyn.size() + 3));
  }
  queries[0] = Query{7, 7};
  std::vector<double> want(queries.size());
  std::vector<Verdict> verdicts(queries.size());
  const ServeStats ws = epoch.serve(queries, want, verdicts);
  std::vector<double> got(queries.size());
  const ServeStats gs = plain.estimate_distances(queries, got);
  EXPECT_EQ(0, std::memcmp(want.data(), got.data(), want.size() * sizeof(double)));
  EXPECT_EQ(gs.queries, ws.queries);
  EXPECT_EQ(gs.exact, ws.exact);
  EXPECT_EQ(gs.certified, ws.certified);
  EXPECT_EQ(gs.disconnected, ws.disconnected);
  EXPECT_EQ(gs.stale, ws.stale);
  EXPECT_GT(ws.stale, 0u);
  EXPECT_GT(ws.certified, 0u);
  EXPECT_EQ(verdicts[0], Verdict::kExact);  // s == t: a tight bracket is exact
}

TEST(EpochEngine, ServeBitIdenticalAcrossThreadCounts) {
  DynamicHng dyn = make_dyn(150);
  EpochQueryEngine engine(dyn, EpochEngineParams{.num_landmarks = 6, .seed = kSeed});
  Rng rng = Rng::stream(kSeed, 0xc7u);
  std::vector<Query> queries(200);
  for (auto& q : queries) {
    q.src = static_cast<std::uint32_t>(rng.uniform_index(dyn.size() + 5));  // a few stale
    q.dst = static_cast<std::uint32_t>(rng.uniform_index(dyn.size() + 5));
  }
  set_thread_count(1);
  std::vector<double> base(queries.size());
  std::vector<Verdict> base_v(queries.size());
  engine.serve(queries, base, base_v);
  for (const unsigned threads : {2u, 8u}) {
    set_thread_count(threads);
    std::vector<double> got(queries.size());
    std::vector<Verdict> got_v(queries.size());
    engine.serve(queries, got, got_v);
    EXPECT_EQ(got, base) << threads << " threads";
    EXPECT_TRUE(std::equal(got_v.begin(), got_v.end(), base_v.begin())) << threads << " threads";
  }
  set_thread_count(0);
}

TEST(EpochEngine, DrainedToEmptyEveryAnswerIsStale) {
  DynamicHng dyn = make_dyn(60);
  EpochQueryEngine engine(dyn, EpochEngineParams{.num_landmarks = 4, .seed = kSeed});
  const std::size_t n_pre = dyn.size();
  while (dyn.size() > 0) dyn.remove(static_cast<std::uint32_t>(dyn.size() - 1));
  const EpochRefreshStats stats = engine.refresh();
  EXPECT_EQ(engine.graph().num_vertices(), 0u);
  EXPECT_EQ(stats.landmarks_recruited, 0u);
  std::vector<Query> queries(20);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    queries[i] = Query{static_cast<std::uint32_t>(i % n_pre),
                       static_cast<std::uint32_t>((i * 7) % n_pre)};
  }
  std::vector<double> out(queries.size());
  std::vector<Verdict> verdicts(queries.size());
  const ServeStats served = engine.serve(queries, out, verdicts);
  EXPECT_EQ(served.stale, queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(verdicts[i], Verdict::kStale);
    EXPECT_EQ(out[i], kInfCost);
  }
}

TEST(EpochEngine, AllDisconnectedBatchIsExplicit) {
  // A blackout that severs the deployment into two far-apart UDG clusters:
  // every cross-cluster query must come back as an infinite distance —
  // explicitly, never as some certified finite guess. The plain
  // QueryEngine proves the disconnection from the oracle bracket alone
  // ({inf, inf} bounds); BFS on the same pairs agrees.
  const GeoGraph geo = make_udg(12.0);
  FaultPlan plan;
  plan.blackouts.push_back(Box{{5.0, -1.0}, {7.0, 13.0}});  // vertical cut
  const FaultedGraph faulted = apply_faults(geo, FaultInjector{plan});
  const Components comps = connected_components(faulted.geo.graph);
  ASSERT_GT(comps.count(), 1u);

  // Queries crossing the two largest components only (landmarks land in
  // them, so the bracket proves every disconnection).
  std::uint32_t second = comps.largest == 0 ? 1 : 0;
  for (std::uint32_t c = 0; c < comps.count(); ++c) {
    if (c != comps.largest && comps.size[c] > comps.size[second]) second = c;
  }
  std::vector<std::uint32_t> left;
  std::vector<std::uint32_t> right;
  for (std::uint32_t v = 0; v < faulted.geo.graph.num_vertices(); ++v) {
    if (comps.label[v] == comps.largest) left.push_back(v);
    if (comps.label[v] == second) right.push_back(v);
  }
  ASSERT_FALSE(left.empty());
  ASSERT_FALSE(right.empty());
  std::vector<Query> queries;
  for (std::size_t i = 0; i < 40; ++i) {
    queries.push_back(Query{left[(i * 13) % left.size()], right[(i * 7) % right.size()]});
  }
  QueryEngine plain(faulted.geo.graph, faulted.geo.length_arc_weights(),
                    QueryEngineParams{.num_landmarks = 6, .seed = kSeed});
  std::vector<double> out(queries.size());
  const ServeStats stats = plain.estimate_distances(queries, out);
  EXPECT_EQ(stats.disconnected, queries.size());
  EXPECT_EQ(stats.certified + stats.exact, 0u);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(out[i], kInfCost);
    // Proven by the bracket: {inf, inf} bounds, so no fallback Dijkstra.
    const LandmarkOracle::Bounds b = plain.oracle().bounds(queries[i].src, queries[i].dst);
    EXPECT_EQ(b.lower, kInfCost) << "query " << i;
    EXPECT_EQ(b.upper, kInfCost) << "query " << i;
  }
  BfsScratch bfs;
  std::vector<std::uint32_t> path;
  for (const Query& q : queries) {
    EXPECT_FALSE(bfs_path_into(faulted.geo.graph, q.src, q.dst, bfs, path));
  }
}

}  // namespace
}  // namespace sens
