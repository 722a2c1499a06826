// E19 — fault injection: degradation curves and epoch survival.
//
// The sparse constructions (SENS, HNG, the classical spanners) trade edges
// for power; this bench asks what that trade costs in survivability. A
// deterministic `FaultInjector` (fault/fault_plan.hpp, DESIGN.md §2.9)
// kills nodes, regions and links with per-entity rng streams, so every
// scenario — and with it the whole --json document — is a pure function of
// (seed, scale, --fmax) at any --threads. Three sections:
//
//   1. crash sweep: the same casualty draw applied to UDG / Gabriel / RNG /
//      Yao / HNG over the same Poisson points (plus UDG-SENS over its
//      elected overlay), audited for giant-component mass, coverage,
//      stretch inflation, oracle certification and disconnection rates;
//   2. a compound regime (blackout strip + independent link fade + crashes)
//      with the per-cause edge-loss accounting;
//   3. epoch survival: a DynamicHng absorbs a crash wave and a rejoin wave
//      while an `EpochQueryEngine` follows via journal replay — every
//      served batch is checked against exact Dijkstra on the epoch
//      snapshot, and the run *fails* (exit 1) on any uncertified wrong
//      answer or on an epoch snapshot that diverges from the maintainer.
//
// Flags: --fmax F caps the crash sweep's failure fraction (default 0.5).
// Wall-clock is printed as a table but kept out of --json; measured runs
// are recorded in bench/BENCH_faults.json.
#include <cmath>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "same_points.hpp"
#include "sens/dynamic/dynamic_hng.hpp"
#include "sens/fault/degradation.hpp"
#include "sens/fault/fault_plan.hpp"
#include "sens/graph/dijkstra.hpp"
#include "sens/rng/rng.hpp"
#include "sens/serve/epoch_engine.hpp"

using namespace sens;
using namespace sens::bench;

namespace {

/// Recheck a served batch against exact Dijkstra on the engine's own epoch
/// snapshot: kExact must match (modulo summation order), kCertified must
/// land in [d, max_stretch * d], kDisconnected must really have no path,
/// and kStale must name a slot outside this epoch. Returns the number of
/// violations — the zero-uncertified-wrong contract says zero.
std::size_t soundness_violations(const EpochQueryEngine& engine, std::span<const Query> queries,
                                 std::span<const double> out, std::span<const Verdict> verdicts) {
  const CsrGraph& g = engine.graph();
  const std::span<const double> w = engine.arc_weights();
  const std::size_t n = g.num_vertices();
  DijkstraScratch scratch;
  std::size_t bad = 0;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (verdicts[i] == Verdict::kStale) {
      if (queries[i].src < n && queries[i].dst < n) ++bad;
      continue;
    }
    const double exact = dijkstra_cost(g, queries[i].src, queries[i].dst, w, scratch);
    switch (verdicts[i]) {
      case Verdict::kExact:
        if (exact >= kInfCost || std::abs(out[i] - exact) > 1e-9 * (1.0 + exact)) ++bad;
        break;
      case Verdict::kCertified:
        if (exact >= kInfCost || out[i] < exact - 1e-9 ||
            out[i] > engine.max_stretch() * exact + 1e-9) {
          ++bad;
        }
        break;
      case Verdict::kDisconnected:
        if (exact < kInfCost) ++bad;
        break;
      default:
        break;
    }
  }
  return bad;
}

void verdict_row(Table& t, const std::string& phase, std::uint64_t generation,
                 std::size_t nodes, const ServeStats& s, std::size_t violations) {
  t.add_row({phase, Table::fmt_int(static_cast<long long>(generation)),
             Table::fmt_int(static_cast<long long>(nodes)),
             Table::fmt_int(static_cast<long long>(s.queries)),
             Table::fmt_int(static_cast<long long>(s.exact)),
             Table::fmt_int(static_cast<long long>(s.certified)),
             Table::fmt_int(static_cast<long long>(s.disconnected)),
             Table::fmt_int(static_cast<long long>(s.stale)),
             Table::fmt_int(static_cast<long long>(violations))});
}

}  // namespace

int main(int argc, char** argv) {
  BenchEnv env = BenchEnv::parse(argc, argv, {"fmax"});
  const double fmax = env.cli.get("fmax", 0.5);
  env.header("E19 / fault injection: degradation and epoch survival",
             "sparse power-efficient topologies degrade gracefully under node, region and "
             "link failures, and a journal-following serving epoch survives churn with zero "
             "uncertified wrong answers (DESIGN.md 2.9)");

  Table clock({"step", "ms"});
  Timer step_timer;
  const SamePoints sp(env.scale > 1 ? 24 : 14, env.seed, /*with_hng=*/true);
  const Box window = sp.sens.points.window;
  clock.add_row({"build all constructions", Table::fmt(step_timer.millis(), 2)});
  const std::vector<Construction> graphs = sp.constructions();

  DegradationParams audit;
  audit.sample_pairs = 192 * env.scale;
  audit.min_separation = 4.0;
  audit.num_landmarks = 16;
  audit.max_stretch = 1.5;
  audit.seed = env.seed;

  // --- 1. crash sweep -------------------------------------------------------
  // One casualty draw per failure fraction, shared across the base-point
  // constructions (fault draws key on node ids, so UDG/Gabriel/RNG/Yao/HNG
  // lose the *identical* node set; UDG-SENS draws over its elected overlay
  // ids — same marginal rate, different individuals).
  const std::vector<double> fractions{0.0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5};
  Table sweep({"graph", "crash f", "survivors", "edges", "giant frac", "coverage",
               "mean stretch", "stretch inflation", "certified rate", "disconnected rate"});
  step_timer.reset();
  double swept_max = 0.0;
  for (const Construction& c : graphs) {
    const ScopedSpan span("e19/crash-sweep");
    double base_stretch = 0.0;
    for (const double f : fractions) {
      if (f > fmax + 1e-12) continue;
      DegradationReport rep;
      std::size_t survivors = c.geo->size();
      std::size_t edges = c.geo->graph.num_edges();
      if (f == 0.0) {
        rep = audit_degradation(*c.geo, window, audit);
        base_stretch = rep.mean_stretch;
      } else {
        FaultPlan plan;
        plan.node_crash = f;
        plan.seed = env.seed;
        const FaultedGraph faulted = apply_faults(*c.geo, FaultInjector{plan});
        rep = audit_degradation(faulted.geo, window, audit);
        survivors = faulted.geo.size();
        edges = faulted.geo.graph.num_edges();
        swept_max = std::max(swept_max, f);
      }
      const double inflation =
          base_stretch > 0.0 && rep.mean_stretch > 0.0 ? rep.mean_stretch / base_stretch : 0.0;
      sweep.add_row({c.name, Table::fmt(f, 2), Table::fmt_int(static_cast<long long>(survivors)),
                     Table::fmt_int(static_cast<long long>(edges)),
                     Table::fmt(rep.giant_fraction, 4), Table::fmt(rep.coverage_fraction, 4),
                     Table::fmt(rep.mean_stretch, 4), Table::fmt(inflation, 4),
                     Table::fmt(rep.certified_rate, 4), Table::fmt(rep.disconnected_rate, 4)});
    }
  }
  clock.add_row({"crash sweep + audits", Table::fmt(step_timer.millis(), 2)});
  env.emit("degradation vs crash fraction (same Poisson points; denser graphs buy giant-"
           "component mass and certification rate with edges the sparse ones saved)",
           sweep);

  // --- 2. compound regime: blackout strip + link fade + crashes -------------
  const Vec2 center{(window.lo.x + window.hi.x) / 2.0, (window.lo.y + window.hi.y) / 2.0};
  const double half = (window.hi.x - window.lo.x) * 0.09;
  FaultPlan compound;
  compound.node_crash = 0.05;
  compound.link_failure = 0.15;
  compound.blackouts = {{{center.x - half, window.lo.y - 1.0}, {center.x + half, window.hi.y + 1.0}}};
  compound.seed = env.seed;
  const FaultInjector compound_inj{compound};

  Table comp({"graph", "survivors", "edges", "lost: dead endpoint", "lost: link fade",
              "giant frac", "coverage", "certified rate", "disconnected rate"});
  step_timer.reset();
  for (const Construction& c : graphs) {
    const ScopedSpan span("e19/compound");
    const FaultedGraph faulted = apply_faults(*c.geo, compound_inj);
    const DegradationReport rep = audit_degradation(faulted.geo, window, audit);
    comp.add_row({c.name, Table::fmt_int(static_cast<long long>(faulted.geo.size())),
                  Table::fmt_int(static_cast<long long>(faulted.geo.graph.num_edges())),
                  Table::fmt_int(static_cast<long long>(faulted.edges_lost_endpoint)),
                  Table::fmt_int(static_cast<long long>(faulted.edges_lost_link)),
                  Table::fmt(rep.giant_fraction, 4), Table::fmt(rep.coverage_fraction, 4),
                  Table::fmt(rep.certified_rate, 4), Table::fmt(rep.disconnected_rate, 4)});
  }
  clock.add_row({"compound regime + audits", Table::fmt(step_timer.millis(), 2)});
  env.emit("compound failure (vertical blackout strip through the deployment + 15% link fade "
           "+ 5% crashes): the strip severs anything without long chords across it",
           comp);

  // --- 3. epoch survival under churn ----------------------------------------
  // The maintainer churns; the engine follows by journal replay and must
  // never serve an uncertified wrong answer (contract asserted per batch).
  DynamicHng dyn(sp.sens.points.points, kHngParams, env.seed);
  const std::size_t n_pre = dyn.size();
  const EpochEngineParams eparams{.num_landmarks = 16,
                                  .max_stretch = 1.25,
                                  .seed = env.seed,
                                  .selection = LandmarkSelection::kFarthestPoint};
  step_timer.reset();
  EpochQueryEngine engine(dyn, eparams);
  clock.add_row({"epoch engine first build", Table::fmt(step_timer.millis(), 2)});

  const std::size_t num_queries = 256 * env.scale;
  std::vector<Query> queries(num_queries);
  Rng qdraw = Rng::stream(env.seed, 0xE19, 7);
  for (Query& q : queries) {
    q.src = static_cast<std::uint32_t>(qdraw.uniform_index(n_pre));
    q.dst = static_cast<std::uint32_t>(qdraw.uniform_index(n_pre));
  }
  std::vector<double> out(queries.size());
  std::vector<Verdict> verdicts(queries.size());

  Table refresh_t({"wave", "generation", "deltas applied", "landmarks demoted",
                   "landmarks recruited", "resynced", "snapshot == maintainer"});
  Table serve_t({"phase", "generation", "nodes", "queries", "exact", "certified",
                 "disconnected", "stale", "uncertified wrong"});
  std::size_t total_violations = 0;

  auto serve_span = [&] {
    const ScopedSpan span("e19/epoch-serve");
    return engine.serve(queries, out, verdicts);
  };
  auto refresh_span = [&] {
    const ScopedSpan span("e19/epoch-refresh");
    return engine.refresh();
  };

  const ServeStats pre = serve_span();
  std::size_t bad = soundness_violations(engine, queries, out, verdicts);
  total_violations += bad;
  verdict_row(serve_t, "pre-churn", engine.generation(), dyn.size(), pre, bad);

  // Wave 1: a 30% crash wave, planned by the injector over the *slots* of
  // the dynamic structure and applied in descending slot order so every
  // planned slot is still valid when its turn comes (swap-remove moves only
  // higher slots down).
  FaultPlan churn_plan;
  churn_plan.node_crash = 0.3;
  churn_plan.seed = env.seed ^ 0xE19;
  const FaultInjector churn_inj{churn_plan};
  std::size_t crashed = 0;
  for (std::uint32_t slot = static_cast<std::uint32_t>(dyn.size()); slot-- > 0;) {
    if (churn_inj.node_crashes(slot)) {
      dyn.remove(slot);
      ++crashed;
    }
  }
  step_timer.reset();
  const EpochRefreshStats r1 = refresh_span();
  const double refresh1_ms = step_timer.millis();
  bool snap_ok = engine.graph().edge_list() == dyn.overlay().edge_list();
  refresh_t.add_row({"crash wave (30%)", Table::fmt_int(static_cast<long long>(r1.generation)),
                     Table::fmt_int(static_cast<long long>(r1.deltas_applied)),
                     Table::fmt_int(static_cast<long long>(r1.landmarks_demoted)),
                     Table::fmt_int(static_cast<long long>(r1.landmarks_recruited)),
                     r1.resynced ? "yes" : "no", snap_ok ? "yes" : "NO"});
  if (!snap_ok) {
    std::cerr << "error: epoch snapshot diverged from the maintainer after the crash wave\n";
    return 1;
  }
  const ServeStats post = serve_span();
  bad = soundness_violations(engine, queries, out, verdicts);
  total_violations += bad;
  verdict_row(serve_t, "post-crash (same pre-churn queries)", engine.generation(), dyn.size(), post,
              bad);

  // Wave 2: a rejoin wave — 15% of the original population comes back as
  // fresh uniform nodes; re-query over the *current* id space.
  Rng join = Rng::stream(env.seed, 0xE19, 8);
  const std::size_t joins = n_pre * 3 / 20;
  for (std::size_t j = 0; j < joins; ++j) {
    dyn.insert({join.uniform(window.lo.x, window.hi.x), join.uniform(window.lo.y, window.hi.y)});
  }
  step_timer.reset();
  const EpochRefreshStats r2 = refresh_span();
  const double refresh2_ms = step_timer.millis();
  snap_ok = engine.graph().edge_list() == dyn.overlay().edge_list();
  refresh_t.add_row({"rejoin wave (15%)", Table::fmt_int(static_cast<long long>(r2.generation)),
                     Table::fmt_int(static_cast<long long>(r2.deltas_applied)),
                     Table::fmt_int(static_cast<long long>(r2.landmarks_demoted)),
                     Table::fmt_int(static_cast<long long>(r2.landmarks_recruited)),
                     r2.resynced ? "yes" : "no", snap_ok ? "yes" : "NO"});
  if (!snap_ok) {
    std::cerr << "error: epoch snapshot diverged from the maintainer after the rejoin wave\n";
    return 1;
  }
  Rng qdraw2 = Rng::stream(env.seed, 0xE19, 9);
  for (Query& q : queries) {
    q.src = static_cast<std::uint32_t>(qdraw2.uniform_index(dyn.size()));
    q.dst = static_cast<std::uint32_t>(qdraw2.uniform_index(dyn.size()));
  }
  const ServeStats rejoin = serve_span();
  bad = soundness_violations(engine, queries, out, verdicts);
  total_violations += bad;
  verdict_row(serve_t, "post-rejoin (fresh queries)", engine.generation(), dyn.size(), rejoin,
              bad);

  step_timer.reset();
  const EpochQueryEngine rebuilt(dyn, eparams);
  const double rebuild_ms = step_timer.millis();
  (void)rebuilt;

  env.emit("epoch refresh work (journal replay, never a wholesale rebuild; pivots demoted "
           "only when their slot vanished)",
           refresh_t);
  env.emit("served batches with verdicts (every answer exact, certified within stretch "
           "1.25, or explicitly disconnected/stale — the zero-uncertified-wrong contract)",
           serve_t);

  clock.add_row({"refresh after crash wave", Table::fmt(refresh1_ms, 2)});
  clock.add_row({"refresh after rejoin wave", Table::fmt(refresh2_ms, 2)});
  clock.add_row({"fresh engine build (comparison)", Table::fmt(rebuild_ms, 2)});

  // Wall-clock is deliberately *not* emitted: the --json document must be
  // byte-identical across runs and --threads values.
  std::cout << "**wall-clock (excluded from --json)**\n\n";
  clock.print(std::cout);
  std::cout << "\n";

  env.footnote("crash sweep capped at --fmax=" + Table::fmt(fmax, 2) + " (max swept " +
               Table::fmt(swept_max, 2) + ")");
  env.footnote("epoch churn: " + Table::fmt_int(static_cast<long long>(n_pre)) + " nodes, " +
               Table::fmt_int(static_cast<long long>(crashed)) + " crashed, " +
               Table::fmt_int(static_cast<long long>(joins)) + " rejoined, " +
               Table::fmt_int(static_cast<long long>(dyn.size())) + " serving");
  env.footer();

  if (total_violations > 0) {
    std::cerr << "error: " << total_violations << " uncertified wrong answer(s) served\n";
    return 1;
  }
  return 0;
}
