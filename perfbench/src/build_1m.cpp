// build_1m: the paper's construction pipeline at the 10^6 scale, rebuilt
// pass after pass from one seed.
//
// One pass builds, in order:
//   1. UDG-SENS on 240 x 240 strict tiles at lambda = 25 (~1.0M points):
//      PPP -> classify_udg -> build_udg_overlay -> length_arc_weights;
//   2. a QueryEngine over that overlay (64 landmarks, stretch 1.5);
//   3. NN-SENS with the paper's tile (k = 188, a = 0.893) on 60 x 60 tiles
//      plus a one-tile buffer (~3.1e5 points): PPP -> classify_nn -> KdTree
//      -> build_nn_overlay;
//   4. the base UDG(2, 4) over a 10^6-point deployment in arrival order:
//      Hilbert relabel -> build_udg.
// The first pass of the process is the set-up (it runs cold: pool spawn,
// first-touch page faults) and the reference every later pass must
// reproduce digest for digest.
#include <functional>
#include <numeric>
#include <optional>
#include <span>
#include <utility>

#include "common.hpp"
#include "sens/core/nn_sens.hpp"
#include "sens/core/udg_sens.hpp"
#include "sens/geograph/point_set.hpp"
#include "sens/geograph/udg.hpp"
#include "sens/rng/rng.hpp"
#include "sens/serve/query_engine.hpp"
#include "sens/spatial/kdtree.hpp"
#include "sens/spatial/reorder.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using sens::monotonic_ns;

constexpr int kUdgTiles = 240;
constexpr double kUdgLambda = 25.0;
constexpr int kNnTiles = 60;
constexpr double kBaseLambda = 4.0;
constexpr double kBaseSide = 500.0;  // 2.5e5 area at lambda 4: 10^6 points expected
constexpr std::size_t kLandmarks = 64;
constexpr double kStretch = 1.5;
constexpr std::size_t kSampleQueries = 256;   // engine answers digested every pass
constexpr std::size_t kVerifiedQueries = 32;  // of those, checked against Dijkstra once
constexpr std::size_t kMinPasses = 3;
constexpr std::size_t kTracePasses = 3;

struct Inputs {
  std::uint64_t udg_seed = 0;
  std::uint64_t nn_seed = 0;
  std::uint64_t engine_seed = 0;
  sens::Box deploy_window;
  std::vector<sens::Vec2> deploy;  ///< base deployment, ids in arrival order
  std::uint64_t digest = 0;
};

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  in.udg_seed = sens::mix_seed(seed, 0xb1d0001);
  in.nn_seed = sens::mix_seed(seed, 0xb1d0002);
  in.engine_seed = sens::mix_seed(seed, 0xb1d0003);
  in.deploy_window = {{0.0, 0.0}, {kBaseSide, kBaseSide}};
  sens::PointSet ps = sens::poisson_point_set_ordered(in.deploy_window, kBaseLambda,
                                                      sens::mix_seed(seed, 0xb1d0004));
  // Arrival order: a seeded Fisher-Yates shuffle of the grid-major store.
  sens::Rng shuffle = sens::Rng::stream(seed, 0xb1d, 5);
  for (std::size_t i = ps.points.size(); i > 1; --i) {
    std::swap(ps.points[i - 1], ps.points[shuffle.uniform_index(i)]);
  }
  in.deploy = std::move(ps.points);
  Digest d;
  d.add(in.udg_seed);
  d.add(in.nn_seed);
  d.add(in.engine_seed);
  for (const sens::Vec2 p : in.deploy) {
    d.add(p.x);
    d.add(p.y);
  }
  in.digest = d.value();
  return in;
}

struct StageTimes {
  double udg_sens = 0.0;
  double engine = 0.0;
  double nn_sens = 0.0;
  double udg = 0.0;
  [[nodiscard]] double total() const { return udg_sens + engine + nn_sens + udg; }
  /// Deployment to a serving engine: the UDG-SENS construction plus the
  /// QueryEngine over it.
  [[nodiscard]] double to_engine() const { return udg_sens + engine; }
};

/// What a pass built: digests for the cross-pass identity check, and the
/// structure sizes the per-layer report quotes.
struct PassOutput {
  StageTimes t;
  std::uint64_t overlay_digest = 0;
  std::uint64_t engine_digest = 0;
  std::uint64_t nn_digest = 0;
  std::uint64_t udg_digest = 0;
  std::size_t overlay_missing = 0;
  std::size_t nn_missing = 0;
  std::size_t verified = 0;
  std::size_t wrong = 0;
  double points = 0.0;  ///< input points of the three constructions
  double overlay_nodes = 0.0;
  double overlay_edges = 0.0;
  double nn_edge_checks = 0.0;
  double udg_edges = 0.0;
  double csr_bytes = 0.0;
  double label_bytes = 0.0;
};

PassOutput run_pass(const Inputs& in, Tracer& tr, bool verify) {
  PassOutput out;
  const Tracer::Span pass_span(tr, "bench.pass");
  {
    const sens::UdgTileSpec spec = sens::UdgTileSpec::strict();
    const sens::Tiling tiling(spec.side);
    const sens::TileWindow window{0, 0, kUdgTiles, kUdgTiles};
    sens::PointSet pts;
    sens::UdgClassification cls;
    sens::Overlay ov;
    std::vector<double> weights;
    std::uint64_t t0 = monotonic_ns();
    {
      const Tracer::Span stage(tr, "bench.udg_sens");
      {
        const Tracer::Span s(tr, "geograph.poisson");
        pts = sens::poisson_point_set(window.bounds(tiling), kUdgLambda, in.udg_seed);
      }
      {
        const Tracer::Span s(tr, "tiles.classify_udg");
        cls = sens::classify_udg(spec, pts.points, window);
      }
      {
        const Tracer::Span s(tr, "core.udg_overlay");
        ov = sens::build_udg_overlay(cls, pts.points);
      }
      {
        const Tracer::Span s(tr, "graph.arc_weights");
        weights = ov.geo.length_arc_weights();
      }
    }
    out.t.udg_sens = seconds_since(t0);
    out.points += static_cast<double>(pts.size());
    out.overlay_digest = csr_digest(ov.geo.graph);
    out.overlay_missing = ov.edges_missing;
    out.overlay_nodes = static_cast<double>(ov.geo.size());
    out.overlay_edges = static_cast<double>(ov.geo.graph.num_edges());
    out.csr_bytes += csr_bytes(ov.geo.graph);

    const sens::QueryEngineParams params{
        .num_landmarks = kLandmarks, .max_stretch = kStretch, .seed = in.engine_seed};
    std::optional<sens::QueryEngine> engine;
    t0 = monotonic_ns();
    {
      const Tracer::Span s(tr, "serve.engine_build");
      engine.emplace(ov.geo.graph, std::move(weights), params);
    }
    out.t.engine = seconds_since(t0);
    out.label_bytes = 8.0 * static_cast<double>(engine->oracle().num_landmarks()) *
                      static_cast<double>(ov.geo.size());

    // A seeded sample of giant-component pairs: their answers are digested
    // every pass; the cold pass also checks a prefix against Dijkstra.
    const std::vector<std::uint32_t> giant = ov.comps.largest_members();
    sens::Rng pick = sens::Rng::stream(in.engine_seed, 0xb1d, 6);
    std::vector<sens::Query> qs(kSampleQueries);
    for (sens::Query& q : qs) {
      q.src = giant[pick.uniform_index(giant.size())];
      q.dst = giant[pick.uniform_index(giant.size())];
    }
    std::vector<double> answers(qs.size());
    (void)engine->estimate_distances(qs, answers);
    Digest d;
    d.add(engine->oracle().landmarks());
    d.add(std::span<const double>(answers));
    out.engine_digest = d.value();
    if (verify) {
      std::vector<double> exact(kVerifiedQueries);
      engine->exact_distances(std::span<const sens::Query>(qs).first(kVerifiedQueries), exact);
      for (std::size_t i = 0; i < kVerifiedQueries; ++i) {
        ++out.verified;
        if (!within_stretch(answers[i], exact[i], kStretch)) ++out.wrong;
      }
    }
  }
  {
    const sens::NnTileSpec spec = sens::NnTileSpec::paper();
    const sens::Tiling tiling(spec.side());
    const sens::TileWindow window{0, 0, kNnTiles, kNnTiles};
    const sens::Box bounds = window.bounds(tiling).expanded(spec.side());
    sens::PointSet pts;
    sens::NnClassification cls;
    std::optional<sens::KdTree> tree;
    sens::Overlay ov;
    const std::uint64_t t0 = monotonic_ns();
    {
      const Tracer::Span stage(tr, "bench.nn_sens");
      {
        const Tracer::Span s(tr, "geograph.poisson");
        pts = sens::poisson_point_set(bounds, 1.0, in.nn_seed);
      }
      {
        const Tracer::Span s(tr, "tiles.classify_nn");
        cls = sens::classify_nn(spec, pts.points, window);
      }
      {
        const Tracer::Span s(tr, "spatial.kdtree");
        tree.emplace(pts.points);
      }
      {
        const Tracer::Span s(tr, "core.nn_overlay");
        ov = sens::build_nn_overlay(cls, pts.points, *tree);
      }
    }
    out.t.nn_sens = seconds_since(t0);
    out.points += static_cast<double>(pts.size());
    out.nn_digest = csr_digest(ov.geo.graph);
    out.nn_missing = ov.edges_missing;
    out.nn_edge_checks = static_cast<double>(ov.edges_expected);
    out.csr_bytes += csr_bytes(ov.geo.graph);
  }
  {
    std::vector<sens::Vec2> hilbert;
    sens::GeoGraph udg;
    const std::uint64_t t0 = monotonic_ns();
    {
      const Tracer::Span stage(tr, "bench.udg");
      {
        const Tracer::Span s(tr, "spatial.reorder");
        const std::vector<std::uint32_t> perm =
            sens::spatial_order_permutation(in.deploy, sens::SpatialOrder::kHilbert);
        hilbert = sens::apply_permutation(std::span<const sens::Vec2>(in.deploy), perm);
      }
      {
        const Tracer::Span s(tr, "geograph.build_udg");
        udg = sens::build_udg(hilbert, in.deploy_window, 1.0);
      }
    }
    out.t.udg = seconds_since(t0);
    out.points += static_cast<double>(in.deploy.size());
    out.udg_digest = csr_digest(udg.graph);
    out.udg_edges = static_cast<double>(udg.graph.num_edges());
    out.csr_bytes += csr_bytes(udg.graph);
  }
  return out;
}

/// Count the pass's four structures as attempted, and each one that does
/// not reproduce the reference (or breaks its own claim) as failed.
void account(const PassOutput& pass, const PassOutput& ref, RunResult& res) {
  res.attempted += 4;
  res.failed += (pass.overlay_digest != ref.overlay_digest || pass.overlay_missing > 0) ? 1 : 0;
  res.failed += (pass.engine_digest != ref.engine_digest || pass.wrong > 0) ? 1 : 0;
  res.failed += (pass.nn_digest != ref.nn_digest || pass.nn_missing > 0) ? 1 : 0;
  res.failed += pass.udg_digest != ref.udg_digest ? 1 : 0;
  res.verified += pass.verified;
}

/// One number per pass: a stage time (data member) or a sum (member
/// function) of StageTimes.
template <typename Field>
std::vector<double> per_pass(const std::vector<PassOutput>& passes, Field field) {
  std::vector<double> out;
  out.reserve(passes.size());
  for (const PassOutput& p : passes) out.push_back(std::invoke(field, p.t));
  return out;
}

}  // namespace

std::uint64_t build_1m_input_digest(std::uint64_t seed) { return make_inputs(seed).digest; }

RunResult run_build_1m(const RunConfig& cfg) {
  RunResult res;
  const Inputs in = make_inputs(cfg.seed);
  res.input_digest = in.digest;
  Tracer off(false);

  const PassOutput cold = run_pass(in, off, /*verify=*/true);
  account(cold, cold, res);
  const double setup_s = cold.t.total();

  if (cfg.trace) {
    std::vector<PassOutput> untraced;
    for (std::size_t i = 0; i < kTracePasses; ++i) untraced.push_back(run_pass(in, off, false));
    Tracer tr(true);
    std::vector<PassOutput> traced;
    const double cpu0 = process_cpu_seconds();
    const std::uint64_t wall0 = monotonic_ns();
    for (std::size_t i = 0; i < kTracePasses; ++i) traced.push_back(run_pass(in, tr, false));
    const double wall_s = seconds_since(wall0);
    const double cpu_s = process_cpu_seconds() - cpu0;
    for (const PassOutput& p : untraced) account(p, cold, res);
    for (const PassOutput& p : traced) account(p, cold, res);

    const auto k = static_cast<double>(kTracePasses);
    std::vector<Metric>& m = res.layers;
    m.push_back({"geograph.poisson_s", "s", tr.total_seconds("geograph.poisson") / k,
                 tr.count("geograph.poisson")});
    m.push_back(span_median(tr, "geograph.build_udg_s", "s", "geograph.build_udg", 1.0));
    m.push_back({"geograph.udg_edges", "count", cold.udg_edges, 1});
    m.push_back(span_median(tr, "tiles.classify_udg_s", "s", "tiles.classify_udg", 1.0));
    m.push_back(span_median(tr, "tiles.classify_nn_s", "s", "tiles.classify_nn", 1.0));
    m.push_back(span_median(tr, "core.udg_overlay_s", "s", "core.udg_overlay", 1.0));
    m.push_back({"core.overlay_nodes", "count", cold.overlay_nodes, 1});
    m.push_back({"core.overlay_edges", "count", cold.overlay_edges, 1});
    m.push_back({"core.edges_missing", "count",
                 static_cast<double>(cold.overlay_missing + cold.nn_missing), 1});
    m.push_back(span_median(tr, "core.nn_overlay_s", "s", "core.nn_overlay", 1.0));
    m.push_back({"core.nn_edge_checks", "count", cold.nn_edge_checks, 1});
    m.push_back(span_median(tr, "spatial.kdtree_build_s", "s", "spatial.kdtree", 1.0));
    m.push_back(span_median(tr, "spatial.reorder_s", "s", "spatial.reorder", 1.0));
    m.push_back(span_median(tr, "graph.arc_weights_s", "s", "graph.arc_weights", 1.0));
    m.push_back({"graph.oracle_heap_pops", "count",
                 static_cast<double>(tr.counter_delta("serve.engine_build",
                                                      sens::obs::Counter::kDijkstraHeapPops)) /
                     k,
                 kTracePasses});
    m.push_back({"graph.oracle_relaxed_arcs", "count",
                 static_cast<double>(tr.counter_delta("serve.engine_build",
                                                      sens::obs::Counter::kDijkstraRelaxedArcs)) /
                     k,
                 kTracePasses});
    m.push_back({"graph.csr_bytes", "B", cold.csr_bytes, 1});
    m.push_back(span_median(tr, "serve.oracle_build_s", "s", "serve.engine_build", 1.0));
    m.push_back({"serve.label_bytes", "B", cold.label_bytes, 1});
    append_parallel_metrics(tr, "bench.pass", cpu_s, wall_s, m);
    const std::vector<double> traced_s = per_pass(traced, &StageTimes::total);
    const std::vector<double> untraced_s = per_pass(untraced, &StageTimes::total);
    append_overhead(std::accumulate(traced_s.begin(), traced_s.end(), 0.0),
                    std::accumulate(untraced_s.begin(), untraced_s.end(), 0.0), m);
    finish_trace(tr, cfg, res);
    res.notes.push_back("traced " + std::to_string(kTracePasses) + " passes after " +
                        std::to_string(kTracePasses) + " untraced ones");
    return res;
  }

  std::vector<PassOutput> passes;
  const std::uint64_t start = monotonic_ns();
  while (passes.size() < kMinPasses || seconds_since(start) < cfg.seconds) {
    passes.push_back(run_pass(in, off, false));
    account(passes.back(), cold, res);
  }

  const std::vector<double> pass_s = per_pass(passes, &StageTimes::total);
  const Latency pass = summarize(pass_s, 0.9);
  const std::size_t n = passes.size();
  res.named.push_back(
      {"udg_sens_build_s", "s", median(per_pass(passes, &StageTimes::udg_sens)), n});
  res.named.push_back({"engine_build_s", "s", median(per_pass(passes, &StageTimes::engine)), n});
  res.named.push_back({"nn_sens_build_s", "s", median(per_pass(passes, &StageTimes::nn_sens)), n});
  res.named.push_back({"udg_build_s", "s", median(per_pass(passes, &StageTimes::udg)), n});

  res.end_to_end.push_back({"setup_s", "s", setup_s, 1});
  res.end_to_end.push_back({"throughput_per_s", "1/s", cold.points / pass.median, n});
  res.end_to_end.push_back({"request_p50_ms", "ms", pass.median * 1e3, n});
  res.end_to_end.push_back({"request_tail_ms", "ms", pass.tail * 1e3, n});
  res.end_to_end.push_back(
      {"secondary_p50_ms", "ms", median(per_pass(passes, &StageTimes::to_engine)) * 1e3, n});
  res.notes.push_back("request = one warm pass of all four builds; tail at " +
                      percentile_label(pass.tail_p) + " of " + std::to_string(n) + " passes; " +
                      std::to_string(res.verified) + " engine answers verified against Dijkstra");
  return res;
}

}  // namespace perfbench
