// serve_hot: closed-loop serving with one caller on E17's overlay.
//
// UDG-SENS on 28 x 28 strict tiles at lambda = 25 (~2.5k overlay nodes)
// backs a QueryEngine (64 landmarks, stretch 1.5) and a SensRouter. Three of
// every four requests are a 1024-query estimate_distances batch between
// giant-component nodes; the fourth is a 64-pair route_batch between
// giant-representative tiles (the paper's Section 4.2 router). Requests
// cycle through a pool of batches drawn from --seed before timing starts. Every batch is
// verified once at set-up — each distance answer against exact Dijkstra,
// each route as a real overlay path between the two representatives — and
// every re-serve must then reproduce the batch's reference digest.
#include <memory>
#include <optional>
#include <span>
#include <utility>

#include "common.hpp"
#include "sens/core/sens_router.hpp"
#include "sens/core/udg_sens.hpp"
#include "sens/rng/rng.hpp"
#include "sens/serve/query_engine.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using sens::monotonic_ns;
using RoutePairs = std::vector<std::pair<sens::Site, sens::Site>>;

constexpr int kTiles = 28;
constexpr double kLambda = 25.0;
constexpr std::size_t kLandmarks = 64;
constexpr double kStretch = 1.5;
constexpr std::size_t kBatch = 1024;
constexpr std::size_t kDistBatches = 32;
constexpr std::size_t kRoutePairs = 64;
constexpr std::size_t kRouteBatches = 32;
constexpr std::size_t kSetupReps = 51;
// The served network is the same for every seed; --seed draws the traffic.
// (A 2.5k-node overlay varies enough from one deployment to the next that
// seed-to-seed differences in route length and fallback rate would swamp
// the run-to-run spread the benchmark must resolve.)
constexpr std::uint64_t kDeploymentSeed = 0x5e4e0001;
constexpr std::size_t kWarmupRequests = 512;
constexpr std::size_t kTraceRequests = 2000;
// Summaries that host stalls cannot move much: throughput is the answer
// rate per request cycle (three distance batches and one route batch),
// median over cycles; the p90 that request_tail_ms reports is the median
// over windows of kTailWindow distance batches. (A p99 of ~1 ms batches
// measures how often the host stalls the process for a millisecond; on a
// shared 4-vCPU VM it ranged over 2.5x between runs, so it is reported but
// not a gated metric.)
constexpr std::size_t kRequestCycle = 4;
constexpr std::size_t kTailWindow = 1000;

/// The structures a serving process holds. Heap-allocated and never moved:
/// the engine and the router keep pointers into the overlay.
struct Service {
  sens::Overlay overlay;
  std::optional<sens::QueryEngine> engine;
  std::optional<sens::SensRouter> router;
  std::size_t points = 0;
};

std::unique_ptr<Service> build_service(Tracer& tr) {
  auto s = std::make_unique<Service>();
  const Tracer::Span setup(tr, "bench.setup");
  const sens::UdgTileSpec spec = sens::UdgTileSpec::strict();
  const sens::Tiling tiling(spec.side);
  const sens::TileWindow window{0, 0, kTiles, kTiles};
  sens::PointSet pts;
  sens::UdgClassification cls;
  std::vector<double> weights;
  {
    const Tracer::Span span(tr, "geograph.poisson");
    pts = sens::poisson_point_set(window.bounds(tiling), kLambda, kDeploymentSeed);
  }
  {
    const Tracer::Span span(tr, "tiles.classify_udg");
    cls = sens::classify_udg(spec, pts.points, window);
  }
  {
    const Tracer::Span span(tr, "core.udg_overlay");
    s->overlay = sens::build_udg_overlay(cls, pts.points);
  }
  {
    const Tracer::Span span(tr, "graph.arc_weights");
    weights = s->overlay.geo.length_arc_weights();
  }
  {
    const Tracer::Span span(tr, "serve.engine_build");
    s->engine.emplace(s->overlay.geo.graph, std::move(weights),
                      sens::QueryEngineParams{.num_landmarks = kLandmarks,
                                              .max_stretch = kStretch,
                                              .seed = sens::mix_seed(kDeploymentSeed, 2)});
  }
  s->router.emplace(s->overlay);
  s->points = pts.size();
  return s;
}

std::uint64_t route_digest(const std::vector<sens::SensRoute>& routes) {
  Digest d;
  for (const sens::SensRoute& r : routes) {
    d.add(static_cast<std::uint64_t>(r.success));
    d.add(static_cast<std::uint64_t>(r.probes));
    d.add(std::span<const std::uint32_t>(r.node_path));
  }
  return d.value();
}

/// A route between two giant-representative tiles must succeed and walk
/// overlay edges from the source representative to the target's.
bool valid_route(const sens::Overlay& ov, const sens::SensRoute& r, sens::Site src,
                 sens::Site dst) {
  const std::vector<std::uint32_t>& path = r.node_path;
  if (!r.success || path.empty()) return false;
  if (path.front() != ov.rep_of(src) || path.back() != ov.rep_of(dst)) return false;
  for (std::size_t i = 1; i < path.size(); ++i) {
    if (!ov.geo.graph.has_edge(path[i - 1], path[i])) return false;
  }
  return true;
}

/// The fixed request pool and each batch's reference digest.
struct Pools {
  std::vector<std::vector<sens::Query>> dist;
  std::vector<RoutePairs> routes;
  std::vector<std::uint64_t> dist_ref;
  std::vector<std::uint64_t> route_ref;
  std::uint64_t digest = 0;
};

Pools make_pools(const Service& s, std::uint64_t seed) {
  Pools p;
  const std::vector<std::uint32_t> giant = s.overlay.comps.largest_members();
  const std::vector<sens::Site> reps = s.overlay.giant_rep_sites();
  sens::Rng pick = sens::Rng::stream(seed, 0x5e4, 1);
  Digest d;
  d.add(csr_digest(s.overlay.geo.graph));
  p.dist.resize(kDistBatches);
  for (std::vector<sens::Query>& batch : p.dist) {
    batch.resize(kBatch);
    for (sens::Query& q : batch) {
      q.src = giant[pick.uniform_index(giant.size())];
      q.dst = giant[pick.uniform_index(giant.size())];
      d.add(static_cast<std::uint64_t>(q.src) << 32 | q.dst);
    }
  }
  p.routes.resize(kRouteBatches);
  for (RoutePairs& batch : p.routes) {
    batch.resize(kRoutePairs);
    for (auto& [a, b] : batch) {
      a = reps[pick.uniform_index(reps.size())];
      b = reps[pick.uniform_index(reps.size())];
      d.add(static_cast<std::uint64_t>(s.overlay.tile_index(a)) << 32 | s.overlay.tile_index(b));
    }
  }
  p.digest = d.value();
  return p;
}

/// Verify every pooled batch once and record its reference digest.
void verify_pools(const Service& s, Pools& p, RunResult& res) {
  std::vector<double> est(kBatch);
  std::vector<double> exact(kBatch);
  for (const std::vector<sens::Query>& batch : p.dist) {
    (void)s.engine->estimate_distances(batch, est);
    s.engine->exact_distances(batch, exact);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      ++res.attempted;
      ++res.verified;
      if (!within_stretch(est[i], exact[i], kStretch)) ++res.failed;
    }
    Digest d;
    d.add(std::span<const double>(est));
    p.dist_ref.push_back(d.value());
  }
  for (const RoutePairs& batch : p.routes) {
    const std::vector<sens::SensRoute> routes = sens::route_batch(*s.router, batch);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      ++res.attempted;
      ++res.verified;
      if (!valid_route(s.overlay, routes[i], batch[i].first, batch[i].second)) ++res.failed;
    }
    p.route_ref.push_back(route_digest(routes));
  }
}

/// What a window of requests measured.
struct Window {
  std::vector<double> dist_s;   ///< per distance batch
  std::vector<double> route_s;  ///< per route batch
  std::vector<double> request_s;        ///< per request, in order
  std::vector<double> request_answers;  ///< distance answers or routes completed
  double busy_s = 0.0;                  ///< sum of request latencies
  sens::ServeStats stats;
  std::size_t routes = 0;
  std::size_t routes_ok = 0;
  double node_hops = 0.0;
  double probes = 0.0;
};

/// One closed-loop caller cycling through the pools: requests 4k..4k+2 are
/// distance batches, request 4k+3 a route batch.
class Caller {
 public:
  Caller(const Service& s, const Pools& p) : s_(s), p_(p), out_(kBatch) {}

  void restart() { index_ = next_dist_ = next_route_ = 0; }

  void request(Tracer& tr, Window& w, RunResult& res) {
    const bool route = index_ % 4 == 3;
    ++index_;
    if (!route) {
      const std::size_t b = next_dist_++ % p_.dist.size();
      sens::ServeStats st;
      const std::uint64_t t0 = monotonic_ns();
      {
        const Tracer::Span rq(tr, "bench.request");
        const Tracer::Span span(tr, "serve.estimate_distances");
        st = s_.engine->estimate_distances(p_.dist[b], out_);
      }
      const double dt = seconds_since(t0);
      w.dist_s.push_back(dt);
      w.request_s.push_back(dt);
      w.request_answers.push_back(static_cast<double>(st.queries));
      w.busy_s += dt;
      w.stats += st;
      Digest d;
      d.add(std::span<const double>(out_));
      res.attempted += st.queries;
      if (d.value() != p_.dist_ref[b]) res.failed += st.queries;
      return;
    }
    const std::size_t b = next_route_++ % p_.routes.size();
    std::vector<sens::SensRoute> routes;
    const std::uint64_t t0 = monotonic_ns();
    {
      const Tracer::Span rq(tr, "bench.request");
      const Tracer::Span span(tr, "core.route_batch");
      routes = sens::route_batch(*s_.router, p_.routes[b]);
    }
    const double dt = seconds_since(t0);
    w.route_s.push_back(dt);
    w.request_s.push_back(dt);
    w.busy_s += dt;
    std::size_t ok = 0;
    for (const sens::SensRoute& r : routes) {
      ++w.routes;
      if (!r.success) continue;
      ++ok;
      w.node_hops += static_cast<double>(r.node_hops());
      w.probes += static_cast<double>(r.probes);
    }
    w.routes_ok += ok;
    w.request_answers.push_back(static_cast<double>(ok));
    res.attempted += routes.size();
    if (route_digest(routes) != p_.route_ref[b]) res.failed += routes.size();
  }

 private:
  const Service& s_;
  const Pools& p_;
  std::vector<double> out_;
  std::size_t index_ = 0;
  std::size_t next_dist_ = 0;
  std::size_t next_route_ = 0;
};

/// Serve `requests` requests, or for `seconds` when `requests` is 0.
Window run_window(Caller& caller, Tracer& tr, RunResult& res, std::size_t requests,
                  double seconds) {
  Window w;
  const std::uint64_t start = monotonic_ns();
  for (std::size_t i = 0; requests > 0 ? i < requests : seconds_since(start) < seconds; ++i) {
    caller.request(tr, w, res);
  }
  return w;
}

}  // namespace

std::uint64_t serve_hot_input_digest(std::uint64_t seed) {
  Tracer off(false);
  const std::unique_ptr<Service> s = build_service(off);
  return make_pools(*s, seed).digest;
}

RunResult run_serve_hot(const RunConfig& cfg) {
  RunResult res;
  Tracer off(false);
  Tracer tr(cfg.trace);

  // Set-up: overlay + engine, built several times; the last build serves.
  std::vector<double> setup_s;
  std::unique_ptr<Service> service;
  const std::size_t reps = cfg.trace ? 1 : kSetupReps;
  for (std::size_t r = 0; r < reps; ++r) {
    service.reset();
    const std::uint64_t t0 = monotonic_ns();
    service = build_service(cfg.trace ? tr : off);
    setup_s.push_back(seconds_since(t0));
  }
  const Service& s = *service;
  Pools pools = make_pools(s, cfg.seed);
  res.input_digest = pools.digest;
  verify_pools(s, pools, res);

  Caller caller(s, pools);
  // Warm-up, discarded: the pool spawns its workers and the working set
  // faults in during the first requests of a process.
  (void)run_window(caller, off, res, kWarmupRequests, 0.0);

  if (cfg.trace) {
    caller.restart();
    const Window untraced = run_window(caller, off, res, kTraceRequests, 0.0);
    caller.restart();
    const double cpu0 = process_cpu_seconds();
    const std::uint64_t wall0 = monotonic_ns();
    const Window w = run_window(caller, tr, res, kTraceRequests, 0.0);
    const double wall_s = seconds_since(wall0);
    const double cpu_s = process_cpu_seconds() - cpu0;

    const sens::Overlay& ov = s.overlay;
    std::vector<Metric>& m = res.layers;
    m.push_back(span_median(tr, "geograph.poisson_s", "s", "geograph.poisson", 1.0));
    m.push_back(span_median(tr, "tiles.classify_udg_s", "s", "tiles.classify_udg", 1.0));
    m.push_back(span_median(tr, "core.udg_overlay_s", "s", "core.udg_overlay", 1.0));
    m.push_back({"core.overlay_nodes", "count", static_cast<double>(ov.geo.size()), 1});
    m.push_back({"core.overlay_edges", "count", static_cast<double>(ov.geo.graph.num_edges()), 1});
    m.push_back({"core.edges_missing", "count", static_cast<double>(ov.edges_missing), 1});
    m.push_back({"core.route_success_ratio", "ratio",
                 ratio(static_cast<double>(w.routes_ok), static_cast<double>(w.routes)), w.routes});
    m.push_back({"core.route_node_hops", "hops",
                 ratio(w.node_hops, static_cast<double>(w.routes_ok)), w.routes_ok});
    m.push_back({"perc.probes_per_route", "count",
                 ratio(w.probes, static_cast<double>(w.routes_ok)), w.routes_ok});
    m.push_back(span_median(tr, "graph.arc_weights_s", "s", "graph.arc_weights", 1.0));
    m.push_back({"graph.oracle_heap_pops", "count",
                 static_cast<double>(tr.counter_delta("serve.engine_build",
                                                      sens::obs::Counter::kDijkstraHeapPops)),
                 1});
    m.push_back({"graph.oracle_relaxed_arcs", "count",
                 static_cast<double>(tr.counter_delta("serve.engine_build",
                                                      sens::obs::Counter::kDijkstraRelaxedArcs)),
                 1});
    m.push_back({"graph.csr_bytes", "B", csr_bytes(ov.geo.graph), 1});
    m.push_back({"graph.heap_pops_per_fallback", "count",
                 ratio(static_cast<double>(tr.counter_delta(
                           "serve.estimate_distances", sens::obs::Counter::kDijkstraHeapPops)),
                       static_cast<double>(w.stats.exact)),
                 w.stats.exact});
    m.push_back(span_median(tr, "serve.oracle_build_s", "s", "serve.engine_build", 1.0));
    m.push_back({"serve.label_bytes", "B",
                 8.0 * static_cast<double>(s.engine->oracle().num_landmarks()) *
                     static_cast<double>(ov.geo.size()),
                 1});
    m.push_back({"serve.certified_ratio", "ratio",
                 ratio(static_cast<double>(w.stats.certified),
                       static_cast<double>(w.stats.queries)),
                 w.stats.queries});
    m.push_back({"serve.fallbacks_per_batch", "count",
                 ratio(static_cast<double>(w.stats.exact), static_cast<double>(w.dist_s.size())),
                 w.dist_s.size()});
    append_parallel_metrics(tr, "bench.request", cpu_s, wall_s, m);
    append_overhead(w.busy_s, untraced.busy_s, m);
    finish_trace(tr, cfg, res);
    res.notes.push_back("traced " + std::to_string(kTraceRequests) + " requests after the same " +
                        std::to_string(kTraceRequests) + " untraced");
    return res;
  }

  const Window w = run_window(caller, off, res, 0, cfg.seconds);
  const Latency dist = summarize(w.dist_s, 0.99);
  const Latency dist_p90 = summarize_windowed(w.dist_s, 0.9, kTailWindow);
  const Latency route = summarize(w.route_s, 0.5);
  const double qps = windowed_rate(w.request_answers, w.request_s, kRequestCycle);
  res.named.push_back({"serve_qps", "answers/s", qps, w.dist_s.size() + w.route_s.size()});
  res.named.push_back({"serve_p50_us", "us", dist.median * 1e6, dist.count});
  res.named.push_back({"serve_" + percentile_label(dist_p90.tail_p) + "_us", "us",
                       dist_p90.tail * 1e6, dist_p90.count});
  res.named.push_back({"serve_" + percentile_label(dist.tail_p) + "_us", "us", dist.tail * 1e6,
                       dist.count});
  res.named.push_back({"route_p50_us", "us", route.median * 1e6, route.count});

  res.end_to_end.push_back({"setup_s", "s", median(setup_s), setup_s.size()});
  res.end_to_end.push_back({"throughput_per_s", "1/s", qps, w.dist_s.size() + w.route_s.size()});
  res.end_to_end.push_back({"request_p50_ms", "ms", dist.median * 1e3, dist.count});
  res.end_to_end.push_back({"request_tail_ms", "ms", dist_p90.tail * 1e3, dist_p90.count});
  res.end_to_end.push_back({"secondary_p50_ms", "ms", route.median * 1e3, route.count});
  res.notes.push_back("overlay " + std::to_string(s.overlay.geo.size()) + " nodes from " +
                      std::to_string(s.points) + " points; " + std::to_string(kDistBatches) +
                      " distance and " + std::to_string(kRouteBatches) +
                      " route batches pooled, each verified once at set-up (" +
                      std::to_string(res.verified) + " answers) and digest-checked on every serve");
  res.notes.push_back("serve_qps: median over " +
                      std::to_string(w.request_s.size() / kRequestCycle) +
                      " request cycles; serve " + percentile_label(dist_p90.tail_p) +
                      ": median over " + std::to_string(dist_p90.windows) + " windows of " +
                      std::to_string(kTailWindow) + " batches; serve " +
                      percentile_label(dist.tail_p) + ": all batches");
  return res;
}

}  // namespace perfbench
