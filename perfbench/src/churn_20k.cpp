// churn_20k: a DynamicHng (p = 0.25, k = 3) over 20k Poisson nodes at
// lambda = 4, followed by an EpochQueryEngine (16 farthest-point landmarks,
// stretch 1.25), driven by a closed loop of bursts.
//
// A normal burst is 32 join/leave events (p_join = 0.5), preceded by
// re-joins that repay earlier fault casualties (at most 64 per burst).
// Every 8th burst is a fault burst: a FaultInjector plan — a blackout box
// over 1% of the window plus a 1% crash draw — picks casualties, which are
// removed in descending slot order. After each burst the loop reads
// overlay() (materialization), then refresh()es the epoch engine, then
// serves one 256-query batch with verdicts. The whole event trace — every
// joining point, leave draw, fault plan and query draw — is generated
// before the timed loop starts (the churn from a fixed seed, the queries
// from --seed); leaves and queries are drawn as fractions of the live id
// range, resolved against it when they run.
//
// Checks: after every refresh the epoch snapshot must equal
// dyn.overlay(); no verdict may be stale (queries name live slots); and a
// seeded sample of each batch is re-answered by exact Dijkstra on the epoch
// snapshot, which every verdict must agree with (E19's soundness rule).
#include <algorithm>
#include <cmath>
#include <memory>
#include <span>
#include <utility>

#include "common.hpp"
#include "sens/dynamic/dynamic_hng.hpp"
#include "sens/fault/fault_plan.hpp"
#include "sens/geograph/point_set.hpp"
#include "sens/rng/rng.hpp"
#include "sens/serve/epoch_engine.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using sens::monotonic_ns;

constexpr std::size_t kNodes = 20000;
constexpr double kLambda = 4.0;
constexpr sens::HngParams kHng{.promote_p = 0.25, .k = 3, .max_level = 48};
constexpr std::size_t kLandmarks = 16;
constexpr double kStretch = 1.25;
constexpr std::size_t kBurstEvents = 32;
constexpr double kJoinP = 0.5;
constexpr std::size_t kFaultEvery = 8;
constexpr double kCrashP = 0.01;
constexpr double kBlackoutSide = 0.1;  // of the window side: 1% of its area
constexpr std::size_t kMaxRejoin = 64;
constexpr std::size_t kQueries = 256;
constexpr std::size_t kCheckedPerBurst = 8;
constexpr std::size_t kTraceBursts = 4096;
constexpr std::size_t kWarmupBursts = 8;
constexpr std::size_t kMinBursts = 100;
constexpr std::size_t kTailWindow = 100;  // bursts: p90 leaves ten beyond it
constexpr std::size_t kSetupReps = 7;
constexpr std::size_t kTraceWindowBursts = 96;
// The network and its churn are the same for every seed: the starting
// points, HNG promotion draws, landmark picks and the whole event and fault
// trace come from this constant, and --seed draws the read traffic (the
// queries) and the verification sample. Churn moves the landmarks around
// (a swap-remove hands a pivot's id to another node), so two event traces
// leave engines whose exact-fallback rate differs by up to 1.7x, which
// would swamp the run-to-run spread the benchmark must resolve.
constexpr std::uint64_t kNetworkSeed = 0xc4e0001;

struct Event {
  bool join = false;
  sens::Vec2 p;    ///< joining point
  double u = 0.0;  ///< leaving slot, as a fraction of the live id range
};

struct Burst {
  bool fault = false;
  sens::FaultPlan plan;              ///< fault bursts
  std::vector<Event> events;         ///< normal bursts
  std::vector<sens::Vec2> rejoin;    ///< normal bursts: re-join candidates
  std::vector<double> query_u;       ///< 2 * kQueries endpoint fractions
};

struct ChurnTrace {
  std::uint64_t hng_seed = 0;
  std::uint64_t engine_seed = 0;
  std::uint64_t check_seed = 0;
  sens::Box window;  ///< the deployment window; its points are drawn at set-up
  std::vector<Burst> bursts;

  [[nodiscard]] std::uint64_t digest() const {
    Digest d;
    d.add(hng_seed);
    d.add(engine_seed);
    d.add(window.hi.x);
    for (const Burst& b : bursts) {
      d.add(static_cast<std::uint64_t>(b.fault));
      d.add(b.plan.node_crash);
      d.add(b.plan.seed);
      for (const sens::Box& box : b.plan.blackouts) {
        d.add(box.lo.x);
        d.add(box.lo.y);
      }
      for (const Event& e : b.events) {
        d.add(static_cast<std::uint64_t>(e.join));
        d.add(e.p.x);
        d.add(e.p.y);
        d.add(e.u);
      }
      for (const sens::Vec2 p : b.rejoin) {
        d.add(p.x);
        d.add(p.y);
      }
      d.add(std::span<const double>(b.query_u));
    }
    return d.value();
  }
};

ChurnTrace make_trace(std::uint64_t seed, std::size_t nodes) {
  ChurnTrace t;
  t.hng_seed = sens::mix_seed(kNetworkSeed, 1);
  t.engine_seed = sens::mix_seed(kNetworkSeed, 2);
  t.check_seed = sens::mix_seed(seed, 0xc4e0003);
  const double side = std::sqrt(static_cast<double>(nodes) / kLambda);
  const sens::Box window{{0.0, 0.0}, {side, side}};
  t.window = window;
  sens::Rng rng = sens::Rng::stream(kNetworkSeed, 5);
  sens::Rng traffic = sens::Rng::stream(seed, 0xc4e, 6);
  auto point = [&] { return sens::Vec2{rng.uniform(0.0, side), rng.uniform(0.0, side)}; };
  t.bursts.resize(kTraceBursts);
  for (std::size_t i = 0; i < t.bursts.size(); ++i) {
    Burst& b = t.bursts[i];
    b.fault = i % kFaultEvery == kFaultEvery - 1;
    if (b.fault) {
      const double box = kBlackoutSide * side;
      const sens::Vec2 lo{rng.uniform(0.0, side - box), rng.uniform(0.0, side - box)};
      b.plan.node_crash = kCrashP;
      b.plan.blackouts = {{lo, {lo.x + box, lo.y + box}}};
      b.plan.seed = sens::mix_seed(kNetworkSeed, 0x100 + i);
    } else {
      b.events.resize(kBurstEvents);
      for (Event& e : b.events) {
        e.join = rng.bernoulli(kJoinP);
        if (e.join) {
          e.p = point();
        } else {
          e.u = rng.uniform();
        }
      }
      b.rejoin.resize(kMaxRejoin);
      for (sens::Vec2& p : b.rejoin) p = point();
    }
    b.query_u.resize(2 * kQueries);
    for (double& u : b.query_u) u = traffic.uniform();
  }
  return t;
}

std::uint32_t slot_of(double u, std::size_t n) {
  const auto slot = static_cast<std::size_t>(u * static_cast<double>(n));
  return static_cast<std::uint32_t>(std::min(n - 1, slot));
}

bool same_graph(const sens::CsrGraph& a, const sens::CsrGraph& b) {
  if (a.num_vertices() != b.num_vertices() || a.num_edges() != b.num_edges()) return false;
  for (std::uint32_t v = 0; v < a.num_vertices(); ++v) {
    if (!std::ranges::equal(a.neighbors(v), b.neighbors(v))) return false;
  }
  return true;
}

/// A served answer agrees with exact Dijkstra on the epoch snapshot.
bool sound(const sens::EpochQueryEngine& engine, sens::Query q, double answer, sens::Verdict v,
           sens::DijkstraScratch& scratch) {
  const sens::CsrGraph& g = engine.graph();
  if (v == sens::Verdict::kStale || q.src >= g.num_vertices() || q.dst >= g.num_vertices()) {
    return false;  // queries are drawn inside the live id range
  }
  const double exact = sens::dijkstra_cost(g, q.src, q.dst, engine.arc_weights(), scratch);
  switch (v) {
    case sens::Verdict::kExact:
      return exact < sens::kInfCost && std::abs(answer - exact) <= 1e-9 * (1.0 + exact);
    case sens::Verdict::kCertified:
      return exact < sens::kInfCost && within_stretch(answer, exact, engine.max_stretch());
    case sens::Verdict::kDisconnected:
      return exact >= sens::kInfCost;
    default:
      return false;
  }
}

/// The maintainer and the engine that follows it. Heap-allocated: the
/// engine keeps a pointer to the maintainer.
struct State {
  std::unique_ptr<sens::DynamicHng> dyn;
  std::unique_ptr<sens::EpochQueryEngine> engine;
  double setup_s = 0.0;
};

State set_up(const ChurnTrace& t, Tracer& tr) {
  State s;
  const std::uint64_t t0 = monotonic_ns();
  const Tracer::Span setup(tr, "bench.setup");
  sens::PointSet initial;
  {
    const Tracer::Span span(tr, "geograph.poisson");
    initial = sens::poisson_point_set(t.window, kLambda, kNetworkSeed);
  }
  {
    const Tracer::Span span(tr, "dynamic.adopt");
    s.dyn = std::make_unique<sens::DynamicHng>(initial.points, kHng, t.hng_seed);
  }
  {
    const Tracer::Span span(tr, "serve.epoch_build");
    s.engine = std::make_unique<sens::EpochQueryEngine>(
        *s.dyn, sens::EpochEngineParams{.num_landmarks = kLandmarks,
                                        .max_stretch = kStretch,
                                        .seed = t.engine_seed,
                                        .selection = sens::LandmarkSelection::kFarthestPoint});
  }
  s.setup_s = seconds_since(t0);
  return s;
}

/// What a window of bursts measured.
struct Window {
  std::vector<double> refresh_s;
  std::vector<double> serve_s;
  /// Per burst: maintenance time (event application, fault planning,
  /// materialization) and the events it absorbed.
  std::vector<double> burst_maint_s;
  std::vector<double> burst_events;
  double busy_s = 0.0;  ///< maintenance + refresh + serve
  std::size_t events = 0;
  std::size_t fault_bursts = 0;
  std::size_t casualties = 0;
  double relinked = 0.0;
  double edge_delta = 0.0;
  sens::EpochServeStats served;
  std::size_t deltas = 0;
  std::size_t resyncs = 0;
  std::size_t demoted = 0;
  std::size_t recruited = 0;
};

/// Replays the trace, burst by burst, against one State.
class Churner {
 public:
  Churner(const ChurnTrace& t, State& s)
      : t_(t), s_(s), queries_(kQueries), out_(kQueries), verdicts_(kQueries) {}

  [[nodiscard]] bool exhausted() const { return next_ >= t_.bursts.size(); }

  void burst(Tracer& tr, Window& w, RunResult& res) {
    const std::size_t index = next_++;
    const Burst& b = t_.bursts[index];
    const std::size_t events_before = w.events;
    sens::DynamicHng& dyn = *s_.dyn;
    sens::EpochQueryEngine& engine = *s_.engine;
    sens::EpochServeStats served;
    {
      const Tracer::Span burst_span(tr, "bench.burst");
      std::uint64_t t0 = monotonic_ns();
      if (b.fault) {
        std::vector<std::uint8_t> alive;
        {
          const Tracer::Span span(tr, "fault.alive_mask");
          alive = sens::FaultInjector(b.plan).alive_mask(dyn.points());
        }
        std::size_t killed = 0;
        for (auto slot = static_cast<std::uint32_t>(alive.size()); slot-- > 0;) {
          if (alive[slot] != 0) continue;
          remove(tr, w, slot);
          ++killed;
        }
        debt_ += killed;
        w.casualties += killed;
        ++w.fault_bursts;
      } else {
        const std::size_t rejoin = std::min(debt_, b.rejoin.size());
        for (std::size_t i = 0; i < rejoin; ++i) insert(tr, w, b.rejoin[i]);
        debt_ -= rejoin;
        for (const Event& e : b.events) {
          if (e.join || dyn.size() < 2) {
            insert(tr, w, e.p);
          } else {
            remove(tr, w, slot_of(e.u, dyn.size()));
          }
        }
      }
      {
        const Tracer::Span span(tr, "dynamic.materialize");
        (void)dyn.overlay();
      }
      const double maint = seconds_since(t0);

      t0 = monotonic_ns();
      sens::EpochRefreshStats rs;
      {
        const Tracer::Span span(tr, "serve.refresh");
        rs = engine.refresh();
      }
      const double refresh = seconds_since(t0);

      const std::size_t n = engine.graph().num_vertices();
      for (std::size_t i = 0; i < kQueries; ++i) {
        queries_[i] = {slot_of(b.query_u[2 * i], n), slot_of(b.query_u[2 * i + 1], n)};
      }
      t0 = monotonic_ns();
      {
        const Tracer::Span span(tr, "serve.epoch_serve");
        served = engine.serve(queries_, out_, verdicts_);
      }
      const double serve = seconds_since(t0);

      w.burst_maint_s.push_back(maint);
      w.burst_events.push_back(static_cast<double>(w.events - events_before));
      w.busy_s += maint + refresh + serve;
      w.refresh_s.push_back(refresh);
      w.serve_s.push_back(serve);
      w.deltas += rs.deltas_applied;
      w.resyncs += rs.resynced ? 1 : 0;
      w.demoted += rs.landmarks_demoted;
      w.recruited += rs.landmarks_recruited;
      w.served.queries += served.queries;
      w.served.exact += served.exact;
      w.served.certified += served.certified;
      w.served.disconnected += served.disconnected;
      w.served.stale += served.stale;
    }

    // Checks, outside every span and timer.
    res.attempted += 1 + served.queries;
    if (!same_graph(engine.graph(), dyn.overlay())) ++res.failed;
    res.failed += served.stale;
    sens::Rng pick = sens::Rng::stream(t_.check_seed, index);
    for (std::size_t c = 0; c < kCheckedPerBurst; ++c) {
      const std::size_t i = pick.uniform_index(kQueries);
      ++res.verified;
      if (verdicts_[i] != sens::Verdict::kStale &&
          !sound(engine, queries_[i], out_[i], verdicts_[i], scratch_)) {
        ++res.failed;
      }
    }
  }

 private:
  void insert(Tracer& tr, Window& w, sens::Vec2 p) {
    {
      const Tracer::Span span(tr, "dynamic.insert");
      (void)s_.dyn->insert(p);
    }
    count_event(w);
  }

  void remove(Tracer& tr, Window& w, std::uint32_t slot) {
    {
      const Tracer::Span span(tr, "dynamic.remove");
      s_.dyn->remove(slot);
    }
    count_event(w);
  }

  void count_event(Window& w) const {
    const sens::DynamicHngStats& e = s_.dyn->last_event();
    ++w.events;
    w.relinked += static_cast<double>(e.relinked);
    w.edge_delta += static_cast<double>(e.edges_added + e.edges_removed);
  }

  const ChurnTrace& t_;
  State& s_;
  std::size_t next_ = 0;
  std::size_t debt_ = 0;  ///< casualties not yet re-joined
  std::vector<sens::Query> queries_;
  std::vector<double> out_;
  std::vector<sens::Verdict> verdicts_;
  sens::DijkstraScratch scratch_;
};

/// Run `bursts` bursts, or (when 0) until `seconds` have passed and at
/// least kMinBursts ran, stopping early if the trace runs out.
Window run_window(Churner& churner, Tracer& tr, RunResult& res, std::size_t bursts,
                  double seconds) {
  Window w;
  const std::uint64_t start = monotonic_ns();
  for (std::size_t i = 0; !churner.exhausted(); ++i) {
    if (bursts > 0 ? i >= bursts : (i >= kMinBursts && seconds_since(start) >= seconds)) break;
    churner.burst(tr, w, res);
  }
  return w;
}

}  // namespace

std::uint64_t churn_20k_input_digest(std::uint64_t seed) {
  return make_trace(seed, kNodes).digest();
}

ChurnProbe probe_churn(std::uint64_t seed, std::size_t nodes, double seconds) {
  ChurnProbe probe;
  const ChurnTrace trace = make_trace(seed, nodes);
  probe.trace_ready_ns = monotonic_ns();
  probe.trace_digest_before = trace.digest();
  probe.trace_bursts = trace.bursts.size();
  Tracer off(false);
  State state = set_up(trace, off);
  Churner churner(trace, state);
  RunResult res;
  probe.timing_start_ns = monotonic_ns();
  const std::uint64_t start = probe.timing_start_ns;
  while (!churner.exhausted() && seconds_since(start) < seconds) {
    Window w;
    churner.burst(off, w, res);
    ++probe.bursts_run;
  }
  probe.trace_digest_after = trace.digest();
  probe.failed = res.failed;
  return probe;
}

RunResult run_churn_20k(const RunConfig& cfg) {
  RunResult res;
  const ChurnTrace trace = make_trace(cfg.seed, kNodes);
  res.input_digest = trace.digest();
  Tracer off(false);

  if (cfg.trace) {
    // The same bursts twice from the same start state: untraced, then
    // traced (set-up included, warm-up bursts excluded).
    State a = set_up(trace, off);
    Churner ca(trace, a);
    (void)run_window(ca, off, res, kWarmupBursts, 0.0);
    const Window untraced = run_window(ca, off, res, kTraceWindowBursts, 0.0);

    Tracer tr(true);
    State b = set_up(trace, tr);
    Churner cb(trace, b);
    (void)run_window(cb, off, res, kWarmupBursts, 0.0);
    const double cpu0 = process_cpu_seconds();
    const std::uint64_t wall0 = monotonic_ns();
    const Window w = run_window(cb, tr, res, kTraceWindowBursts, 0.0);
    const double wall_s = seconds_since(wall0);
    const double cpu_s = process_cpu_seconds() - cpu0;

    const auto events = static_cast<double>(w.events);
    const auto refreshes = static_cast<double>(w.refresh_s.size());
    const auto batches = static_cast<double>(w.serve_s.size());
    const sens::CsrGraph& g = b.engine->graph();
    std::vector<Metric>& m = res.layers;
    m.push_back(span_median(tr, "geograph.poisson_s", "s", "geograph.poisson", 1.0));
    m.push_back({"spatial.knn_candidates_per_event", "count",
                 ratio(static_cast<double>(
                           tr.counter_delta("dynamic.insert",
                                            sens::obs::Counter::kGridKnnCandidates) +
                           tr.counter_delta("dynamic.remove",
                                            sens::obs::Counter::kGridKnnCandidates)),
                       events),
                 w.events});
    m.push_back({"graph.oracle_heap_pops", "count",
                 static_cast<double>(tr.counter_delta("serve.epoch_build",
                                                      sens::obs::Counter::kDijkstraHeapPops)),
                 1});
    m.push_back({"graph.oracle_relaxed_arcs", "count",
                 static_cast<double>(tr.counter_delta("serve.epoch_build",
                                                      sens::obs::Counter::kDijkstraRelaxedArcs)),
                 1});
    m.push_back({"graph.csr_bytes", "B", csr_bytes(g), 1});
    m.push_back({"graph.refresh_heap_pops", "count",
                 ratio(static_cast<double>(tr.counter_delta(
                           "serve.refresh", sens::obs::Counter::kDijkstraHeapPops)),
                       refreshes),
                 w.refresh_s.size()});
    m.push_back(span_median(tr, "serve.oracle_build_s", "s", "serve.epoch_build", 1.0));
    m.push_back({"serve.label_bytes", "B",
                 8.0 * static_cast<double>(b.engine->oracle().num_landmarks()) *
                     static_cast<double>(g.num_vertices()),
                 1});
    m.push_back({"serve.refresh_deltas", "count", ratio(static_cast<double>(w.deltas), refreshes),
                 w.refresh_s.size()});
    m.push_back({"serve.refresh_resyncs", "count", static_cast<double>(w.resyncs),
                 w.refresh_s.size()});
    m.push_back({"serve.landmarks_demoted", "count", static_cast<double>(w.demoted),
                 w.refresh_s.size()});
    m.push_back({"serve.landmarks_recruited", "count", static_cast<double>(w.recruited),
                 w.refresh_s.size()});
    m.push_back({"serve.epoch_certified_ratio", "ratio",
                 ratio(static_cast<double>(w.served.certified),
                       static_cast<double>(w.served.queries)),
                 w.served.queries});
    m.push_back({"serve.epoch_fallbacks_per_batch", "count",
                 ratio(static_cast<double>(w.served.exact), batches), w.serve_s.size()});
    m.push_back(span_median(tr, "dynamic.adopt_s", "s", "dynamic.adopt", 1.0));
    // Means, not medians: a few top-level events cost 100x the typical one,
    // and the mean is what the event throughput pays.
    m.push_back({"dynamic.insert_us", "us",
                 ratio(tr.total_seconds("dynamic.insert") * 1e6,
                       static_cast<double>(tr.count("dynamic.insert"))),
                 tr.count("dynamic.insert")});
    m.push_back({"dynamic.remove_us", "us",
                 ratio(tr.total_seconds("dynamic.remove") * 1e6,
                       static_cast<double>(tr.count("dynamic.remove"))),
                 tr.count("dynamic.remove")});
    m.push_back(span_median(tr, "dynamic.materialize_ms", "ms", "dynamic.materialize", 1e3));
    m.push_back({"dynamic.relinked_per_event", "count", ratio(w.relinked, events), w.events});
    m.push_back({"dynamic.edge_delta_per_event", "count", ratio(w.edge_delta, events), w.events});
    m.push_back(span_median(tr, "fault.alive_mask_ms", "ms", "fault.alive_mask", 1e3));
    m.push_back({"fault.casualties_per_fault_burst", "count",
                 ratio(static_cast<double>(w.casualties), static_cast<double>(w.fault_bursts)),
                 w.fault_bursts});
    append_parallel_metrics(tr, "bench.burst", cpu_s, wall_s, m);
    append_overhead(w.busy_s, untraced.busy_s, m);
    finish_trace(tr, cfg, res);
    res.notes.push_back("traced " + std::to_string(kTraceWindowBursts) +
                        " bursts after the same bursts untraced from a fresh set-up");
    return res;
  }

  std::vector<double> setup_s;
  State state;
  for (std::size_t r = 0; r < kSetupReps; ++r) {
    state.engine.reset();  // before the maintainer it points to
    state = set_up(trace, off);
    setup_s.push_back(state.setup_s);
  }
  Churner churner(trace, state);
  // Warm-up, discarded: one fault cycle of bursts.
  (void)run_window(churner, off, res, kWarmupBursts, 0.0);
  const Window w = run_window(churner, off, res, 0, cfg.seconds);
  if (churner.exhausted()) res.notes.push_back("the event trace ran out before the time did");

  // Throughput per fault cycle (kFaultEvery bursts, one of them a fault
  // burst), median over cycles; the refresh tail per window of
  // kTailWindow bursts, median over windows.
  const Latency refresh = summarize_windowed(w.refresh_s, 0.9, kTailWindow);
  const Latency serve = summarize(w.serve_s, 0.5);
  const double events_per_s = windowed_rate(w.burst_events, w.burst_maint_s, kFaultEvery);
  const std::size_t cycles = w.burst_events.size() / kFaultEvery;
  res.named.push_back({"churn_events_per_s", "events/s", events_per_s, cycles});
  res.named.push_back({"refresh_p50_ms", "ms", refresh.median * 1e3, refresh.count});
  res.named.push_back({"refresh_" + percentile_label(refresh.tail_p) + "_ms", "ms",
                       refresh.tail * 1e3, refresh.count});
  res.named.push_back({"epoch_serve_p50_ms", "ms", serve.median * 1e3, serve.count});

  res.end_to_end.push_back({"setup_s", "s", median(setup_s), setup_s.size()});
  res.end_to_end.push_back({"throughput_per_s", "1/s", events_per_s, cycles});
  res.end_to_end.push_back({"request_p50_ms", "ms", refresh.median * 1e3, refresh.count});
  res.end_to_end.push_back({"request_tail_ms", "ms", refresh.tail * 1e3, refresh.count});
  res.end_to_end.push_back({"secondary_p50_ms", "ms", serve.median * 1e3, serve.count});
  res.notes.push_back(std::to_string(w.refresh_s.size()) + " bursts (" +
                      std::to_string(w.fault_bursts) + " fault bursts, " +
                      std::to_string(w.casualties) + " casualties); " +
                      std::to_string(res.verified) +
                      " sampled answers verified against Dijkstra; live nodes at end " +
                      std::to_string(state.dyn->size()));
  res.notes.push_back("churn_events_per_s: median over " + std::to_string(cycles) +
                      " fault cycles; refresh " + percentile_label(refresh.tail_p) +
                      ": median over " + std::to_string(refresh.windows) + " windows of " +
                      std::to_string(kTailWindow) + " bursts");
  return res;
}

}  // namespace perfbench
