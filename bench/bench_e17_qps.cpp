// E17 — routing as a service: batched query throughput on a shared engine.
//
// One QueryEngine is built over the UDG-SENS overlay (length weights +
// landmark oracle, DESIGN.md §2.6) and then serves the same 10^5 x scale
// query batch through every cell of the {exact, oracle} x {1, 2, 8 caller
// threads} matrix, callers slicing the batch into disjoint contiguous
// subspans. The bench *asserts* the serving contract before printing:
// per mode, the FNV-1a digest of the answer array must be identical for
// every caller count (and, transitively, across --threads settings — the
// bench-json CI job cmp's the --json document across --threads 1/2/8).
// Wall-clock QPS is printed as a table but kept out of --json.
//
// Both modes report disjoint verdict counts (ServeStats): the oracle mode
// splits its answers into certified upper bounds and exact ones (tight
// bracket or Dijkstra fallback), the exact mode into exact and
// disconnected. The QPS gap between the two modes is the point of the
// serve layer (bench/BENCH_serve.json records a measured run).
#include <algorithm>
#include <cstring>
#include <optional>
#include <thread>

#include "bench_common.hpp"
#include "sens/core/udg_sens.hpp"
#include "sens/obs/obs.hpp"
#include "sens/rng/rng.hpp"
#include "sens/serve/query_engine.hpp"

using namespace sens;
using namespace sens::bench;

namespace {

/// FNV-1a over the raw bits of the answer array: equal digests == equal
/// bytes, the currency of the §2.6 determinism checks.
std::uint64_t digest_doubles(std::span<const double> xs) {
  std::uint64_t h = 1469598103934665603ull;
  for (const double x : xs) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

/// Each caller thread serves its slice in sub-batches this long and
/// histograms the per-query latency of every sub-batch (one clock pair per
/// 1024 queries — unmeasurable against the serve itself). Answers, digests
/// and ServeStats are unaffected by the sub-batching: every query is a pure
/// function of (engine, query).
constexpr std::size_t kLatencySubBatch = 1024;

struct RunResult {
  double qps = 0.0;
  std::uint64_t digest = 0;
  ServeStats stats;
  std::vector<obs::LatencyHistogram> latency;  ///< one per caller thread
};

/// Serve the whole batch with `callers` threads slicing it into disjoint
/// contiguous subspans of one shared engine.
RunResult run_mode(const QueryEngine& engine, std::span<const Query> qs, bool oracle_mode,
                   std::size_t callers) {
  std::vector<double> out(qs.size());
  std::vector<ServeStats> stats(callers);
  std::vector<obs::LatencyHistogram> lat(callers);
  Timer timer;
  auto serve_slice = [&](std::size_t c) {
    const std::size_t slice = qs.size() / callers;
    const std::size_t begin = c * slice;
    const std::size_t count = c + 1 == callers ? qs.size() - begin : slice;
    const auto sub = qs.subspan(begin, count);
    const auto dst = std::span<double>(out).subspan(begin, count);
    for (std::size_t off = 0; off < sub.size(); off += kLatencySubBatch) {
      const std::size_t nb = std::min(kLatencySubBatch, sub.size() - off);
      const std::uint64_t t0 = monotonic_ns();
      if (oracle_mode) {
        stats[c] += engine.estimate_distances(sub.subspan(off, nb), dst.subspan(off, nb));
      } else {
        engine.exact_distances(sub.subspan(off, nb), dst.subspan(off, nb));
        stats[c].queries += nb;
        for (const double d : dst.subspan(off, nb)) {
          ++(d >= kInfCost ? stats[c].disconnected : stats[c].exact);
        }
      }
      lat[c].record((monotonic_ns() - t0) / nb);
    }
  };
  if (callers == 1) {
    serve_slice(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(callers);
    for (std::size_t c = 0; c < callers; ++c) threads.emplace_back(serve_slice, c);
    for (auto& t : threads) t.join();
  }
  RunResult r;
  r.qps = static_cast<double>(qs.size()) / timer.seconds();
  r.digest = digest_doubles(out);
  for (const ServeStats& s : stats) r.stats += s;
  r.latency = std::move(lat);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  BenchEnv env = BenchEnv::parse(argc, argv);
  env.header("E17 / routing as a service: batched query throughput",
             "one immutable QueryEngine over the SENS overlay serves concurrent caller "
             "threads bit-identically; landmark-certified answers amortize Dijkstra away");

  const int tiles = env.scale > 1 ? 40 : 28;
  const double lambda = 25.0;
  const UdgSensResult r = [&] {
    const ScopedSpan span("e17/build-overlay");
    return build_udg_sens(UdgTileSpec::strict(), lambda, tiles, tiles, env.seed);
  }();
  const GeoGraph& geo = r.overlay.geo;

  const QueryEngineParams params{.num_landmarks = 64, .max_stretch = 1.5, .seed = env.seed};
  Timer build_timer;
  std::optional<QueryEngine> engine_slot;
  {
    const ScopedSpan span("e17/build-engine");
    engine_slot.emplace(geo.graph, geo.length_arc_weights(), params);
  }
  const QueryEngine& engine = *engine_slot;
  const double build_ms = build_timer.millis();

  // Queries between giant-component overlay nodes: cross-component pairs
  // would certify trivially (the oracle detects disconnection in O(L)) and
  // flatter the oracle QPS.
  std::vector<std::uint32_t> giant;
  for (std::uint32_t v = 0; v < geo.graph.num_vertices(); ++v) {
    if (r.overlay.comps.in_largest(v)) giant.push_back(v);
  }
  const std::size_t num_queries = 100000 * env.scale;
  Rng pick = Rng::stream(env.seed, 0xe17);
  std::vector<Query> qs(num_queries);
  for (Query& q : qs) {
    q.src = giant[pick.uniform_index(giant.size())];
    q.dst = giant[pick.uniform_index(giant.size())];
  }

  Table setup({"overlay nodes", "edges", "giant nodes", "landmarks", "stretch budget",
               "queries"});
  setup.add_row({Table::fmt_int(static_cast<long long>(geo.size())),
                 Table::fmt_int(static_cast<long long>(geo.graph.num_edges())),
                 Table::fmt_int(static_cast<long long>(giant.size())),
                 Table::fmt_int(static_cast<long long>(engine.oracle().num_landmarks())),
                 Table::fmt(engine.max_stretch(), 2),
                 Table::fmt_int(static_cast<long long>(num_queries))});
  env.emit("serving setup (one engine, built once)", setup);

  const std::size_t caller_counts[] = {1, 2, 8};
  RunResult exact_runs[3];
  RunResult oracle_runs[3];
  {
    const ScopedSpan span("e17/serve-exact");
    for (std::size_t i = 0; i < 3; ++i) {
      exact_runs[i] = run_mode(engine, qs, false, caller_counts[i]);
    }
  }
  {
    const ScopedSpan span("e17/serve-oracle");
    for (std::size_t i = 0; i < 3; ++i) {
      oracle_runs[i] = run_mode(engine, qs, true, caller_counts[i]);
    }
  }

  // The §2.6 contract, enforced: every caller count must produce the same
  // bytes per mode. A mismatch is a bench failure, not a table footnote.
  for (std::size_t i = 1; i < 3; ++i) {
    if (exact_runs[i].digest != exact_runs[0].digest ||
        oracle_runs[i].digest != oracle_runs[0].digest ||
        oracle_runs[i].stats.certified != oracle_runs[0].stats.certified) {
      std::cerr << "error: answers differ across caller counts (serving contract violated)\n";
      return 1;
    }
  }

  Table answers({"mode", "answer digest (fnv1a)", "certified", "exact", "disconnected"});
  answers.add_row({"exact", hex64(exact_runs[0].digest), Table::fmt_int(0),
                   Table::fmt_int(static_cast<long long>(exact_runs[0].stats.exact)),
                   Table::fmt_int(static_cast<long long>(exact_runs[0].stats.disconnected))});
  answers.add_row({"oracle", hex64(oracle_runs[0].digest),
                   Table::fmt_int(static_cast<long long>(oracle_runs[0].stats.certified)),
                   Table::fmt_int(static_cast<long long>(oracle_runs[0].stats.exact)),
                   Table::fmt_int(static_cast<long long>(oracle_runs[0].stats.disconnected))});
  env.emit("answers (digest identical for 1, 2 and 8 caller threads — asserted)", answers);

  // Wall-clock is deliberately *not* emitted: the --json document must be
  // byte-identical across runs and --threads values.
  Table qps({"mode", "callers=1 qps", "callers=2 qps", "callers=8 qps"});
  auto qps_row = [&](const std::string& name, const RunResult runs[3]) {
    qps.add_row({name, Table::fmt_int(static_cast<long long>(runs[0].qps)),
                 Table::fmt_int(static_cast<long long>(runs[1].qps)),
                 Table::fmt_int(static_cast<long long>(runs[2].qps))});
  };
  qps_row("exact", exact_runs);
  qps_row("oracle", oracle_runs);
  std::cout << "**throughput (excluded from --json; engine build "
            << Table::fmt(build_ms, 2) << " ms)**\n\n";
  qps.print(std::cout);
  std::cout << "\noracle@8 / exact@1 speedup: "
            << Table::fmt(oracle_runs[2].qps / exact_runs[0].qps, 4) << "x\n\n";

  // Per-caller-thread serving latency (DESIGN.md §2.10): each caller
  // histograms the mean per-query ns of its 1024-query sub-batches, so the
  // percentiles below are of *per-query latency* as one caller sees it.
  // Timing observables never enter --json.
  Table lat({"mode", "callers", "caller thread", "p50 us", "p95 us", "p99 us", "sub-batches"});
  auto lat_rows = [&](const std::string& name, const RunResult runs[3]) {
    for (std::size_t i = 0; i < 3; ++i) {
      for (std::size_t t = 0; t < runs[i].latency.size(); ++t) {
        const obs::LatencyHistogram& h = runs[i].latency[t];
        lat.add_row({name, Table::fmt_int(static_cast<long long>(caller_counts[i])),
                     Table::fmt_int(static_cast<long long>(t)),
                     Table::fmt(static_cast<double>(h.percentile_ns(0.50)) / 1e3, 2),
                     Table::fmt(static_cast<double>(h.percentile_ns(0.95)) / 1e3, 2),
                     Table::fmt(static_cast<double>(h.percentile_ns(0.99)) / 1e3, 2),
                     Table::fmt_int(static_cast<long long>(h.count()))});
      }
    }
  };
  lat_rows("exact", exact_runs);
  lat_rows("oracle", oracle_runs);
  std::cout << "**per-caller-thread latency percentiles (excluded from --json)**\n\n";
  lat.print(std::cout);
  std::cout << "\n";
  env.footer();
  return 0;
}
