// E18 — million-node scale tier: streaming generation, cache-ordered
// layouts, and batched-query throughput (DESIGN.md §2.8).
//
// The paper's constructions are motivated by *massive* sensor deployments,
// so this bench drives the full pipeline — streaming Poisson generation,
// UDG and HNG construction, batched BFS/Dijkstra/k-NN queries — at
// n ∈ {10^4, 10^5, 10^6} (10^7 rides behind --scale >= 10) and compares two
// node labelings of the same deployment:
//   deploy   ids in arrival order (a deterministic shuffle of the store —
//            the realistic regime: sensors get ids as they are switched on),
//   hilbert  the spatial/reorder relabeling along a Hilbert curve.
// The UDG is rebuilt from the permuted points (bit-identical to relabeling
// the deploy build — the `Reorder.*` oracle tests); the HNG is relabeled
// *after* construction, because its promotion levels are keyed by node id
// and a rebuild on permuted points would resample the hierarchy (§2.8).
// Either way both layouts carry the same graph, so the distance digests —
// batched BFS/Dijkstra rows mapped back to deploy ids and hashed — must
// agree bitwise across layouts, and the bench records that check in the
// JSON document.
//
// Wall clock, throughput and peak RSS are printed as tables but kept out of
// the --json document, which must stay byte-identical across runs and
// --threads values (the bench-json CI job cmp's it at 1/2/8 threads with
// --nmax 100000). Measured runs, including the hilbert/deploy throughput
// ratios at n = 10^6, are recorded in bench/BENCH_scale.json.
//
// Extra flag: --nmax N caps the size sweep (default 10^6).
#include <bit>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "sens/geograph/knn.hpp"
#include "sens/geograph/point_set.hpp"
#include "sens/geograph/udg.hpp"
#include "sens/graph/bfs.hpp"
#include "sens/graph/components.hpp"
#include "sens/graph/dijkstra.hpp"
#include "sens/hng/hng.hpp"
#include "sens/rng/rng.hpp"
#include "sens/spatial/reorder.hpp"

using namespace sens;
using namespace sens::bench;

namespace {

std::uint64_t mix64(std::uint64_t h, std::uint64_t x) {
  h ^= x + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

/// Batched sources per size — fewer rows at larger n so the default run
/// stays minutes, a pure function of n (never of threads or wall clock).
std::size_t source_count(std::size_t n) {
  if (n <= 10'000) return 32;
  if (n <= 100'000) return 16;
  if (n <= 1'000'000) return 8;
  return 4;
}

struct QueryRun {
  double knn_s = 0.0;
  double bfs_s = 0.0;
  double dij_s = 0.0;
  std::uint64_t bfs_digest = 0;
  std::uint64_t dij_digest = 0;
};

/// Run the batched query suite over one layout. `sources` are this layout's
/// ids; `to_this` maps a deploy id to this layout's id (empty = identity),
/// so the digests hash every row in deploy id order — bitwise identical
/// across layouts for the same underlying graph (distances are min-over-
/// identical-candidate-sets, independent of relaxation order; §2.8).
QueryRun run_queries(const GeoGraph& gg, std::span<const std::uint32_t> sources,
                     std::span<const std::uint32_t> to_this) {
  const ScopedSpan span("e18/queries");
  const std::size_t n = gg.size();
  QueryRun run;
  Timer timer;

  (void)knn_selections_flat(gg.points, 8);
  run.knn_s = timer.seconds();

  timer.reset();
  std::vector<std::uint32_t> hops(sources.size() * n);
  bfs_many_into(gg.graph, sources, hops);
  run.bfs_s = timer.seconds();

  const std::vector<double> w = gg.length_arc_weights();
  timer.reset();
  std::vector<double> costs(sources.size() * n);
  dijkstra_many_into(gg.graph, sources, w, costs);
  run.dij_s = timer.seconds();

  std::uint64_t hb = 0xE18, hd = 0xE18;
  for (std::size_t s = 0; s < sources.size(); ++s) {
    const std::uint32_t* hop_row = hops.data() + s * n;
    const double* cost_row = costs.data() + s * n;
    for (std::size_t old = 0; old < n; ++old) {
      const std::size_t v = to_this.empty() ? old : to_this[old];
      hb = mix64(hb, hop_row[v]);
      hd = mix64(hd, std::bit_cast<std::uint64_t>(cost_row[v]));
    }
  }
  run.bfs_digest = hb;
  run.dij_digest = hd;
  return run;
}

double mibs(std::uint64_t bytes) { return static_cast<double>(bytes) / (1024.0 * 1024.0); }

}  // namespace

int main(int argc, char** argv) {
  BenchEnv env = BenchEnv::parse(argc, argv, {"nmax"});
  const auto nmax = static_cast<std::size_t>(env.cli.get("nmax", 1'000'000L));

  env.header("E18 / million-node scale tier",
             "the constructions stay practical at massive deployment sizes: streaming "
             "generation never materializes an unsorted store, and a Hilbert "
             "relabeling of the same graph lifts batched query throughput purely "
             "through memory locality (Section 1.1 regime at scale)");

  std::vector<std::size_t> sizes{10'000, 100'000, 1'000'000};
  if (env.scale >= 10) sizes.push_back(10'000'000);
  std::erase_if(sizes, [&](std::size_t n) { return n > nmax; });

  const double lambda = 4.0;
  const HngParams params{.promote_p = 0.25, .k = 3, .max_level = 48};

  Table counts({"n target", "structure", "layout", "n", "edges", "components", "mean degree",
                "bfs digest", "dijkstra digest", "matches deploy"});
  Table gen_clock({"n target", "n", "gen s (streaming)", "shuffle s", "hilbert perm s"});
  Table clock({"n target", "structure", "layout", "build s", "knn Mq/s", "bfs Mnode/s",
               "dijkstra Mnode/s", "peak rss MiB"});

  for (const std::size_t n_target : sizes) {
    const double side = std::sqrt(static_cast<double>(n_target) / lambda);
    const Box window{{0.0, 0.0}, {side, side}};

    Timer timer;
    PointSet ps = [&] {
      const ScopedSpan span("e18/generate");
      return poisson_point_set(window, lambda, env.seed);
    }();
    const double gen_s = timer.seconds();
    const std::size_t n = ps.size();

    // Deployment order: a seeded Fisher-Yates shuffle of the grid-major
    // store — ids in arrival order, the layout a real network hands us.
    timer.reset();
    Rng shuffle = Rng::stream(env.seed, 0xE18, n_target);
    for (std::size_t i = n; i > 1; --i) {
      std::swap(ps.points[i - 1], ps.points[shuffle.uniform_index(i)]);
    }
    const double shuffle_s = timer.seconds();
    const std::vector<Vec2>& deploy = ps.points;

    timer.reset();
    std::vector<std::uint32_t> perm;
    std::vector<std::uint32_t> inv;
    std::vector<Vec2> hilbert;
    {
      const ScopedSpan span("e18/reorder");
      perm = spatial_order_permutation(deploy, SpatialOrder::kHilbert);
      inv = invert_permutation(perm);
      hilbert = apply_permutation(std::span<const Vec2>(deploy), perm);
    }
    const double perm_s = timer.seconds();

    gen_clock.add_row({Table::fmt_int(static_cast<long long>(n_target)),
                       Table::fmt_int(static_cast<long long>(n)), Table::fmt(gen_s, 3),
                       Table::fmt(shuffle_s, 3), Table::fmt(perm_s, 3)});

    // Batched sources, drawn in deploy ids; the hilbert runs query the same
    // nodes under their new labels.
    Rng pick = Rng::stream(env.seed, 0xE18, 0x50BCE5);
    std::vector<std::uint32_t> src_deploy(source_count(n_target));
    for (auto& s : src_deploy) s = static_cast<std::uint32_t>(pick.uniform_index(n));
    std::vector<std::uint32_t> src_hilbert(src_deploy.size());
    for (std::size_t i = 0; i < src_deploy.size(); ++i) src_hilbert[i] = inv[src_deploy[i]];

    struct Config {
      const char* structure;
      const char* layout;
      GeoGraph geo;
      double build_s;
      bool is_deploy;
    };
    std::vector<Config> configs;
    configs.reserve(4);

    {
      const ScopedSpan span("e18/build");
      timer.reset();
      configs.push_back({"UDG", "deploy", build_udg(deploy, window, 1.0), timer.seconds(), true});
      timer.reset();
      configs.push_back(
          {"UDG", "hilbert", build_udg(hilbert, window, 1.0), timer.seconds(), false});
      timer.reset();
      HngResult hng = build_hng(deploy, params, env.seed);
      const double hng_build_s = timer.seconds();
      timer.reset();
      GeoGraph hng_relabeled = apply_permutation(hng.geo, perm);
      const double hng_relabel_s = timer.seconds();
      configs.push_back({"HNG", "deploy", std::move(hng.geo), hng_build_s, true});
      configs.push_back({"HNG", "hilbert (relabel)", std::move(hng_relabeled), hng_relabel_s,
                         false});
    }

    std::uint64_t deploy_bfs = 0, deploy_dij = 0;
    for (Config& cfg : configs) {
      const QueryRun run =
          run_queries(cfg.geo, cfg.is_deploy ? src_deploy : src_hilbert,
                      cfg.is_deploy ? std::span<const std::uint32_t>{}
                                    : std::span<const std::uint32_t>(inv));
      if (cfg.is_deploy) {
        deploy_bfs = run.bfs_digest;
        deploy_dij = run.dij_digest;
      }
      const bool matches = run.bfs_digest == deploy_bfs && run.dij_digest == deploy_dij;

      counts.add_row({Table::fmt_int(static_cast<long long>(n_target)), cfg.structure,
                      cfg.layout, Table::fmt_int(static_cast<long long>(cfg.geo.size())),
                      Table::fmt_int(static_cast<long long>(cfg.geo.graph.num_edges())),
                      Table::fmt_int(static_cast<long long>(
                          connected_components(cfg.geo.graph).count())),
                      Table::fmt(cfg.geo.graph.mean_degree(), 4), hex64(run.bfs_digest),
                      hex64(run.dij_digest), matches ? "yes" : "NO"});

      const double rows = static_cast<double>(src_deploy.size());
      const double nd = static_cast<double>(cfg.geo.size());
      clock.add_row(
          {Table::fmt_int(static_cast<long long>(n_target)), cfg.structure, cfg.layout,
           Table::fmt(cfg.build_s, 3), Table::fmt(nd / run.knn_s / 1e6, 3),
           Table::fmt(rows * nd / run.bfs_s / 1e6, 3),
           Table::fmt(rows * nd / run.dij_s / 1e6, 3), Table::fmt(mibs(peak_rss_bytes()), 5)});
      cfg.geo = GeoGraph{};  // release before the next size doubles the footprint
    }
  }

  env.emit("structure census and layout-invariance digests (BFS/Dijkstra rows mapped back to "
           "deploy ids hash identically for every layout of the same graph — and at every "
           "--threads value)",
           counts);

  // Wall clock, throughput and RSS are deliberately *not* emitted: the
  // --json document must be byte-identical across machines, runs and
  // --threads values. BENCH_scale.json records measured runs.
  std::cout << "**streaming generation and relabeling cost (excluded from --json)**\n\n";
  gen_clock.print(std::cout);
  std::cout << "\n**build time and batched query throughput (excluded from --json; "
               "peak rss is a process-lifetime high-water mark, monotone down the rows)**\n\n";
  clock.print(std::cout);
  std::cout << "\nnote: knn Mq/s is full-store k=8 self-queries; bfs/dijkstra Mnode/s are "
               "settled row-nodes per second over "
            << "batched sources; the hilbert/deploy ratio at n = 10^6 is the layout "
               "dividend recorded in BENCH_scale.json.\n\n";
  env.footer();
  return 0;
}
