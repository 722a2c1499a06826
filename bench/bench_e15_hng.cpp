// E15 — hierarchical neighbor graphs vs SENS vs the classical spanners.
//
// Bagchi-Madan-Premi (arXiv:0903.0742) build an energy-efficient bounded-
// expected-degree connected structure over the same Poisson workload as
// SENS by p-thinning levels + per-level k-NN linking. This bench builds
// HNG, UDG, Gabriel, RNG, Yao and UDG-SENS over the *same* Poisson points
// and compares the hierarchy shape, degree/sparsity/connectivity, length
// stretch, and power stretch (Li-Wan-Wang exponents beta in [2, 5]) —
// extending the E12 baseline study with a second principled sparse
// construction. Construction wall-clock is printed as a table but kept out
// of the --json document, which must stay byte-identical across runs and
// --threads values (the bench-json CI job cmp's it).
#include <cmath>

#include "bench_common.hpp"
#include "sens/baselines/spanners.hpp"
#include "sens/core/nn_sens.hpp"
#include "sens/core/sens_router.hpp"
#include "sens/core/udg_sens.hpp"
#include "sens/geograph/udg.hpp"
#include "sens/graph/components.hpp"
#include "sens/graph/dijkstra.hpp"
#include "sens/hng/hng.hpp"
#include "sens/rng/rng.hpp"
#include "sens/support/stats.hpp"
#include "sens/tiles/classify.hpp"
#include "sens/tiles/nn_tile.hpp"

using namespace sens;
using namespace sens::bench;

namespace {

/// Per-arc weight arrays for every metric the pair loop queries, built once
/// per graph (CsrGraph::arc_weights, DESIGN.md §2.4).
struct MetricWeights {
  std::vector<double> length;
  std::vector<double> power2;
  std::vector<double> power3;
  std::vector<double> power5;

  explicit MetricWeights(const GeoGraph& g)
      : length(g.length_arc_weights()),
        power2(g.power_arc_weights(2.0)),
        power3(g.power_arc_weights(3.0)),
        power5(g.power_arc_weights(5.0)) {}
};

struct Agg {
  RunningStats len_stretch;
  RunningStats pow2_stretch;
  RunningStats pow3_stretch;
  RunningStats pow5_stretch;
};

void sparsity_row(Table& t, const std::string& name, const GeoGraph& g) {
  t.add_row({name, Table::fmt_int(static_cast<long long>(g.size())),
             Table::fmt_int(static_cast<long long>(g.graph.num_edges())),
             Table::fmt(g.graph.mean_degree(), 4),
             Table::fmt_int(static_cast<long long>(g.graph.max_degree())),
             Table::fmt_int(static_cast<long long>(connected_components(g.graph).count()))});
}

}  // namespace

int main(int argc, char** argv) {
  BenchEnv env = BenchEnv::parse(argc, argv);
  env.header("E15 / hierarchical neighbor graphs vs SENS and spanners",
             "HNG (arXiv:0903.0742) is a connected bounded-expected-degree power-efficient "
             "structure over the same Poisson points as SENS");

  const int tiles = env.scale > 1 ? 40 : 28;
  const double lambda = 25.0;
  const HngParams hng_params{.promote_p = 0.25, .k = 3, .max_level = 48};

  Table cost({"graph", "build ms"});
  Timer build_timer;
  const UdgSensResult r = build_udg_sens(UdgTileSpec::strict(), lambda, tiles, tiles, env.seed);
  cost.add_row({"UDG-SENS (incl. points)", Table::fmt(build_timer.millis(), 2)});
  const Box window = r.points.window;
  build_timer.reset();
  const GeoGraph udg = build_udg(r.points.points, window, 1.0);
  cost.add_row({"UDG(2,25)", Table::fmt(build_timer.millis(), 2)});
  build_timer.reset();
  const GeoGraph gg = gabriel_graph(udg);
  cost.add_row({"Gabriel", Table::fmt(build_timer.millis(), 2)});
  build_timer.reset();
  const GeoGraph rng_g = relative_neighborhood_graph(udg);
  cost.add_row({"RNG", Table::fmt(build_timer.millis(), 2)});
  build_timer.reset();
  const GeoGraph yao = yao_graph(udg, 7);
  cost.add_row({"Yao(7)", Table::fmt(build_timer.millis(), 2)});
  build_timer.reset();
  const HngResult hng = build_hng(r.points.points, hng_params, env.seed);
  cost.add_row({"HNG(p=0.25, k=3)", Table::fmt(build_timer.millis(), 2)});

  // NN-SENS over the *same* Poisson points. The NN model is scale free
  // (Section 2.2: unit density WLOG), so the shared points are rescaled by
  // s = sqrt(lambda) to unit density and classified with the paper's
  // Theorem 2.4 tile spec on the interior tiles of the rescaled window;
  // lengths and powers map back through 1/s and 1/s^beta, so the stretch
  // ratios below are directly comparable with the UDG-normalized tables.
  build_timer.reset();
  const double nn_s = std::sqrt(lambda);
  std::vector<Vec2> nn_points(r.points.points.size());
  for (std::size_t i = 0; i < nn_points.size(); ++i) nn_points[i] = r.points.points[i] * nn_s;
  const NnTileSpec nn_spec = NnTileSpec::paper();
  const Box nn_box{window.lo * nn_s, window.hi * nn_s};
  TileWindow nn_window;
  nn_window.i0 = static_cast<std::int64_t>(std::ceil(nn_box.lo.x / nn_spec.side()));
  nn_window.j0 = static_cast<std::int64_t>(std::ceil(nn_box.lo.y / nn_spec.side()));
  nn_window.width = static_cast<std::int32_t>(
      static_cast<std::int64_t>(std::floor(nn_box.hi.x / nn_spec.side())) - nn_window.i0);
  nn_window.height = static_cast<std::int32_t>(
      static_cast<std::int64_t>(std::floor(nn_box.hi.y / nn_spec.side())) - nn_window.j0);
  const NnClassification nn_cls = classify_nn(nn_spec, nn_points, nn_window);
  const Overlay nn_ov = build_nn_overlay(nn_cls, nn_points);
  cost.add_row({"NN-SENS (classify + overlay)", Table::fmt(build_timer.millis(), 2)});

  // The p-thinning hierarchy: |S_l| should decay geometrically with ratio
  // ~p, and the top population (the mutually-linked clique) should be O(1).
  Table hier({"level", "|S_l| (level >= l)", "exact-level nodes", "links per node"});
  for (std::uint32_t l = 1; l <= hng.top_level; ++l) {
    const std::uint32_t cum = hng.cumulative_size[l - 1];
    const std::uint32_t next = l < hng.top_level ? hng.cumulative_size[l] : 0;
    const std::string links =
        l == hng.top_level
            ? "clique(" + std::to_string(cum) + ")"
            : "k-NN(" + std::to_string(std::min<std::size_t>(hng_params.k, next)) + ")";
    hier.add_row({Table::fmt_int(l), Table::fmt_int(cum), Table::fmt_int(cum - next), links});
  }
  env.emit("HNG hierarchy (p-thinning populations; top level interconnects mutually)", hier);

  Table deg({"graph", "nodes in use", "edges", "mean degree", "max degree", "components"});
  sparsity_row(deg, "UDG(2,25)", udg);
  sparsity_row(deg, "Gabriel", gg);
  sparsity_row(deg, "RNG", rng_g);
  sparsity_row(deg, "Yao(7)", yao);
  sparsity_row(deg, "UDG-SENS", r.overlay.geo);
  sparsity_row(deg, "NN-SENS", nn_ov.geo);
  sparsity_row(deg, "HNG(p=0.25, k=3)", hng.geo);
  env.emit("sparsity and connectivity (all graphs over the same Poisson points; "
           "SENS keeps only elected nodes, HNG keeps every node; NN-SENS tiles the "
           "rescaled window, so its node budget covers fewer, larger tiles)",
           deg);

  // Stretch between SENS representatives — points present in every graph
  // (HNG spans all nodes, so rep node ids are valid there too).
  const auto reps = r.overlay.giant_rep_sites();
  Rng pick = Rng::stream(env.seed, 0xe15);
  const std::size_t pairs = 25 * env.scale;

  Agg agg_udg, agg_gg, agg_rng, agg_yao, agg_sens, agg_hng;
  const SensRouter sens_router(r.overlay);

  const MetricWeights w_udg(udg), w_gg(gg), w_rng(rng_g), w_yao(yao), w_hng(hng.geo);
  DijkstraScratch scratch;
  SensRouteScratch route_scratch;

  std::size_t used = 0;
  for (std::size_t t = 0; t < pairs * 4 && used < pairs; ++t) {
    const Site sa = reps[pick.uniform_index(reps.size())];
    const Site sb = reps[pick.uniform_index(reps.size())];
    if (sa == sb) continue;
    const std::uint32_t a = r.overlay.base_index[r.overlay.rep_of(sa)];
    const std::uint32_t b = r.overlay.base_index[r.overlay.rep_of(sb)];
    const double straight = dist(r.points.points[a], r.points.points[b]);
    if (straight < 5.0) continue;

    const double udg_len = dijkstra_cost(udg.graph, a, b, w_udg.length, scratch);
    const double udg_p2 = dijkstra_cost(udg.graph, a, b, w_udg.power2, scratch);
    const double udg_p3 = dijkstra_cost(udg.graph, a, b, w_udg.power3, scratch);
    const double udg_p5 = dijkstra_cost(udg.graph, a, b, w_udg.power5, scratch);
    if (udg_len >= kInfCost) continue;

    auto eval = [&](const GeoGraph& g, const MetricWeights& w, Agg& agg) {
      const double len = dijkstra_cost(g.graph, a, b, w.length, scratch);
      if (len >= kInfCost) return;
      agg.len_stretch.add(len / straight);
      agg.pow2_stretch.add(dijkstra_cost(g.graph, a, b, w.power2, scratch) / udg_p2);
      agg.pow3_stretch.add(dijkstra_cost(g.graph, a, b, w.power3, scratch) / udg_p3);
      agg.pow5_stretch.add(dijkstra_cost(g.graph, a, b, w.power5, scratch) / udg_p5);
    };
    eval(udg, w_udg, agg_udg);
    eval(gg, w_gg, agg_gg);
    eval(rng_g, w_rng, agg_rng);
    eval(yao, w_yao, agg_yao);
    eval(hng.geo, w_hng, agg_hng);

    // SENS: the actual routed path (not an omniscient shortest path).
    const SensRoute route = sens_router.route(sa, sb, route_scratch);
    if (route.success) {
      agg_sens.len_stretch.add(route.euclid_length / straight);
      agg_sens.pow2_stretch.add(route.power2 / udg_p2);
      agg_sens.pow3_stretch.add(r.overlay.geo.path_power(route.node_path, 3.0) / udg_p3);
      agg_sens.pow5_stretch.add(r.overlay.geo.path_power(route.node_path, 5.0) / udg_p5);
    }
    ++used;
  }

  Table st({"graph", "length stretch mean", "length stretch max", "power stretch b=2 (mean)",
            "power stretch b=3 (mean)", "power stretch b=5 (mean)"});
  auto row = [&](const std::string& name, const Agg& a) {
    st.add_row({name, Table::fmt(a.len_stretch.mean(), 4), Table::fmt(a.len_stretch.max(), 4),
                Table::fmt(a.pow2_stretch.mean(), 4), Table::fmt(a.pow3_stretch.mean(), 4),
                Table::fmt(a.pow5_stretch.mean(), 4)});
  };
  row("UDG (optimal)", agg_udg);
  row("Gabriel", agg_gg);
  row("RNG", agg_rng);
  row("Yao(7)", agg_yao);
  row("UDG-SENS (routed)", agg_sens);
  row("HNG(p=0.25, k=3)", agg_hng);
  env.emit("stretch between SENS representatives (power stretch normalized to the optimal "
           "UDG path; HNG links may exceed the unit disk radius)",
           st);

  // Stretch between NN-SENS representatives. NN good tiles live on the
  // rescaled window, so the pairs differ from the UDG-rep pairs above; the
  // UDG optimal path between the same base points (same point ids via
  // base_index) is the per-pair normalizer, exactly as in the main table.
  const auto nn_reps = nn_ov.giant_rep_sites();
  Agg agg_nn_opt, agg_nn;
  if (nn_reps.size() >= 2) {
    const SensRouter nn_router(nn_ov);
    SensRouteScratch nn_scratch;
    Rng nn_pick = Rng::stream(env.seed, 0xe15, 2);
    std::size_t nn_used = 0;
    for (std::size_t t = 0; t < pairs * 4 && nn_used < pairs; ++t) {
      const Site sa = nn_reps[nn_pick.uniform_index(nn_reps.size())];
      const Site sb = nn_reps[nn_pick.uniform_index(nn_reps.size())];
      if (sa == sb) continue;
      const std::uint32_t a = nn_ov.base_index[nn_ov.rep_of(sa)];
      const std::uint32_t b = nn_ov.base_index[nn_ov.rep_of(sb)];
      const double straight = dist(r.points.points[a], r.points.points[b]);
      if (straight < 5.0) continue;

      const double udg_len = dijkstra_cost(udg.graph, a, b, w_udg.length, scratch);
      const double udg_p2 = dijkstra_cost(udg.graph, a, b, w_udg.power2, scratch);
      const double udg_p3 = dijkstra_cost(udg.graph, a, b, w_udg.power3, scratch);
      const double udg_p5 = dijkstra_cost(udg.graph, a, b, w_udg.power5, scratch);
      if (udg_len >= kInfCost) continue;
      agg_nn_opt.len_stretch.add(udg_len / straight);
      agg_nn_opt.pow2_stretch.add(1.0);
      agg_nn_opt.pow3_stretch.add(1.0);
      agg_nn_opt.pow5_stretch.add(1.0);

      const SensRoute route = nn_router.route(sa, sb, nn_scratch);
      if (route.success) {
        agg_nn.len_stretch.add(route.euclid_length / nn_s / straight);
        agg_nn.pow2_stretch.add(route.power2 / (nn_s * nn_s) / udg_p2);
        agg_nn.pow3_stretch.add(nn_ov.geo.path_power(route.node_path, 3.0) /
                                std::pow(nn_s, 3.0) / udg_p3);
        agg_nn.pow5_stretch.add(nn_ov.geo.path_power(route.node_path, 5.0) /
                                std::pow(nn_s, 5.0) / udg_p5);
      }
      ++nn_used;
    }
  }
  Table nnst({"graph", "length stretch mean", "length stretch max", "power stretch b=2 (mean)",
              "power stretch b=3 (mean)", "power stretch b=5 (mean)"});
  auto nn_row = [&](const std::string& name, const Agg& a) {
    nnst.add_row({name, Table::fmt(a.len_stretch.mean(), 4), Table::fmt(a.len_stretch.max(), 4),
                  Table::fmt(a.pow2_stretch.mean(), 4), Table::fmt(a.pow3_stretch.mean(), 4),
                  Table::fmt(a.pow5_stretch.mean(), 4)});
  };
  nn_row("UDG (optimal)", agg_nn_opt);
  nn_row("NN-SENS (routed)", agg_nn);
  env.emit("stretch between NN-SENS representatives (lengths and powers rescaled back from "
           "the unit-density window by 1/s^beta, s = sqrt(lambda); normalizer is the optimal "
           "UDG path between the same base points)",
           nnst);

  // Wall-clock is deliberately *not* emitted: the --json document must be
  // byte-identical across runs and --threads values.
  std::cout << "**construction wall-clock (excluded from --json)**\n\n";
  cost.print(std::cout);
  std::cout << "\nnote: HNG keeps every node awake but needs no tiling, no election and no\n"
               "percolation margin; SENS elects ~5 nodes/tile and caps max degree at 4.\n\n";
  env.footer();
  return 0;
}
