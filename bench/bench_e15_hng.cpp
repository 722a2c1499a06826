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
#include "same_points.hpp"
#include "sens/core/nn_sens.hpp"
#include "sens/graph/components.hpp"
#include "sens/tiles/classify.hpp"
#include "sens/tiles/nn_tile.hpp"

using namespace sens;
using namespace sens::bench;

namespace {

void sparsity_row(Table& t, const Construction& c) {
  const GeoGraph& g = *c.geo;
  t.add_row({c.name, Table::fmt_int(static_cast<long long>(g.size())),
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

  SamePoints sp(env.scale > 1 ? 40 : 28, env.seed, /*with_hng=*/true);
  const HngResult& hng = *sp.hng;
  const Box window = sp.sens.points.window;

  // NN-SENS over the *same* Poisson points. The NN model is scale free
  // (Section 2.2: unit density WLOG), so the shared points are rescaled by
  // s = sqrt(lambda) to unit density and classified with the paper's
  // Theorem 2.4 tile spec on the interior tiles of the rescaled window;
  // lengths and powers map back through 1/s and 1/s^beta, so the stretch
  // ratios below are directly comparable with the UDG-normalized tables.
  Timer build_timer;
  const double nn_s = std::sqrt(kLambda);
  const std::vector<Vec2>& points = sp.sens.points.points;
  std::vector<Vec2> nn_points(points.size());
  for (std::size_t i = 0; i < nn_points.size(); ++i) nn_points[i] = points[i] * nn_s;
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
  sp.build_ms.add_row({"NN-SENS (classify + overlay)", Table::fmt(build_timer.millis(), 2)});

  // The p-thinning hierarchy: |S_l| should decay geometrically with ratio
  // ~p, and the top population (the mutually-linked clique) should be O(1).
  Table hier({"level", "|S_l| (level >= l)", "exact-level nodes", "links per node"});
  for (std::uint32_t l = 1; l <= hng.top_level; ++l) {
    const std::uint32_t cum = hng.cumulative_size[l - 1];
    const std::uint32_t next = l < hng.top_level ? hng.cumulative_size[l] : 0;
    const std::string links =
        l == hng.top_level
            ? "clique(" + std::to_string(cum) + ")"
            : "k-NN(" + std::to_string(std::min<std::size_t>(kHngParams.k, next)) + ")";
    hier.add_row({Table::fmt_int(l), Table::fmt_int(cum), Table::fmt_int(cum - next), links});
  }
  env.emit("HNG hierarchy (p-thinning populations; top level interconnects mutually)", hier);

  Table deg({"graph", "nodes in use", "edges", "mean degree", "max degree", "components"});
  std::vector<Construction> graphs = sp.constructions();
  graphs.insert(graphs.end() - 1, {"NN-SENS", &nn_ov.geo});
  for (const Construction& c : graphs) sparsity_row(deg, c);
  env.emit("sparsity and connectivity (all graphs over the same Poisson points; "
           "SENS keeps only elected nodes, HNG keeps every node; NN-SENS tiles the "
           "rescaled window, so its node budget covers fewer, larger tiles)",
           deg);

  // Stretch between SENS representatives — points present in every graph
  // (HNG spans all nodes, so rep node ids are valid there too).
  const std::size_t pairs = 25 * env.scale;
  const ArcMetrics udg_w(sp.udg, {2.0, 3.0, 5.0});
  const std::vector<Construction> rows{{"Gabriel", &sp.gabriel},
                                       {"RNG", &sp.rng},
                                       {"Yao(7)", &sp.yao},
                                       {"UDG-SENS (routed)", nullptr},
                                       {kHngName, &hng.geo}};
  env.emit("stretch between SENS representatives (power stretch normalized to the optimal "
           "UDG path; HNG links may exceed the unit disk radius)",
           stretch_table(sp.sens.overlay, 1.0, sp.udg, udg_w, rows,
                         Rng::stream(env.seed, 0xe15), pairs));

  // Stretch between NN-SENS representatives. NN good tiles live on the
  // rescaled window, so the pairs differ from the UDG-rep pairs above; the
  // UDG optimal path between the same base points (same point ids via
  // base_index) is the per-pair normalizer, exactly as in the main table.
  const std::vector<Construction> nn_rows{{"NN-SENS (routed)", nullptr}};
  env.emit("stretch between NN-SENS representatives (lengths and powers rescaled back from "
           "the unit-density window by 1/s^beta, s = sqrt(lambda); normalizer is the optimal "
           "UDG path between the same base points)",
           stretch_table(nn_ov, nn_s, sp.udg, udg_w, nn_rows, Rng::stream(env.seed, 0xe15, 2),
                         pairs));

  // Wall-clock is deliberately *not* emitted: the --json document must be
  // byte-identical across runs and --threads values.
  std::cout << "**construction wall-clock (excluded from --json)**\n\n";
  sp.build_ms.print(std::cout);
  std::cout << "\nnote: HNG keeps every node awake but needs no tiling, no election and no\n"
               "percolation margin; SENS elects ~5 nodes/tile and caps max degree at 4.\n\n";
  env.footer();
  return 0;
}
