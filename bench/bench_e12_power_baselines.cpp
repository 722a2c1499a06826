// E12 — power efficiency vs the classical topology-control baselines.
//
// Li-Wan-Wang: a subgraph with distance stretch delta has power stretch at
// most delta^beta, beta in [2, 5]. This bench builds UDG, Gabriel, RNG,
// Yao and UDG-SENS over the *same* Poisson points and compares mean degree,
// Euclidean length stretch and power stretch (vs the optimal UDG path)
// between SENS representatives (bench/same_points.hpp, shared with E15).
#include "bench_common.hpp"
#include "same_points.hpp"

using namespace sens;
using namespace sens::bench;

int main(int argc, char** argv) {
  BenchEnv env = BenchEnv::parse(argc, argv);
  env.header("E12 / power efficiency vs baselines",
             "SENS is power-efficient up to a constant factor (power stretch <= delta^beta)");

  const SamePoints sp(env.scale > 1 ? 40 : 28, env.seed, /*with_hng=*/false);

  Table deg({"graph", "nodes in use", "mean degree", "edges"});
  for (const Construction& c : sp.constructions()) {
    deg.add_row({c.name, Table::fmt_int(static_cast<long long>(c.geo->size())),
                 Table::fmt(c.geo->graph.mean_degree(), 4),
                 Table::fmt_int(static_cast<long long>(c.geo->graph.num_edges()))});
  }
  env.emit("sparsity (all graphs over the same Poisson points; SENS keeps only elected nodes)",
           deg);

  // Stretch between SENS representatives (present in every graph).
  const std::vector<Construction> rows{{"Gabriel", &sp.gabriel},
                                       {"RNG", &sp.rng},
                                       {"Yao(7)", &sp.yao},
                                       {"UDG-SENS (routed)", nullptr}};
  env.emit("stretch between SENS representatives (power stretch normalized to the optimal UDG path)",
           stretch_table(sp.sens.overlay, 1.0, sp.udg, ArcMetrics(sp.udg, {2.0, 4.0}), rows,
                         Rng::stream(env.seed, 0xba5e), 25 * env.scale));

  std::cout << "note: SENS trades a constant-factor stretch for max degree 4 and a\n"
               "node budget of ~5 elected nodes/tile; baselines keep every node awake.\n\n";
  env.footer();
  return 0;
}
