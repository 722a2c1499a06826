// The same-points baseline study shared by E12, E15 and E19: UDG-SENS over
// one strict-preset Poisson deployment, and the classical spanners (UDG,
// Gabriel, RNG, Yao) and optionally the HNG over the *same* points, plus
// the one stretch loop E12 and E15 run between SENS representatives
// (Li-Wan-Wang: distance stretch delta bounds power stretch by delta^beta).
#pragma once

#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "sens/baselines/spanners.hpp"
#include "sens/core/sens_router.hpp"
#include "sens/core/udg_sens.hpp"
#include "sens/geograph/udg.hpp"
#include "sens/graph/dijkstra.hpp"
#include "sens/hng/hng.hpp"
#include "sens/rng/rng.hpp"
#include "sens/support/stats.hpp"
#include "sens/support/table.hpp"
#include "sens/support/timer.hpp"

namespace sens::bench {

inline constexpr double kLambda = 25.0;
inline constexpr HngParams kHngParams{.promote_p = 0.25, .k = 3, .max_level = 48};
inline const std::string kHngName = "HNG(p=0.25, k=3)";

struct Construction {
  std::string name;
  const GeoGraph* geo;
};

/// Every construction over one deployment, built in a fixed order, with a
/// per-construction build-ms table (wall clock: stdout only, never --json).
struct SamePoints {
  UdgSensResult sens;
  GeoGraph udg;
  GeoGraph gabriel;
  GeoGraph rng;
  GeoGraph yao;
  std::optional<HngResult> hng;  ///< built only on request (its k-NN counters enter --json)
  Table build_ms{{"graph", "build ms"}};

  SamePoints(int tiles, std::uint64_t seed, bool with_hng) {
    Timer t;
    auto built = [&](const std::string& name) {
      build_ms.add_row({name, Table::fmt(t.millis(), 2)});
      t.reset();
    };
    sens = build_udg_sens(UdgTileSpec::strict(), kLambda, tiles, tiles, seed);
    built("UDG-SENS (incl. points)");
    udg = build_udg(sens.points.points, sens.points.window, 1.0);
    built("UDG(2,25)");
    gabriel = gabriel_graph(udg);
    built("Gabriel");
    rng = relative_neighborhood_graph(udg);
    built("RNG");
    yao = yao_graph(udg, 7);
    built("Yao(7)");
    if (with_hng) {
      hng = build_hng(sens.points.points, kHngParams, seed);
      built(kHngName);
    }
  }

  /// UDG, Gabriel, RNG, Yao(7), UDG-SENS and (if built) the HNG.
  [[nodiscard]] std::vector<Construction> constructions() const {
    std::vector<Construction> out{{"UDG(2,25)", &udg}, {"Gabriel", &gabriel}, {"RNG", &rng},
                                  {"Yao(7)", &yao},    {"UDG-SENS", &sens.overlay.geo}};
    if (hng) out.push_back({kHngName, &hng->geo});
    return out;
  }
};

/// Per-arc length and d^beta weights of one graph, built once so the
/// Dijkstra inner loop reads flat arrays (CsrGraph::arc_weights, DESIGN.md
/// §2.4).
struct ArcMetrics {
  std::vector<double> betas;
  std::vector<double> length;
  std::vector<std::vector<double>> power;  ///< power[k] holds d^betas[k]

  ArcMetrics() = default;
  ArcMetrics(const GeoGraph& g, std::vector<double> b)
      : betas(std::move(b)), length(g.length_arc_weights()) {
    for (const double beta : betas) power.push_back(g.power_arc_weights(beta));
  }
};

/// Length and power stretch between `pairs` random representative pairs of
/// `ov`'s giant component, drawn from `pick` (at most 4x that many draws;
/// pairs closer than 5 or disconnected in the UDG are skipped). Power is
/// normalized per pair by the optimal UDG path for each of `udg_w.betas`.
/// Rows: "UDG (optimal)" (its own normalizer, so power rows read 1.0 and
/// no second search runs), then one row per entry of `rows` — the shortest
/// path in that graph, or, where `geo` is null, the path `ov`'s SensRouter
/// actually routes. `ov` lives on the base points scaled by `s`; routed
/// lengths and powers map back through 1/s and 1/s^beta.
[[nodiscard]] inline Table stretch_table(const Overlay& ov, double s, const GeoGraph& udg,
                                         const ArcMetrics& udg_w,
                                         std::span<const Construction> rows, Rng pick,
                                         std::size_t pairs) {
  const std::vector<double>& betas = udg_w.betas;
  struct Agg {
    RunningStats len;
    std::vector<RunningStats> power;
  };
  std::vector<Agg> agg(rows.size() + 1, Agg{{}, std::vector<RunningStats>(betas.size())});
  std::vector<ArcMetrics> w(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].geo != nullptr) w[i] = ArcMetrics(*rows[i].geo, betas);
  }

  const std::vector<Site> reps = ov.giant_rep_sites();
  if (reps.size() >= 2) {
    const SensRouter router(ov);
    SensRouteScratch route_scratch;
    DijkstraScratch scratch;
    std::vector<double> norm(betas.size());
    std::size_t used = 0;
    for (std::size_t t = 0; t < pairs * 4 && used < pairs; ++t) {
      const Site sa = reps[pick.uniform_index(reps.size())];
      const Site sb = reps[pick.uniform_index(reps.size())];
      if (sa == sb) continue;
      const std::uint32_t a = ov.base_index[ov.rep_of(sa)];
      const std::uint32_t b = ov.base_index[ov.rep_of(sb)];
      const double straight = dist(udg.points[a], udg.points[b]);
      if (straight < 5.0) continue;

      const double udg_len = dijkstra_cost(udg.graph, a, b, udg_w.length, scratch);
      for (std::size_t k = 0; k < betas.size(); ++k)
        norm[k] = dijkstra_cost(udg.graph, a, b, udg_w.power[k], scratch);
      if (udg_len >= kInfCost) continue;
      agg[0].len.add(udg_len / straight);
      for (RunningStats& p : agg[0].power) p.add(1.0);

      for (std::size_t i = 0; i < rows.size(); ++i) {
        Agg& out = agg[i + 1];
        if (rows[i].geo == nullptr) {
          const SensRoute route = router.route(sa, sb, route_scratch);
          if (!route.success) continue;
          out.len.add(route.euclid_length / s / straight);
          for (std::size_t k = 0; k < betas.size(); ++k) {
            // beta = 2 reads the router's own sum of d*d; std::pow need not
            // round the same way.
            const double p = betas[k] == 2.0 ? route.power2 / (s * s)
                                           : ov.geo.path_power(route.node_path, betas[k]) /
                                                 std::pow(s, betas[k]);
            out.power[k].add(p / norm[k]);
          }
          continue;
        }
        const CsrGraph& g = rows[i].geo->graph;
        const double len = dijkstra_cost(g, a, b, w[i].length, scratch);
        if (len >= kInfCost) continue;
        out.len.add(len / straight);
        for (std::size_t k = 0; k < betas.size(); ++k)
          out.power[k].add(dijkstra_cost(g, a, b, w[i].power[k], scratch) / norm[k]);
      }
      ++used;
    }
  }

  std::vector<std::string> headers{"graph", "length stretch mean", "length stretch max"};
  for (const double beta : betas)
    headers.push_back("power stretch b=" + std::to_string(static_cast<int>(beta)) + " (mean)");
  Table table(std::move(headers));
  for (std::size_t i = 0; i < agg.size(); ++i) {
    std::vector<std::string> cells{i == 0 ? "UDG (optimal)" : rows[i - 1].name,
                                   Table::fmt(agg[i].len.mean(), 4),
                                   Table::fmt(agg[i].len.max(), 4)};
    for (const RunningStats& p : agg[i].power) cells.push_back(Table::fmt(p.mean(), 4));
    table.add_row(std::move(cells));
  }
  return table;
}

}  // namespace sens::bench
