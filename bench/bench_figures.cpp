// F — regenerates the paper's illustrative figures as ASCII/data artifacts
// from real constructions (the paper's Figures 1-9 are diagrams, not data
// plots; everything quantitative lives in E1-E14):
//   Figure 1/2: a tiling of R^2 classified good/bad and the coupled Z^2
//               site configuration (they are the same object here).
//   Figure 4:   the 3-hop path between representatives of adjacent good
//               UDG tiles, with edge lengths.
//   Figure 6:   the 5-edge path between representatives of adjacent good
//               NN tiles.
//   Figure 8:   a routed packet's tile path realized through relays.
#include <iostream>

#include "bench_common.hpp"
#include "sens/core/nn_sens.hpp"
#include "sens/core/sens_router.hpp"
#include "sens/core/udg_sens.hpp"

using namespace sens;
using namespace sens::bench;

namespace {

void render_grid(const SiteGrid& grid, const std::vector<Site>& mark) {
  auto marked = [&](Site s) {
    for (const Site m : mark)
      if (m == s) return true;
    return false;
  };
  for (std::int32_t y = grid.height() - 1; y >= 0; --y) {
    for (std::int32_t x = 0; x < grid.width(); ++x) {
      const Site s{x, y};
      std::cout << (marked(s) ? '*' : grid.open(s) ? '#' : '.');
    }
    std::cout << "\n";
  }
}

void print_path(const Overlay& ov, const std::vector<std::uint32_t>& path) {
  for (std::size_t i = 0; i < path.size(); ++i) {
    const Vec2 p = ov.geo.points[path[i]];
    std::cout << "  node " << path[i] << " at (" << Table::fmt(p.x, 4) << ", "
              << Table::fmt(p.y, 4) << ")";
    if (i + 1 < path.size())
      std::cout << "  --edge " << Table::fmt(ov.geo.edge_length(path[i], path[i + 1]), 3) << "-->";
    std::cout << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  BenchEnv env = BenchEnv::parse(argc, argv);
  env.header("F / Figures 1, 2, 4, 6, 8", "illustrative figures regenerated from real builds");

  // --- Figures 1 & 2: tiling + coupled site configuration ---
  const UdgSensResult udg = build_udg_sens(UdgTileSpec::strict(), 25.0, 24, 24, env.seed);
  std::cout << "Figures 1/2 — good (#) and bad (.) tiles of a classified window;\n"
               "under phi this *is* the coupled Z^2 site configuration:\n\n";
  render_grid(udg.overlay.sites, {});
  std::cout << "\nopen fraction " << Table::fmt(udg.overlay.sites.open_fraction(), 4)
            << " (= P(good) estimate)\n\n";

  // --- Figure 4: rep-relay-relay-rep path across a tile border (UDG) ---
  std::cout << "Figure 4 — 3-hop path between adjacent good-tile representatives (UDG):\n";
  const SiteGrid& grid = udg.overlay.sites;
  bool shown = false;
  for (std::int32_t y = 0; y < grid.height() && !shown; ++y) {
    for (std::int32_t x = 0; x + 1 < grid.width() && !shown; ++x) {
      if (!grid.open({x, y}) || !grid.open({x + 1, y})) continue;
      std::vector<std::uint32_t> path;
      udg.overlay.append_tile_hop({x, y}, {x + 1, y}, path);
      print_path(udg.overlay, path);
      shown = true;
    }
  }

  // --- Figure 6: the NN 5-edge path ---
  std::cout << "\nFigure 6 — 4-relay path between adjacent good-tile representatives (NN):\n";
  const NnSensResult nn = build_nn_sens(NnTileSpec::paper(), 8, 8, env.seed + 1);
  const SiteGrid& ngrid = nn.overlay.sites;
  shown = false;
  for (std::int32_t y = 0; y < ngrid.height() && !shown; ++y) {
    for (std::int32_t x = 0; x + 1 < ngrid.width() && !shown; ++x) {
      if (!ngrid.open({x, y}) || !ngrid.open({x + 1, y})) continue;
      std::vector<std::uint32_t> path;
      nn.overlay.append_tile_hop({x, y}, {x + 1, y}, path);
      print_path(nn.overlay, path);
      shown = true;
    }
  }

  // --- Figure 8: a routed packet's tile trace ---
  std::cout << "\nFigure 8 — routed packet: tile path (*) through the percolated mesh:\n\n";
  const auto reps = udg.overlay.giant_rep_sites();
  if (reps.size() >= 2) {
    const SensRouter router(udg.overlay);
    const MeshRouter mesh(udg.overlay.sites);
    const MeshRoute mr = mesh.route(reps.front(), reps.back());
    if (mr.success) {
      render_grid(udg.overlay.sites, mr.path);
      const SensRoute sr = router.route(reps.front(), reps.back());
      std::cout << "\ntile hops " << mr.hops() << ", node hops " << sr.node_hops() << ", probes "
                << mr.probes << "\n";
    }
  }

  std::cout << "\n(Figures 3 and 5 are the tile-geometry definitions — see\n"
               "UdgTileSpec/NnTileSpec and their region areas in E1/E2; Figures 7 and 9\n"
               "are the algorithms executed by sens/runtime, measured in E13/E14.)\n\n";
  env.footer();
  return 0;
}
