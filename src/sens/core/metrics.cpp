#include "sens/core/metrics.hpp"

#include <algorithm>

#include "sens/graph/bfs.hpp"
#include "sens/rng/rng.hpp"

namespace sens {

DegreeReport overlay_degree_report(const Overlay& overlay) {
  DegreeReport report;
  const CsrGraph& g = overlay.geo.graph;
  report.nodes = g.num_vertices();
  report.max_degree = g.max_degree();
  report.mean_degree = g.mean_degree();
  for (std::uint32_t v = 0; v < g.num_vertices(); ++v) {
    const std::size_t d = g.degree(v);
    ++report.histogram[std::min<std::size_t>(d, report.histogram.size() - 1)];
  }
  return report;
}

std::vector<StretchSample> sample_overlay_stretch(const Overlay& overlay, std::size_t pairs,
                                                  std::uint64_t seed) {
  std::vector<StretchSample> samples;
  const std::vector<Site> reps = overlay.giant_rep_sites();
  if (reps.size() < 2) return samples;
  Rng rng = Rng::stream(seed, 0x57e7c4);
  samples.reserve(pairs);
  // One BFS scratch + path buffer reused across every pair (DESIGN.md §2.4).
  BfsScratch scratch;
  std::vector<std::uint32_t> path;
  for (std::size_t i = 0; i < pairs; ++i) {
    const Site sa = reps[rng.uniform_index(reps.size())];
    const Site sb = reps[rng.uniform_index(reps.size())];
    if (sa == sb) continue;
    const std::uint32_t u = overlay.rep_of(sa);
    const std::uint32_t v = overlay.rep_of(sb);
    bfs_path_into(overlay.geo.graph, u, v, scratch, path);
    if (path.empty()) continue;  // cannot happen within the largest component
    StretchSample s;
    s.euclid = dist(overlay.geo.points[u], overlay.geo.points[v]);
    s.hops = static_cast<std::uint32_t>(path.size() - 1);
    s.path_length = overlay.geo.path_length(path);
    s.path_power2 = overlay.geo.path_power(path, 2.0);
    s.lattice = lattice_distance(sa, sb);
    samples.push_back(s);
  }
  return samples;
}

ClaimCheck check_adjacent_tile_paths(const Overlay& overlay) {
  ClaimCheck check;
  const SiteGrid& grid = overlay.sites;
  double stretch_sum = 0.0;
  for (std::int32_t y = 0; y < grid.height(); ++y) {
    for (std::int32_t x = 0; x < grid.width(); ++x) {
      const Site s{x, y};
      if (!grid.open(s)) continue;
      for (int dir : {0, 2}) {
        const Site n{x + (dir == 0 ? 1 : 0), y + (dir == 2 ? 1 : 0)};
        if (!grid.in_bounds(n) || !grid.open(n)) continue;
        ++check.adjacent_good_pairs;

        // Every consecutive pair of the prescribed path must be an overlay edge.
        std::vector<std::uint32_t> path;
        overlay.append_tile_hop(s, n, path);

        bool realized = true;
        double worst_edge = 0.0;
        for (std::size_t i = 1; i < path.size(); ++i) {
          if (!overlay.geo.graph.has_edge(path[i - 1], path[i])) {
            realized = false;
            break;
          }
          worst_edge = std::max(worst_edge, overlay.geo.edge_length(path[i - 1], path[i]));
        }
        if (!realized) continue;
        ++check.paths_realized;
        check.worst_edge_length = std::max(check.worst_edge_length, worst_edge);
        const double rep_dist =
            dist(overlay.geo.points[path.front()], overlay.geo.points[path.back()]);
        const double plen = overlay.geo.path_length(path);
        const double stretch = rep_dist > 0.0 ? plen / rep_dist : 1.0;
        check.worst_stretch = std::max(check.worst_stretch, stretch);
        stretch_sum += stretch;
      }
    }
  }
  check.mean_stretch =
      check.paths_realized == 0 ? 0.0 : stretch_sum / static_cast<double>(check.paths_realized);
  return check;
}

}  // namespace sens
