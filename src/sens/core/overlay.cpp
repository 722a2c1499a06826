#include "sens/core/overlay.hpp"

#include <stdexcept>
#include <unordered_map>
#include <utility>

namespace sens {

namespace {
/// Direction index (kDirVec convention) of the unit step from a to b.
int step_dir(Site a, Site b) {
  if (b.x == a.x + 1 && b.y == a.y) return 0;
  if (b.x == a.x - 1 && b.y == a.y) return 1;
  if (b.x == a.x && b.y == a.y + 1) return 2;
  return 3;
}
}  // namespace

std::vector<Site> Overlay::giant_rep_sites() const {
  std::vector<Site> out;
  for (std::int32_t y = 0; y < sites.height(); ++y) {
    for (std::int32_t x = 0; x < sites.width(); ++x) {
      const Site s{x, y};
      if (rep_in_giant(s)) out.push_back(s);
    }
  }
  return out;
}

void Overlay::append_tile_hop(Site from, Site to, std::vector<std::uint32_t>& path) const {
  auto push = [&path](std::uint32_t node) {
    if (path.empty() || path.back() != node) path.push_back(node);
  };
  const auto dir = static_cast<std::size_t>(step_dir(from, to));
  const std::size_t a = tile_index(from);
  const std::size_t b = tile_index(to);
  push(rep_node[a]);
  for (const std::uint32_t node : exit_chain[a][dir]) push(node);
  const auto& back = exit_chain[b][static_cast<std::size_t>(opposite_dir(static_cast<int>(dir)))];
  for (auto it = back.rbegin(); it != back.rend(); ++it) push(*it);
  push(rep_node[b]);
}

OverlaySkeleton overlay_skeleton(const TileClassification& cls, std::size_t num_points,
                                 double tile_side, bool e_relays) {
  OverlaySkeleton out;
  Overlay& ov = out.overlay;
  ov.window = cls.window;
  ov.tile_side = tile_side;
  ov.sites = cls.site_grid();
  ov.rep_node.assign(cls.window.tile_count(), kNoNode);
  ov.exit_chain.assign(cls.window.tile_count(), {});

  // Dedupe overlay nodes: one point may serve several roles (e.g. relay for
  // two adjacent directions when the lenses overlap).
  std::unordered_map<std::uint32_t, std::uint32_t> node_of_point;
  auto overlay_node = [&](std::uint32_t point_idx) {
    if (point_idx >= num_points) {
      throw std::invalid_argument("overlay_skeleton: classification leader index out of range");
    }
    auto [it, inserted] = node_of_point.try_emplace(
        point_idx, static_cast<std::uint32_t>(ov.base_index.size()));
    if (inserted) ov.base_index.push_back(point_idx);
    return it->second;
  };
  auto prescribe = [&](std::uint32_t a, std::uint32_t b) {
    if (a != b) out.edges.push_back({a, b});
  };

  const SiteGrid& grid = ov.sites;
  for (std::int32_t y = 0; y < grid.height(); ++y) {
    for (std::int32_t x = 0; x < grid.width(); ++x) {
      const Site s{x, y};
      if (!grid.open(s)) continue;
      const std::size_t idx = ov.tile_index(s);
      const TileLeaders& leaders = cls.leaders[idx];
      const std::uint32_t rep = overlay_node(leaders[0]);
      ov.rep_node[idx] = rep;
      for (std::size_t dir = 0; dir < 4; ++dir) {
        std::vector<std::uint32_t>& chain = ov.exit_chain[idx][dir];
        if (e_relays) chain.push_back(overlay_node(leaders[dir + 5]));
        chain.push_back(overlay_node(leaders[dir + 1]));
        std::uint32_t prev = rep;
        for (const std::uint32_t node : chain) {
          prescribe(prev, node);
          prev = node;
        }
      }
    }
  }

  // Facing-relay handshakes (directions +x and +y to visit each pair once).
  for (std::int32_t y = 0; y < grid.height(); ++y) {
    for (std::int32_t x = 0; x < grid.width(); ++x) {
      const Site s{x, y};
      if (!grid.open(s)) continue;
      for (const int dir : {0, 2}) {
        const Site n{x + (dir == 0 ? 1 : 0), y + (dir == 2 ? 1 : 0)};
        if (!grid.in_bounds(n) || !grid.open(n)) continue;
        prescribe(ov.exit_chain[ov.tile_index(s)][static_cast<std::size_t>(dir)].back(),
                  ov.exit_chain[ov.tile_index(n)][static_cast<std::size_t>(opposite_dir(dir))]
                      .back());
      }
    }
  }
  return out;
}

Overlay finish_overlay(OverlaySkeleton skeleton, std::span<const Vec2> points) {
  Overlay ov = std::move(skeleton.overlay);
  CsrGraph::Builder edges;
  for (const PrescribedEdge& e : skeleton.edges) {
    ++ov.edges_expected;
    if (e.linked) {
      edges.add_edge(e.a, e.b);
    } else {
      ++ov.edges_missing;
    }
  }
  ov.geo.points.reserve(ov.base_index.size());
  for (const std::uint32_t p : ov.base_index) ov.geo.points.push_back(points[p]);
  ov.geo.graph = std::move(edges).build(ov.base_index.size());
  ov.comps = connected_components(ov.geo.graph);
  return ov;
}

}  // namespace sens
