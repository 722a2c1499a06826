#include "sens/core/overlay.hpp"

#include <stdexcept>
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
  const int dir = step_dir(from, to);
  const TileLeaders& a = tile_nodes[tile_index(from)];
  const TileLeaders& b = tile_nodes[tile_index(to)];
  push(a[0]);
  for (const std::uint8_t s : exit_slots(a, dir)) push(a[s]);
  const ExitSlots back = exit_slots(b, opposite_dir(dir));
  for (std::size_t i = back.size; i-- > 0;) push(b[back.slot[i]]);
  push(b[0]);
}

OverlaySkeleton overlay_skeleton(const TileClassification& cls, std::size_t num_points,
                                 double tile_side) {
  OverlaySkeleton out;
  Overlay& ov = out.overlay;
  ov.window = cls.window;
  ov.tile_side = tile_side;
  ov.sites = cls.site_grid();
  ov.tile_nodes.assign(cls.window.tile_count(), kNoLeaders);
  auto prescribe = [&](std::uint32_t a, std::uint32_t b) {
    if (a != b) out.edges.push_back({a, b});
  };

  for (std::size_t idx = 0; idx < cls.good.size(); ++idx) {
    if (!cls.good[idx]) continue;
    const TileLeaders& leaders = cls.leaders[idx];
    TileLeaders& nodes = ov.tile_nodes[idx];
    // Number slot s on first use of its point. One point may hold several
    // slots (e.g. relay for two adjacent directions when the lenses
    // overlap), and only slots of this tile: a point has one tile.
    auto number = [&](std::size_t s) {
      const std::uint32_t p = leaders[s];
      if (p >= num_points) {
        throw std::invalid_argument("overlay_skeleton: classification leader index out of range");
      }
      for (std::size_t e = 0; e < nodes.size(); ++e) {
        if (nodes[e] != kNoNode && leaders[e] == p) return nodes[s] = nodes[e];
      }
      nodes[s] = static_cast<std::uint32_t>(ov.base_index.size());
      ov.base_index.push_back(p);
      return nodes[s];
    };
    const std::uint32_t rep = number(0);
    for (int dir = 0; dir < 4; ++dir) {
      std::uint32_t prev = rep;
      for (const std::uint8_t s : exit_slots(leaders, dir)) {
        const std::uint32_t node = number(s);
        prescribe(prev, node);
        prev = node;
      }
    }
  }

  // Facing-relay handshakes toward +x (dir 0, facing dir 1) and +y (dir 2,
  // facing dir 3), so each pair is visited once. The boundary relay, slot
  // dir+1, ends every exit chain.
  const auto width = static_cast<std::size_t>(cls.window.width);
  for (std::size_t idx = 0; idx < cls.good.size(); ++idx) {
    if (!cls.good[idx]) continue;
    const TileLeaders& nodes = ov.tile_nodes[idx];
    const std::size_t right = idx + 1;
    const std::size_t up = idx + width;
    if (right % width != 0 && cls.good[right]) prescribe(nodes[1], ov.tile_nodes[right][2]);
    if (up < cls.good.size() && cls.good[up]) prescribe(nodes[3], ov.tile_nodes[up][4]);
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
