#include "sens/baselines/spanners.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sens/graph/flat_adjacency.hpp"
#include "sens/support/parallel.hpp"

namespace sens {

namespace {

/// Shared skeleton: keep the UDG edges passing `keep(u, v)`. The predicate
/// is evaluated once per undirected edge in canonical orientation (u < v)
/// into a per-arc kept mask, one serial cursor pass mirrors the mask to the
/// reverse arcs, and the surviving adjacency is written by the two-pass
/// count-then-write builder — no edge-pair list, no global sort, no
/// per-chunk buffers (DESIGN.md §2.3/§2.4). Every parallel pass writes
/// disjoint slots indexed by vertex/arc, so the result is bit-identical at
/// any thread count.
template <typename Keep>
GeoGraph filter_edges(const GeoGraph& udg, Keep&& keep) {
  GeoGraph out;
  out.points = udg.points;
  const CsrGraph& g = udg.graph;
  const std::size_t n = g.num_vertices();

  std::vector<std::uint8_t> kept(g.num_arcs());
  parallel_for(n, [&](std::size_t i) {
    const auto u = static_cast<std::uint32_t>(i);
    for (std::uint32_t a = g.arc_begin(u); a < g.arc_end(u); ++a) {
      const std::uint32_t v = g.arc_target(a);
      if (u < v) kept[a] = keep(u, v) ? 1 : 0;
    }
  });
  // Mirror each verdict onto its reverse arc (v -> u). v's sorted list
  // starts with its lower neighbors, and scanning sources u in ascending
  // order meets exactly those in that order, so cursor[v]++ is the
  // reverse arc.
  std::vector<std::uint32_t> cursor(n);
  for (std::uint32_t v = 0; v < n; ++v) cursor[v] = g.arc_begin(v);
  for (std::uint32_t u = 0; u < n; ++u) {
    for (std::uint32_t a = g.arc_begin(u); a < g.arc_end(u); ++a) {
      const std::uint32_t v = g.arc_target(a);
      if (u < v) kept[cursor[v]++] = kept[a];
    }
  }

  FlatAdjacency adj = build_flat_adjacency(
      n,
      [&](std::size_t i) {
        const auto u = static_cast<std::uint32_t>(i);
        std::size_t count = 0;
        for (std::uint32_t a = g.arc_begin(u); a < g.arc_end(u); ++a) count += kept[a];
        return count;
      },
      [&](std::size_t i, std::uint32_t* slot) {
        const auto u = static_cast<std::uint32_t>(i);
        for (std::uint32_t a = g.arc_begin(u); a < g.arc_end(u); ++a) {
          if (kept[a]) *slot++ = g.arc_target(a);
        }
      });
  // Each surviving list is a subsequence of the (sorted) UDG adjacency.
  out.graph = CsrGraph::from_symmetric_adjacency(std::move(adj), /*lists_sorted=*/true);
  return out;
}

}  // namespace

GeoGraph gabriel_graph(const GeoGraph& udg) {
  return filter_edges(udg, [&](std::uint32_t u, std::uint32_t v) {
    const Vec2 mid = (udg.points[u] + udg.points[v]) * 0.5;
    const double r2 = dist2(udg.points[u], mid);
    // Witnesses must be within the diameter disk; every witness is a UDG
    // neighbor of u (it is closer to u than v is), so scanning adj(u) is
    // exhaustive.
    for (const std::uint32_t w : udg.graph.neighbors(u)) {
      if (w != v && dist2(udg.points[w], mid) < r2 - 1e-15) return false;
    }
    return true;
  });
}

GeoGraph relative_neighborhood_graph(const GeoGraph& udg) {
  return filter_edges(udg, [&](std::uint32_t u, std::uint32_t v) {
    const double d2 = dist2(udg.points[u], udg.points[v]);
    // A lune witness w satisfies d(u,w) < d(u,v) <= link radius, so it is a
    // UDG neighbor of u.
    for (const std::uint32_t w : udg.graph.neighbors(u)) {
      if (w == v) continue;
      if (dist2(udg.points[u], udg.points[w]) < d2 - 1e-15 &&
          dist2(udg.points[v], udg.points[w]) < d2 - 1e-15)
        return false;
    }
    return true;
  });
}

GeoGraph yao_graph(const GeoGraph& udg, std::size_t cones) {
  if (cones < 1) throw std::invalid_argument("yao_graph: cones < 1");
  GeoGraph out;
  out.points = udg.points;
  const std::size_t n = udg.graph.num_vertices();
  constexpr std::uint32_t kNone = 0xffffffffu;

  // Per-vertex cone winners into a padded n x cones table (one atan2 pass;
  // each row is written by exactly one task), then compacted into directed
  // selection lists and symmetrized — no edge-pair list.
  std::vector<std::uint32_t> winner(n * cones, kNone);
  // Winner-distance buffer as participant state: allocated once per
  // participant, not once per chunk or vertex.
  parallel_for_chunks<std::vector<double>>(n, [&](std::vector<double>& best_d2,
                                                  std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const auto u = static_cast<std::uint32_t>(i);
      std::uint32_t* best = winner.data() + i * cones;
      best_d2.assign(cones, std::numeric_limits<double>::infinity());
      for (const std::uint32_t v : udg.graph.neighbors(u)) {
        const Vec2 delta = udg.points[v] - udg.points[u];
        double angle = std::atan2(delta.y, delta.x);
        if (angle < 0.0) angle += 2.0 * std::numbers::pi;
        auto cone = static_cast<std::size_t>(angle / (2.0 * std::numbers::pi) *
                                             static_cast<double>(cones));
        if (cone >= cones) cone = cones - 1;
        const double d2 = delta.norm2();
        // Tie-break by index for determinism.
        if (d2 < best_d2[cone] || (d2 == best_d2[cone] && v < best[cone])) {
          best_d2[cone] = d2;
          best[cone] = v;
        }
      }
    }
  });
  FlatAdjacency sel = build_flat_adjacency(
      n,
      [&](std::size_t i) {
        std::size_t count = 0;
        for (std::size_t c = 0; c < cones; ++c) count += winner[i * cones + c] != kNone;
        return count;
      },
      [&](std::size_t i, std::uint32_t* slot) {
        for (std::size_t c = 0; c < cones; ++c) {
          if (winner[i * cones + c] != kNone) *slot++ = winner[i * cones + c];
        }
      });
  out.graph = CsrGraph::from_selections(std::move(sel));
  return out;
}

}  // namespace sens
