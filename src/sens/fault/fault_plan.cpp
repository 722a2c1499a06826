#include "sens/fault/fault_plan.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "sens/graph/flat_adjacency.hpp"
#include "sens/obs/obs.hpp"
#include "sens/support/checked.hpp"
#include "sens/support/parallel.hpp"

namespace sens {

FaultInjector::FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {
  // The negated range tests also reject NaN.
  if (!(plan_.node_crash >= 0.0 && plan_.node_crash <= 1.0)) {
    throw std::invalid_argument("FaultInjector: node_crash must be in [0, 1]");
  }
  if (!(plan_.link_failure >= 0.0 && plan_.link_failure <= 1.0)) {
    throw std::invalid_argument("FaultInjector: link_failure must be in [0, 1]");
  }
  for (const Box& b : plan_.blackouts) {
    if (!std::isfinite(b.lo.x) || !std::isfinite(b.lo.y) || !std::isfinite(b.hi.x) ||
        !std::isfinite(b.hi.y)) {
      throw std::invalid_argument("FaultInjector: blackout corners must be finite");
    }
    if (!(b.lo.x <= b.hi.x && b.lo.y <= b.hi.y)) {
      throw std::invalid_argument("FaultInjector: blackout box must have lo <= hi");
    }
  }
}

std::vector<std::uint8_t> FaultInjector::alive_mask(std::span<const Vec2> points) const {
  std::vector<std::uint8_t> alive(points.size());
  parallel_for(points.size(), [&](std::size_t i) {
    alive[i] = node_fails(static_cast<std::uint32_t>(i), points[i]) ? 0 : 1;
  });
  return alive;
}

FaultedGraph apply_faults(const GeoGraph& geo, const FaultInjector& injector) {
  const std::size_t n = geo.size();
  FaultedGraph out;
  out.new_id.assign(n, FaultedGraph::kDead);
  const std::vector<std::uint8_t> alive = injector.alive_mask(geo.points);

  // Order-preserving dense relabel: survivor lists stay sorted because the
  // map is monotone, so the extracted adjacency needs no per-vertex sort.
  for (std::size_t u = 0; u < n; ++u) {
    if (!alive[u]) continue;
    out.new_id[u] = checked_u32(out.survivor.size(), "apply_faults: survivor id");
    out.survivor.push_back(static_cast<std::uint32_t>(u));
  }
  out.nodes_failed = n - out.survivor.size();

  const std::size_t n_new = out.survivor.size();
  out.geo.points.resize(n_new);
  parallel_for(n_new, [&](std::size_t i) { out.geo.points[i] = geo.points[out.survivor[i]]; });

  // Surviving arc predicate over ORIGINAL ids: both endpoints alive and the
  // (canonical) link draw passes. Pure per arc, so the count pass, the fill
  // pass, and the loss accounting below all agree at any chunk layout.
  auto arc_survives = [&](std::uint32_t u, std::uint32_t v) {
    return alive[u] && alive[v] && !injector.link_fails(u, v);
  };
  FlatAdjacency adj = build_flat_adjacency(
      n_new,
      [&](std::size_t i) {
        const std::uint32_t u = out.survivor[i];
        std::size_t count = 0;
        for (const std::uint32_t v : geo.graph.neighbors(u)) {
          if (arc_survives(u, v)) ++count;
        }
        return count;
      },
      [&](std::size_t i, std::uint32_t* sink) {
        const std::uint32_t u = out.survivor[i];
        for (const std::uint32_t v : geo.graph.neighbors(u)) {
          if (arc_survives(u, v)) *sink++ = out.new_id[v];
        }
      });
  out.geo.graph = CsrGraph::from_symmetric_adjacency(std::move(adj), /*lists_sorted=*/true);

  // Loss accounting as exact chunk-tree sums (each undirected edge counted
  // once from its lower endpoint).
  struct Lost {
    std::size_t endpoint = 0;
    std::size_t link = 0;
  };
  const Lost lost = parallel_reduce(
      n,
      Lost{},
      [&](std::size_t u32) {
        const auto u = static_cast<std::uint32_t>(u32);
        Lost l;
        for (const std::uint32_t v : geo.graph.neighbors(u)) {
          if (v <= u) continue;
          if (!alive[u] || !alive[v]) {
            ++l.endpoint;
          } else if (injector.link_fails(u, v)) {
            ++l.link;
          }
        }
        return l;
      },
      [](Lost a, Lost b) {
        return Lost{a.endpoint + b.endpoint, a.link + b.link};
      });
  out.edges_lost_endpoint = lost.endpoint;
  out.edges_lost_link = lost.link;
  // Casualty tallies are pure functions of (plan, deployment) — the alive
  // mask and link draws are per-entity seeded — so the obs totals stay
  // thread-invariant (DESIGN.md §2.10).
  SENS_OBS(obs::add(obs::Counter::kFaultNodesFailed, out.nodes_failed);)
  SENS_OBS(obs::add(obs::Counter::kFaultEdgesLostEndpoint, out.edges_lost_endpoint);)
  SENS_OBS(obs::add(obs::Counter::kFaultEdgesLostLink, out.edges_lost_link);)
  return out;
}

}  // namespace sens
