#include "sens/graph/chain_sweep.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "sens/obs/obs.hpp"
#include "sens/support/parallel.hpp"

namespace sens {

namespace {

/// Index of the arc u -> v; u's sorted neighbor list must hold v.
std::uint32_t arc_to(const CsrGraph& g, std::uint32_t u, std::uint32_t v) {
  const std::span<const std::uint32_t> nb = g.neighbors(u);
  return g.arc_begin(u) +
         static_cast<std::uint32_t>(std::lower_bound(nb.begin(), nb.end(), v) - nb.begin());
}

}  // namespace

ChainIndex::ChainIndex(const CsrGraph& g)
    : num_vertices_(g.num_vertices()), num_arcs_(g.num_arcs()) {
  const auto n = static_cast<std::uint32_t>(num_vertices_);
  // Peel vertices of degree <= 1 until none is left. A peeled vertex
  // hangs below the one neighbor it still had (none for the last vertex
  // of a tree component), and `deg` ends as the 2-core degree.
  std::vector<std::uint32_t> deg(n);
  std::vector<std::uint32_t> order;
  for (std::uint32_t v = 0; v < n; ++v) {
    deg[v] = static_cast<std::uint32_t>(g.degree(v));
    if (deg[v] <= 1) order.push_back(v);
  }
  // A vertex counts as an interior until it is peeled or made a branch.
  kind_.assign(n, Kind::kInterior);
  place_.assign(n, kNone);
  for (std::size_t q = 0; q < order.size(); ++q) {
    const std::uint32_t v = order[q];
    kind_[v] = Kind::kTree;
    for (std::uint32_t a = g.arc_begin(v); a < g.arc_end(v); ++a) {
      const std::uint32_t u = g.arc_target(a);
      if (kind_[u] == Kind::kTree) continue;
      place_[v] = a;
      if (--deg[u] == 1) order.push_back(u);
      break;
    }
  }
  // A parent is peeled after its children, or never.
  fill_.reserve(order.size());
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    if (place_[*it] == kNone) continue;
    const std::uint32_t parent = g.arc_target(place_[*it]);
    fill_.push_back({*it, parent, arc_to(g, parent, *it)});
  }

  // Super arcs: from every branch, one walk per core arc along degree-2
  // interiors to the next branch. Each core arc starts or continues
  // exactly one walk, so interior_ and arcs_ stay <= num_arcs (§2.8).
  seg_.push_back(0);
  const auto add_branch = [&](std::uint32_t v) {
    kind_[v] = Kind::kBranch;
    place_[v] = static_cast<std::uint32_t>(branch_vertex_.size());
    branch_vertex_.push_back(v);
  };
  const auto walk_from = [&](std::uint32_t b) {
    super_begin_.push_back(static_cast<std::uint32_t>(head_.size()));
    const std::uint32_t u = branch_vertex_[b];
    for (std::uint32_t a = g.arc_begin(u); a < g.arc_end(u); ++a) {
      std::uint32_t prev = u;
      std::uint32_t cur = g.arc_target(a);
      if (kind_[cur] == Kind::kTree) continue;
      arcs_.push_back(a);
      while (kind_[cur] == Kind::kInterior) {
        if (place_[cur] == kNone) place_[cur] = static_cast<std::uint32_t>(interior_.size());
        interior_.push_back(cur);
        std::uint32_t next = g.arc_begin(cur);
        while (kind_[g.arc_target(next)] == Kind::kTree || g.arc_target(next) == prev) ++next;
        arcs_.push_back(next);
        prev = cur;
        cur = g.arc_target(next);
      }
      head_.push_back(place_[cur]);
      seg_.push_back(static_cast<std::uint32_t>(interior_.size()));
    }
  };
  for (std::uint32_t v = 0; v < n; ++v) {
    if (kind_[v] == Kind::kInterior && deg[v] >= 3) add_branch(v);
  }
  const std::size_t real_branches = branch_vertex_.size();
  for (std::uint32_t b = 0; b < real_branches; ++b) walk_from(b);
  // What no walk reached lies on a pure cycle: its lowest id becomes the
  // cycle's pseudo-branch, with one loop super arc each way.
  for (std::uint32_t v = 0; v < n; ++v) {
    if (kind_[v] != Kind::kInterior || place_[v] != kNone) continue;
    add_branch(v);
    walk_from(place_[v]);
  }
  super_begin_.push_back(static_cast<std::uint32_t>(head_.size()));
}

void ChainIndex::check_graph(const CsrGraph& g, const char* who) const {
  if (num_vertices_ != g.num_vertices() || num_arcs_ != g.num_arcs()) {
    throw std::invalid_argument(std::string(who) + ": the chain index is not of this graph");
  }
}

std::uint32_t ChainIndex::twin(std::uint32_t j) const {
  // The twin leaves j's end branch through j's last interior.
  const std::uint32_t last = interior_[seg_[j + 1] - 1];
  std::uint32_t t = super_begin_[head_[j]];
  while (seg_[t] == seg_[t + 1] || interior_[seg_[t]] != last) ++t;
  return t;
}

bool chains_dominate(const CsrGraph& g) {
  std::size_t low = 0;
  for (std::uint32_t v = 0; v < g.num_vertices(); ++v) low += g.degree(v) <= 2 ? 1u : 0u;
  return 2 * low >= g.num_vertices();
}

void chain_costs_into(const CsrGraph& g, const ChainIndex& chains, std::uint32_t source,
                      std::span<const double> arc_weights, DijkstraScratch& scratch,
                      std::span<double> out) {
  if (out.size() != g.num_vertices()) {
    throw std::invalid_argument("chain_costs_into: out.size() != num_vertices()");
  }
  chains.check_graph(g, "chain_costs_into");
  check_arc_weights(g, arc_weights, "chain_costs_into");
  check_vertex_id(g, source, "chain_costs_into");
  using Kind = ChainIndex::Kind;
  const ChainIndex& c = chains;
  const double* w = arc_weights.data();
  double* cost = out.data();
  DijkstraScratch& s = scratch;
  // Work tallies flush once at the end, as in dijkstra_run (§2.10): one
  // run, one pop per branch, one relaxed arc per arc weight summed.
  SENS_OBS(std::uint32_t obs_pops = 0; std::uint64_t obs_relaxed = 0;)
  std::fill(out.begin(), out.end(), kInfCost);
  s.prepare(c.branch_vertex_.size());

  const auto reach = [&s](std::uint32_t b, double d) {
    if (!s.reached(b)) {
      s.push(b, d, b);
    } else if (d < s.dist[b] && s.pos[b] != DijkstraScratch::kSettled) {
      s.decrease(b, d, b);
    }
  };
  // Sum super arc j in path order from cost d at its interior `from`
  // (0: at its tail), keeping each interior's minimum, and relax its end.
  const auto walk = [&](std::uint32_t j, std::uint32_t from, double d) {
    const std::uint32_t end = c.seg_[j + 1];
    const std::uint32_t* arc = c.arcs_.data() + j;  // arc[i]: the arc into interior_[i]
    for (std::uint32_t i = c.seg_[j] + from; i < end; ++i) {
      d += w[arc[i]];
      const std::uint32_t v = c.interior_[i];
      if (d < cost[v]) cost[v] = d;
    }
    d += w[arc[end]];
    SENS_OBS(obs_relaxed += end - c.seg_[j] - from + 1;)
    reach(c.head_[j], d);
  };

  // Seed: up the source's hanging tree to its root, then the root's branch
  // or both ways along the root's chain.
  std::uint32_t v = source;
  double d = 0.0;
  cost[v] = 0.0;
  while (c.kind_[v] == Kind::kTree && c.place_[v] != ChainIndex::kNone) {
    d += w[c.place_[v]];
    v = g.arc_target(c.place_[v]);
    cost[v] = d;
    SENS_OBS(++obs_relaxed;)
  }
  if (c.kind_[v] == Kind::kBranch) {
    reach(c.place_[v], d);
  } else if (c.kind_[v] == Kind::kInterior) {
    const std::uint32_t p = c.place_[v];
    const auto j = static_cast<std::uint32_t>(
        std::upper_bound(c.seg_.begin(), c.seg_.end(), p) - c.seg_.begin() - 1);
    const std::uint32_t at = p - c.seg_[j];
    walk(j, at + 1, d);
    walk(c.twin(j), c.seg_[j + 1] - c.seg_[j] - at, d);
  }

  while (!s.heap.empty()) {
    const std::uint32_t b = s.pop_min();
    const double db = s.dist[b];
    cost[c.branch_vertex_[b]] = db;
    SENS_OBS(++obs_pops;)
    for (std::uint32_t j = c.super_begin_[b]; j < c.super_begin_[b + 1]; ++j) walk(j, 0, db);
  }

  // Trees, parent first; the min keeps the source's own up-path.
  for (const ChainIndex::TreeArc& t : c.fill_) {
    const double dt = cost[t.parent] + w[t.arc];
    if (dt < cost[t.node]) cost[t.node] = dt;
  }
  SENS_OBS(obs_relaxed += c.fill_.size(); obs::add(obs::Counter::kDijkstraRuns, 1);
           obs::add(obs::Counter::kDijkstraHeapPops, obs_pops);
           obs::add(obs::Counter::kDijkstraRelaxedArcs, obs_relaxed);)
}

void chain_many_into(const CsrGraph& g, const ChainIndex& chains,
                     std::span<const std::uint32_t> sources, std::span<const double> arc_weights,
                     std::span<double> out) {
  const std::size_t n = g.num_vertices();
  check_arc_weights(g, arc_weights, "chain_many_into");
  if (out.size() != sources.size() * n) {
    throw std::invalid_argument("chain_many_into: out.size() != sources.size() * n");
  }
  chains.check_graph(g, "chain_many_into");
  for (const std::uint32_t s : sources) check_vertex_id(g, s, "chain_many_into");
  // One warm scratch per participant, as in dijkstra_many_into.
  parallel_for_chunks<DijkstraScratch>(
      sources.size(), [&](DijkstraScratch& scratch, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          chain_costs_into(g, chains, sources[i], arc_weights, scratch, out.subspan(i * n, n));
        }
      });
}

}  // namespace sens
