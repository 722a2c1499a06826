// Test-local reference for the tree/chain decomposition behind the chain
// sweep (sens/graph/chain_sweep.hpp), shared by the serve and obs tests.
// It finds the 2-core the slow, direct way — drop every vertex with fewer
// than two core neighbors, repeat until nothing changes — and hangs each
// tree vertex from the core vertex its tree touches, by a search out of
// the core. Branches are core vertices of core degree >= 3, plus one per
// pure cycle (a core component without such a vertex).
#pragma once

#include <cstdint>
#include <vector>

#include "sens/graph/csr.hpp"

#include "union_find.hpp"

namespace sens::testing_ref {

struct ChainReference {
  static constexpr std::uint32_t kNone = 0xffffffffu;

  std::vector<std::uint32_t> core_degree;  ///< per vertex; 0 off the core
  /// Per vertex: itself on the core, else the core vertex its tree hangs
  /// from, or kNone in a component without a core (a tree).
  std::vector<std::uint32_t> root;
  std::size_t branches = 0;

  [[nodiscard]] bool in_core(std::uint32_t v) const { return core_degree[v] > 0; }
};

inline ChainReference chain_reference(const CsrGraph& g) {
  const auto n = static_cast<std::uint32_t>(g.num_vertices());
  ChainReference r;
  std::vector<bool> core(n, true);
  for (bool changed = true; changed;) {
    changed = false;
    for (std::uint32_t v = 0; v < n; ++v) {
      if (!core[v]) continue;
      std::uint32_t d = 0;
      for (const std::uint32_t u : g.neighbors(v)) d += core[u] ? 1u : 0u;
      if (d < 2) {
        core[v] = false;
        changed = true;
      }
    }
  }
  r.core_degree.assign(n, 0);
  r.root.assign(n, ChainReference::kNone);
  UnionFind cycles(n);
  for (std::uint32_t v = 0; v < n; ++v) {
    if (!core[v]) continue;
    r.root[v] = v;
    for (const std::uint32_t u : g.neighbors(v)) {
      if (!core[u]) continue;
      ++r.core_degree[v];
      (void)cycles.unite(u, v);
    }
  }
  std::vector<bool> has_branch(n, false);
  for (std::uint32_t v = 0; v < n; ++v) {
    if (!core[v]) continue;
    if (r.core_degree[v] >= 3) {
      ++r.branches;
      has_branch[cycles.find(v)] = true;
    }
    // Search the trees hanging from v.
    std::vector<std::uint32_t> stack{v};
    while (!stack.empty()) {
      const std::uint32_t x = stack.back();
      stack.pop_back();
      for (const std::uint32_t u : g.neighbors(x)) {
        if (core[u] || r.root[u] != ChainReference::kNone) continue;
        r.root[u] = v;
        stack.push_back(u);
      }
    }
  }
  for (std::uint32_t v = 0; v < n; ++v) {
    if (core[v] && cycles.find(v) == v && !has_branch[v]) ++r.branches;
  }
  return r;
}

}  // namespace sens::testing_ref
