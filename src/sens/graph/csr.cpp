#include "sens/graph/csr.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "sens/support/checked.hpp"

namespace sens {

namespace {

/// Vertex ids, loop counters and offsets are all std::uint32_t, so a graph
/// must satisfy n < 2^32 and 2m <= 2^32 - 1 (arc indices). Checked at every
/// construction entry point instead of wrapping silently (DESIGN.md §2.8).
void check_index_width(std::size_t n, std::size_t arcs) {
  if (n >= std::numeric_limits<std::uint32_t>::max()) {
    throw std::overflow_error("CsrGraph: vertex count " + std::to_string(n) +
                              " exceeds the 32-bit id space");
  }
  (void)checked_u32(arcs, "CsrGraph: arc");
}

/// Sort every vertex's adjacency slice in place (chunk-parallel; slices are
/// disjoint, so the result is identical at any thread count).
void sort_vertex_lists(const std::vector<std::uint32_t>& offsets,
                       std::vector<std::uint32_t>& adjacency) {
  const std::size_t n = offsets.empty() ? 0 : offsets.size() - 1;
  parallel_for(n, [&](std::size_t v) {
    std::sort(adjacency.begin() + offsets[v], adjacency.begin() + offsets[v + 1]);
  });
}

/// In-place per-vertex dedupe of sorted adjacency lists; rewrites offsets
/// and shrinks adjacency. Serial single pass (write cursor never overtakes
/// the read cursor).
void dedupe_vertex_lists(std::vector<std::uint32_t>& offsets,
                         std::vector<std::uint32_t>& adjacency) {
  const std::size_t n = offsets.empty() ? 0 : offsets.size() - 1;
  std::uint32_t write = 0;
  std::uint32_t read_begin = 0;
  for (std::size_t v = 0; v < n; ++v) {
    const std::uint32_t read_end = offsets[v + 1];
    offsets[v] = write;
    for (std::uint32_t a = read_begin; a < read_end; ++a) {
      if (a > read_begin && adjacency[a] == adjacency[a - 1]) continue;
      adjacency[write++] = adjacency[a];
    }
    read_begin = read_end;
  }
  offsets[n] = write;
  adjacency.resize(write);
}

}  // namespace

CsrGraph CsrGraph::Builder::build(std::size_t n) && {
  check_index_width(n, endpoints_.size());  // endpoints_.size() == 2m pre-merge
  CsrGraph g;
  g.offsets_.assign(n + 1, 0);
  for (std::size_t i = 0; i + 1 < endpoints_.size(); i += 2) {
    const std::uint32_t u = endpoints_[i];
    const std::uint32_t v = endpoints_[i + 1];
    if (u >= n || v >= n) throw std::out_of_range("CsrGraph: vertex id out of range");
    if (u == v) continue;  // self loops dropped
    ++g.offsets_[u + 1];
    ++g.offsets_[v + 1];
  }
  for (std::size_t v = 0; v < n; ++v) g.offsets_[v + 1] += g.offsets_[v];
  g.adjacency_.resize(g.offsets_[n]);  // exact: 2m pre-merge
  std::vector<std::uint32_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (std::size_t i = 0; i + 1 < endpoints_.size(); i += 2) {
    const std::uint32_t u = endpoints_[i];
    const std::uint32_t v = endpoints_[i + 1];
    if (u == v) continue;
    g.adjacency_[cursor[u]++] = v;
    g.adjacency_[cursor[v]++] = u;
  }
  endpoints_.clear();
  sort_vertex_lists(g.offsets_, g.adjacency_);
  dedupe_vertex_lists(g.offsets_, g.adjacency_);
  return g;
}

CsrGraph CsrGraph::from_edges(std::size_t n,
                              std::vector<std::pair<std::uint32_t, std::uint32_t>> edges) {
  Builder b;
  for (const auto& [u, v] : edges) b.add_edge(u, v);
  edges.clear();
  return std::move(b).build(n);
}

CsrGraph CsrGraph::from_symmetric_adjacency(FlatAdjacency adj, bool lists_sorted) {
  if (!adj.offsets.empty() && adj.offsets.back() != adj.neighbors.size()) {
    throw std::invalid_argument("CsrGraph: offsets and neighbors disagree");
  }
  check_index_width(adj.size(), adj.neighbors.size());
  CsrGraph g;
  g.offsets_ = std::move(adj.offsets);
  g.adjacency_ = std::move(adj.neighbors);
  if (g.offsets_.empty()) g.offsets_.assign(1, 0);
  if (!lists_sorted) sort_vertex_lists(g.offsets_, g.adjacency_);
  return g;
}

CsrGraph CsrGraph::from_selections(FlatAdjacency sel) {
  const std::size_t n = sel.size();
  if (!sel.offsets.empty() && sel.offsets.back() != sel.neighbors.size()) {
    throw std::invalid_argument("CsrGraph: offsets and neighbors disagree");
  }
  check_index_width(n, sel.neighbors.size());
  for (const std::uint32_t v : sel.neighbors) {
    if (v >= n) throw std::out_of_range("CsrGraph: vertex id out of range");
  }
  sort_vertex_lists(sel.offsets, sel.neighbors);

  // Reverse selections by counting sort. Filling in ascending source order
  // leaves every reverse list already sorted.
  FlatAdjacency rev;
  rev.offsets.assign(n + 1, 0);
  for (const std::uint32_t v : sel.neighbors) ++rev.offsets[v + 1];
  for (std::size_t v = 0; v < n; ++v) rev.offsets[v + 1] += rev.offsets[v];
  rev.neighbors.resize(sel.neighbors.size());
  {
    std::vector<std::uint32_t> cursor(rev.offsets.begin(), rev.offsets.end() - 1);
    for (std::size_t u = 0; u < n; ++u) {
      for (const std::uint32_t v : sel[u]) {
        rev.neighbors[cursor[v]++] = static_cast<std::uint32_t>(u);
      }
    }
  }

  // Per-vertex sorted-set union of out- and in-selections, dropping self
  // entries and duplicates; `emit` is counted in pass 1 and written in
  // pass 2 of the two-pass builder.
  auto merge = [&](std::size_t i, auto&& emit) {
    const auto u = static_cast<std::uint32_t>(i);
    const auto out = sel[i];
    const auto in = rev[i];
    std::size_t a = 0;
    std::size_t b = 0;
    std::uint32_t last = u;  // sentinel: also drops a leading self entry
    bool has_last = false;
    while (a < out.size() || b < in.size()) {
      std::uint32_t next;
      if (b == in.size() || (a < out.size() && out[a] <= in[b])) {
        next = out[a++];
      } else {
        next = in[b++];
      }
      if (next == u || (has_last && next == last)) continue;
      emit(next);
      last = next;
      has_last = true;
    }
  };
  FlatAdjacency merged = build_flat_adjacency(
      n,
      [&](std::size_t i) {
        std::size_t count = 0;
        merge(i, [&](std::uint32_t) { ++count; });
        return count;
      },
      [&](std::size_t i, std::uint32_t* out) {
        merge(i, [&](std::uint32_t v) { *out++ = v; });
      });
  return from_symmetric_adjacency(std::move(merged), /*lists_sorted=*/true);
}

namespace {

/// Directed per-vertex view of an undirected (u < v) pair delta, built by
/// counting sort. Vertex x's list holds every partner, ascending: the
/// reverse direction fills first (partners below x, arriving in ascending
/// pair order), then the forward direction (partners above x) — so each
/// list is globally sorted without a sort call. Validates shape: u < v,
/// ids < n, strictly ascending pairs.
FlatAdjacency directed_delta(std::size_t n,
                             std::span<const std::pair<std::uint32_t, std::uint32_t>> pairs,
                             const char* bad_shape) {
  FlatAdjacency adj;
  adj.offsets.assign(n + 1, 0);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const auto [u, v] = pairs[i];
    if (u >= v) throw std::invalid_argument(bad_shape);
    if (v >= n) throw std::out_of_range("CsrGraph::apply_edge_delta: vertex id out of range");
    if (i > 0 && !(pairs[i - 1] < pairs[i])) throw std::invalid_argument(bad_shape);
    ++adj.offsets[u + 1];
    ++adj.offsets[v + 1];
  }
  // Checked prefix sum (§2.8): an adversarial grow delta can push the
  // directed total past the 32-bit offset space, which must fail loudly
  // instead of wrapping into a corrupt counting sort.
  std::uint64_t total = 0;
  for (std::size_t v = 0; v < n; ++v) {
    total += adj.offsets[v + 1];
    adj.offsets[v + 1] = checked_u32(total, "CsrGraph::apply_edge_delta delta offsets");
  }
  adj.neighbors.resize(adj.offsets[n]);
  std::vector<std::uint32_t> cursor(adj.offsets.begin(), adj.offsets.end() - 1);
  for (const auto& [u, v] : pairs) adj.neighbors[cursor[v]++] = u;
  for (const auto& [u, v] : pairs) adj.neighbors[cursor[u]++] = v;
  return adj;
}

}  // namespace

CsrGraph CsrGraph::apply_edge_delta(
    const CsrGraph& g, std::size_t n_new,
    std::span<const std::pair<std::uint32_t, std::uint32_t>> removed,
    std::span<const std::pair<std::uint32_t, std::uint32_t>> added) {
  const std::size_t n_old = g.num_vertices();
  // Entry guard (§2.8): the delta path predates the checked builders and
  // must reject a grow delta whose result outruns the 32-bit id/arc space
  // before any counting sort runs. Removals are validated to exist later,
  // so the final arc count is exact when the delta is well-formed.
  const std::size_t grown = g.num_arcs() + 2 * added.size();
  check_index_width(n_new, grown >= 2 * removed.size() ? grown - 2 * removed.size() : 0);
  const FlatAdjacency rem = directed_delta(
      n_old, removed, "CsrGraph::apply_edge_delta: removed list not sorted (u < v) pairs");
  const FlatAdjacency add = directed_delta(
      n_new, added, "CsrGraph::apply_edge_delta: added list not sorted (u < v) pairs");
  for (std::size_t v = n_new; v < n_old; ++v) {
    if (rem.degree(v) != g.degree(static_cast<std::uint32_t>(v))) {
      throw std::invalid_argument("CsrGraph::apply_edge_delta: dropped vertex keeps edges");
    }
  }

  // Per-vertex three-way merge: (old list minus removals) union additions,
  // all sorted — `emit` is counted in pass 1 and written in pass 2 of the
  // two-pass builder. Validation rides along: every removal must match an
  // old neighbor, no addition may collide with a surviving one.
  constexpr std::span<const std::uint32_t> kEmpty;
  auto merge = [&](std::size_t i, auto&& emit) {
    const auto u = static_cast<std::uint32_t>(i);
    const std::span<const std::uint32_t> old = i < n_old ? g.neighbors(u) : kEmpty;
    const std::span<const std::uint32_t> rm = i < n_old ? rem[i] : kEmpty;
    const std::span<const std::uint32_t> ad = add[i];
    std::size_t a = 0;
    std::size_t r = 0;
    std::size_t b = 0;
    while (a < old.size() || b < ad.size()) {
      if (a < old.size() && b < ad.size() && old[a] == ad[b]) {
        // Even a removed-then-added edge is rejected: the two deltas must
        // be disjoint from each other and from the surviving set.
        throw std::invalid_argument("CsrGraph::apply_edge_delta: added edge already present");
      }
      if (a < old.size() && (b == ad.size() || old[a] < ad[b])) {
        const std::uint32_t x = old[a++];
        if (r < rm.size() && rm[r] == x) {
          ++r;
          continue;
        }
        emit(x);
      } else {
        emit(ad[b++]);
      }
    }
    if (r != rm.size()) {
      throw std::invalid_argument("CsrGraph::apply_edge_delta: removed edge not present");
    }
  };
  // Vertices with no delta entries (the vast majority under incremental
  // churn) skip the merge entirely: their new list is their old list.
  auto untouched = [&](std::size_t i) {
    return i < n_old && rem[i].empty() && add[i].empty();
  };
  FlatAdjacency merged = build_flat_adjacency(
      n_new,
      [&](std::size_t i) {
        if (untouched(i)) return g.degree(static_cast<std::uint32_t>(i));
        std::size_t count = 0;
        merge(i, [&](std::uint32_t) { ++count; });
        return count;
      },
      [&](std::size_t i, std::uint32_t* out) {
        if (untouched(i)) {
          const auto old = g.neighbors(static_cast<std::uint32_t>(i));
          std::copy(old.begin(), old.end(), out);
          return;
        }
        merge(i, [&](std::uint32_t v) { *out++ = v; });
      });
  return from_symmetric_adjacency(std::move(merged), /*lists_sorted=*/true);
}

std::size_t CsrGraph::max_degree() const {
  std::size_t best = 0;
  for (std::size_t v = 0; v < num_vertices(); ++v) best = std::max(best, degree(static_cast<std::uint32_t>(v)));
  return best;
}

double CsrGraph::mean_degree() const {
  const std::size_t n = num_vertices();
  return n == 0 ? 0.0 : 2.0 * static_cast<double>(num_edges()) / static_cast<double>(n);
}

bool CsrGraph::has_edge(std::uint32_t u, std::uint32_t v) const {
  if (degree(u) > degree(v)) std::swap(u, v);
  const auto nbrs = neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

std::vector<std::pair<std::uint32_t, std::uint32_t>> CsrGraph::edge_list() const {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> out;
  out.reserve(num_edges());
  for (std::uint32_t u = 0; u < num_vertices(); ++u)
    for (std::uint32_t v : neighbors(u))
      if (u < v) out.emplace_back(u, v);
  return out;
}

void check_vertex_id(const CsrGraph& g, std::uint32_t v, const char* who) {
  if (v >= g.num_vertices()) {
    throw std::out_of_range(std::string(who) + ": vertex id >= num_vertices()");
  }
}

}  // namespace sens
