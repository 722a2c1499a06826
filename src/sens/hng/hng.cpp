#include "sens/hng/hng.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "sens/graph/csr.hpp"
#include "sens/rng/rng.hpp"
#include "sens/spatial/grid_knn.hpp"
#include "sens/support/checked.hpp"
#include "sens/support/parallel.hpp"

namespace sens {

namespace {

/// Stream tag for the promotion draws ("HNG"); each node's promotion chain
/// is the independent stream (seed, kHngLevelStream, node).
constexpr std::uint64_t kHngLevelStream = 0x484e47;

}  // namespace

void validate_hng_params(const HngParams& params) {
  if (!(params.promote_p > 0.0 && params.promote_p < 1.0)) {
    throw std::invalid_argument("hng: promote_p must be in (0, 1)");
  }
  if (params.k < 1) throw std::invalid_argument("hng: k must be >= 1");
  if (params.max_level < 2) throw std::invalid_argument("hng: max_level must be >= 2");
}

std::uint32_t hng_promotion_level(std::uint64_t seed, std::uint64_t node,
                                  const HngParams& params) {
  Rng rng = Rng::stream(seed, kHngLevelStream, node);
  std::uint32_t level = 1;
  while (level < params.max_level && rng.bernoulli(params.promote_p)) ++level;
  return level;
}

HngResult build_hng(std::span<const Vec2> points, const HngParams& params, std::uint64_t seed) {
  validate_hng_params(params);

  HngResult r;
  r.geo.points.assign(points.begin(), points.end());
  const std::size_t n = points.size();
  r.level.assign(n, 0);
  if (n == 0) return r;

  // Promotion by p-thinning: node u climbs while its own stream keeps
  // drawing heads. Each node reads only its (seed, stream, u) draws, so the
  // level vector is a pure function of (seed, params) — never of the chunk
  // schedule (DESIGN.md §2.5).
  parallel_for_chunks(n, [&](std::size_t begin, std::size_t end) {
    for (std::size_t u = begin; u < end; ++u) {
      r.level[u] = hng_promotion_level(seed, u, params);
    }
  });
  r.top_level = *std::max_element(r.level.begin(), r.level.end());

  // Population lists S_2 ⊇ ... ⊇ S_top (S_1 is the whole input and is
  // never queried) — one ascending pass over the level vector, no
  // intermediate copies. members[i] holds S_(i+2).
  std::vector<std::vector<std::uint32_t>> members(r.top_level >= 2 ? r.top_level - 1 : 0);
  {
    // Count-then-fill: a node of level l appears in S_2..S_l, so one
    // histogram over the level vector plus a suffix sum yields every
    // |S_l| exactly — each member list is a single allocation instead of
    // growth-by-doubling (DESIGN.md §2.8).
    std::vector<std::size_t> at_level(r.top_level + 1, 0);
    for (std::uint32_t u = 0; u < n; ++u) ++at_level[r.level[u]];
    std::size_t above = 0;
    for (std::uint32_t l = r.top_level; l >= 2; --l) {
      above += at_level[l];
      members[l - 2].reserve(above);
    }
    for (std::uint32_t u = 0; u < n; ++u) {
      for (std::uint32_t l = 2; l <= r.level[u]; ++l) {
        members[l - 2].push_back(u);
      }
    }
  }
  r.cumulative_size.resize(r.top_level);
  r.cumulative_size[0] = static_cast<std::uint32_t>(n);
  for (std::uint32_t l = 2; l <= r.top_level; ++l) {
    r.cumulative_size[l - 1] = static_cast<std::uint32_t>(members[l - 2].size());
  }
  // One density-tuned grid per linking target, each a subset view over the
  // caller's `points` — no coordinate copy.
  std::vector<GridKnn> levels;
  levels.reserve(members.size());
  for (const std::vector<std::uint32_t>& m : members) {
    levels.emplace_back(points, m, std::min(params.k, m.size()));
  }

  // Directed selections: a node of exact level l < top links to its
  // min(k, |S_{l+1}|) nearest neighbors in S_{l+1}; the top-level nodes are
  // mutually interconnected (the paper's top clique — expected O(1) nodes).
  // Degrees are a pure function of the level vector, so the offsets are
  // fixed up front and every node fills its own disjoint slice.
  // S_top is the last member list when the hierarchy has >= 2 levels;
  // otherwise (nobody promoted — astronomically rare beyond tiny n) it is
  // every node.
  std::vector<std::uint32_t> everyone;
  if (r.top_level < 2) {
    everyone.resize(n);
    std::iota(everyone.begin(), everyone.end(), 0u);
  }
  const std::vector<std::uint32_t>& top = r.top_level >= 2 ? members.back() : everyone;
  FlatAdjacency sel;
  sel.offsets.assign(n + 1, 0);
  std::uint64_t total = 0;
  for (std::size_t u = 0; u < n; ++u) {
    const std::uint32_t l = r.level[u];
    const std::size_t out_deg =
        l == r.top_level ? top.size() - 1
                         : std::min(params.k, static_cast<std::size_t>(r.cumulative_size[l]));
    total += out_deg;
    sel.offsets[u + 1] = checked_u32(total, "hng: selection");  // DESIGN.md §2.8
  }
  sel.neighbors.resize(sel.offsets[n]);

  // One k-NN scratch per participant (the serial path included), reused
  // across every chunk it claims.
  struct LinkScratch {
    GridKnn::QueryScratch grid;
    std::vector<std::uint32_t> found;
  };
  parallel_for_chunks<LinkScratch>(n, [&](LinkScratch& scratch, std::size_t begin,
                                          std::size_t end) {
    for (std::size_t u = begin; u < end; ++u) {
      std::uint32_t* slot = sel.neighbors.data() + sel.offsets[u];
      const std::uint32_t l = r.level[u];
      if (l == r.top_level) {
        for (const std::uint32_t v : top) {
          if (v != u) *slot++ = v;
        }
        continue;
      }
      levels[l - 1].nearest_into(points[u], params.k, static_cast<std::uint32_t>(u), scratch.grid,
                                 scratch.found);
      std::copy(scratch.found.begin(), scratch.found.end(), slot);
    }
  });

  r.geo.graph = CsrGraph::from_selections(std::move(sel));
  return r;
}

}  // namespace sens
