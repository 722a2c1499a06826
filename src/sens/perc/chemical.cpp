#include "sens/perc/chemical.hpp"

#include <algorithm>
#include <limits>

#include "sens/rng/rng.hpp"

namespace sens {

namespace {
constexpr std::uint32_t kUnset = std::numeric_limits<std::uint32_t>::max();
}  // namespace

void chemical_distances_into(const SiteGrid& grid, Site source, ChemicalScratch& scratch,
                             std::span<std::uint32_t> out) {
  // `out` doubles as the distance array: the sentinel fill is required for
  // the dense result anyway, so the only per-call state to reuse is the
  // frontier (kept warm in the scratch).
  std::fill(out.begin(), out.end(), kUnset);
  if (!grid.open(source)) return;
  scratch.queue.clear();
  out[grid.index(source)] = 0;
  scratch.queue.push_back(static_cast<std::uint32_t>(grid.index(source)));
  std::size_t head = 0;
  while (head < scratch.queue.size()) {
    const std::uint32_t ui = scratch.queue[head++];
    const Site u = grid.site_at(ui);
    const std::uint32_t du = out[ui];
    grid.for_each_neighbor(u, [&](Site v) {
      const std::size_t vi = grid.index(v);
      if (grid.open(v) && out[vi] == kUnset) {
        out[vi] = du + 1;
        scratch.queue.push_back(static_cast<std::uint32_t>(vi));
      }
    });
  }
}

std::vector<ChemicalSample> sample_chemical_distances(const SiteGrid& grid,
                                                      const ClusterLabels& labels,
                                                      std::int32_t target_separation,
                                                      std::size_t num_pairs, std::uint64_t seed) {
  std::vector<ChemicalSample> samples;
  if (labels.largest_cluster() < 0) return samples;

  // Collect largest-cluster members once.
  std::vector<Site> members;
  for (std::size_t idx = 0; idx < grid.num_sites(); ++idx) {
    const Site s = grid.site_at(idx);
    if (labels.in_largest(s)) members.push_back(s);
  }
  if (members.size() < 2) return samples;

  Rng rng = Rng::stream(seed, 0xD157);
  // One BFS scratch + distance buffer reused across every attempt.
  ChemicalScratch scratch;
  std::vector<std::uint32_t> dists(grid.num_sites());
  std::size_t attempts = 0;
  while (samples.size() < num_pairs && attempts < num_pairs * 40) {
    ++attempts;
    const Site a = members[rng.uniform_index(members.size())];
    // Find a member at (approximately) the target separation: try the four
    // axis-aligned displaced positions and accept any largest-cluster site
    // within a +-separation/4 L1 shell around them.
    const std::int32_t sep = target_separation;
    const Site trial{a.x + (rng.bernoulli(0.5) ? sep : -sep),
                     a.y + static_cast<std::int32_t>(rng.uniform_int(-sep / 2, sep / 2))};
    if (!grid.in_bounds(trial)) continue;
    // Scan a small neighborhood of the trial position for a cluster member.
    Site b = trial;
    bool found = false;
    for (std::int32_t dy = 0; dy <= 2 && !found; ++dy) {
      for (std::int32_t dx = 0; dx <= 2 && !found; ++dx) {
        const Site c{trial.x + dx, trial.y + dy};
        if (grid.in_bounds(c) && labels.in_largest(c)) {
          b = c;
          found = true;
        }
      }
    }
    if (!found || (b.x == a.x && b.y == a.y)) continue;
    chemical_distances_into(grid, a, scratch, dists);
    const std::uint32_t dp = dists[grid.index(b)];
    if (dp == kUnset) continue;  // different cluster (cannot happen for largest)
    samples.push_back({lattice_distance(a, b), dp});
  }
  return samples;
}

}  // namespace sens
