// Chemical (graph) distance inside a percolated configuration — the paper's
// D_p(x, y), against the unpercolated lattice distance D(x, y). The
// Antal-Pisztora theorem (Lemma 1.1) says P(D_p > a) < exp(-c a) for
// a > rho * D; experiment E8 measures rho and the exceedance tail.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sens/perc/clusters.hpp"
#include "sens/perc/site_grid.hpp"

namespace sens {

/// Caller-owned frontier buffer for chemical-distance BFS runs: one
/// allocation warm across sources instead of a deque per call (the
/// traversal contract, DESIGN.md §2.4). Contents are opaque; never share
/// one scratch between threads.
struct ChemicalScratch {
  std::vector<std::uint32_t> queue;  ///< site indices, reused across runs
};

/// BFS hop distances over open sites from `source` (must be open) written
/// into `out` (size num_sites); closed/unreachable sites get 0xffffffff.
/// Allocation-free given a warm scratch and out buffer.
void chemical_distances_into(const SiteGrid& grid, Site source, ChemicalScratch& scratch,
                             std::span<std::uint32_t> out);

struct ChemicalSample {
  std::int32_t lattice = 0;   ///< D(x, y): L1 distance
  std::uint32_t chemical = 0; ///< D_p(x, y): hops through open sites
  [[nodiscard]] double ratio() const {
    return lattice == 0 ? 1.0 : static_cast<double>(chemical) / static_cast<double>(lattice);
  }
};

/// Sample chemical/lattice distance pairs between sites of the largest
/// cluster at (approximately) the requested lattice separation.
[[nodiscard]] std::vector<ChemicalSample> sample_chemical_distances(
    const SiteGrid& grid, const ClusterLabels& labels, std::int32_t target_separation,
    std::size_t num_pairs, std::uint64_t seed);

}  // namespace sens
