// Overlay property measurements: sparsity (P1), stretch (P2 / Theorem 3.2)
// and the Claim 2.1 / 2.3 inter-tile path checks.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "sens/core/overlay.hpp"

namespace sens {

/// Degree distribution of the overlay graph. P1 asserts max <= 4.
struct DegreeReport {
  std::size_t max_degree = 0;
  double mean_degree = 0.0;
  std::array<std::size_t, 8> histogram{};  ///< counts of degree 0..6, 7+ in [7]
  std::size_t nodes = 0;
};

[[nodiscard]] DegreeReport overlay_degree_report(const Overlay& overlay);

/// One stretch observation between two representatives of the largest
/// overlay component.
struct StretchSample {
  double euclid = 0.0;       ///< straight-line distance between the reps
  std::uint32_t hops = 0;    ///< overlay graph distance
  double path_length = 0.0;  ///< Euclidean length along the overlay path
  std::int32_t lattice = 0;  ///< tile-lattice L1 distance D(x, y)

  [[nodiscard]] double length_stretch() const {
    return euclid > 0.0 ? path_length / euclid : 1.0;
  }
  /// Hop stretch against lattice distance (Theorem 3.2's d(x,y) vs D(x,y)).
  [[nodiscard]] double hop_per_lattice() const {
    return lattice > 0 ? static_cast<double>(hops) / static_cast<double>(lattice) : 0.0;
  }
};

/// Sample `pairs` random rep pairs of the largest component; each sample
/// runs one BFS + path reconstruction on the overlay graph.
[[nodiscard]] std::vector<StretchSample> sample_overlay_stretch(const Overlay& overlay,
                                                                std::size_t pairs,
                                                                std::uint64_t seed);

/// Claim 2.1 / 2.3 verification over every adjacent pair of good tiles in
/// the window: does the prescribed relay path exist edge-by-edge, and what
/// is its Euclidean length relative to the rep-rep distance (the c_u / c_k
/// constant)?
struct ClaimCheck {
  std::size_t adjacent_good_pairs = 0;
  std::size_t paths_realized = 0;     ///< all prescribed edges exist
  double worst_edge_length = 0.0;     ///< longest overlay edge on a realized path
  double worst_stretch = 0.0;         ///< max path length / rep-rep distance
  double mean_stretch = 0.0;

  [[nodiscard]] double realized_fraction() const {
    return adjacent_good_pairs == 0
               ? 1.0
               : static_cast<double>(paths_realized) / static_cast<double>(adjacent_good_pairs);
  }
};

[[nodiscard]] ClaimCheck check_adjacent_tile_paths(const Overlay& overlay);

}  // namespace sens
