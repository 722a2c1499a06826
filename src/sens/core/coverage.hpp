// Coverage measurements (Theorem 3.3 / property P3): the probability that a
// square region contains no node of the SENS subgraph, as a function of the
// region side. Two estimators:
//
//   * tile level, exact sliding window — P(an m x m block of tiles contains
//     no giant-component representative), evaluated over *every* block
//     position via a summed-area table. This mirrors the proof (all sites of
//     phi(T_B(l)) outside the infinite cluster) and has the best statistics.
//   * node level, Monte Carlo — P(a side-l box in R^2 contains no
//     giant-component overlay node), the literal statement of Theorem 3.3.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sens/core/overlay.hpp"
#include "sens/support/stats.hpp"

namespace sens {

/// Exact fraction of m x m site blocks containing no giant-component rep,
/// for each m in `box_sizes` (values larger than the window give 0 blocks
/// and report probability 1).
[[nodiscard]] std::vector<double> empty_block_probability(const Overlay& overlay,
                                                          std::span<const int> box_sizes);

/// Monte-Carlo estimate of P(|B(l) ∩ SENS| = 0) with axis-aligned side-l
/// boxes placed uniformly inside the overlay window (margin keeps boxes
/// fully interior). Throws std::invalid_argument unless `ell` is finite
/// and > 0.
[[nodiscard]] Proportion empty_box_probability(const Overlay& overlay, double ell,
                                               std::size_t trials, std::uint64_t seed);

}  // namespace sens
