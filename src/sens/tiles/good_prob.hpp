// Monte-Carlo estimation of P(tile good) and the threshold searches behind
// Theorems 2.2 and 2.4.
//
// Tile goodness depends only on the points inside the tile, so the coupled
// site process is exactly iid site percolation with p = P(good); the
// construction percolates once P(good) exceeds the site threshold
// p_c ≈ 0.5927 (the paper uses 0.593). These estimators evaluate P(good)
// per parameter value and locate the crossing:
//   * UDG: P(good) is increasing in the density lambda  => bisection;
//   * NN:  with the tile scale a fixed, P(good) is increasing in k (only
//     the occupancy cap k/2 depends on k) => one batch of trials yields the
//     entire curve over k at once (NnGoodCurve).
#pragma once

#include <cstdint>
#include <vector>

#include "sens/support/stats.hpp"
#include "sens/tiles/nn_tile.hpp"
#include "sens/tiles/udg_tile.hpp"

namespace sens {

/// MC estimate of P(good) for a UDG tile at density lambda.
[[nodiscard]] Proportion udg_good_probability(const UdgTileSpec& spec, double lambda,
                                              std::size_t trials, std::uint64_t seed);

/// Smallest lambda with P(good) >= target (bisection over [lo, hi] using
/// `trials` samples per probe). This is the measured lambda_s.
[[nodiscard]] double find_udg_lambda_threshold(const UdgTileSpec& spec, double target,
                                               std::size_t trials, std::uint64_t seed,
                                               double lo = 0.25, double hi = 64.0,
                                               int steps = 24);

/// One NN tile trial result: tile occupancy and whether all nine regions
/// were occupied. Goodness at any k is N <= k/2 && occupied.
struct NnTileTrial {
  std::uint32_t occupancy = 0;
  bool regions_occupied = false;
};

/// Run `trials` independent tile samples at unit density for tile scale a.
/// The same batch evaluates every k (the regions do not depend on k).
class NnGoodCurve {
 public:
  NnGoodCurve(double a, std::size_t trials, std::uint64_t seed);

  [[nodiscard]] Proportion probability_at(std::size_t k) const;
  /// Probability that the nine regions are occupied, ignoring the cap
  /// (the k -> infinity limit; ablation A2).
  [[nodiscard]] Proportion occupancy_only() const;
  /// Smallest k with P(good) >= target, or 0 when even the cap-free
  /// probability stays below target.
  [[nodiscard]] std::size_t threshold_k(double target) const;

 private:
  std::vector<NnTileTrial> trials_;
};

}  // namespace sens
