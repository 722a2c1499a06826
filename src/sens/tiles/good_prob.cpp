#include "sens/tiles/good_prob.hpp"

#include <algorithm>

#include "sens/geometry/box.hpp"
#include "sens/geograph/point_set.hpp"
#include "sens/rng/rng.hpp"
#include "sens/support/parallel.hpp"

namespace sens {

Proportion udg_good_probability(const UdgTileSpec& spec, double lambda, std::size_t trials,
                                std::uint64_t seed) {
  const Box tile = Box::square({0.0, 0.0}, spec.side);
  const std::size_t hits = parallel_reduce(
      trials, std::size_t{0},
      [&](std::size_t t) -> std::size_t {
        const std::vector<Vec2> pts = poisson_points_in_box(tile, lambda, seed, t);
        return udg_tile_good(spec, pts) ? 1 : 0;
      },
      [](std::size_t a, std::size_t b) { return a + b; });
  return Proportion{hits, trials};
}

double find_udg_lambda_threshold(const UdgTileSpec& spec, double target, std::size_t trials,
                                 std::uint64_t seed, double lo, double hi, int steps) {
  for (int s = 0; s < steps; ++s) {
    const double mid = (lo + hi) / 2.0;
    const double p =
        udg_good_probability(spec, mid, trials, mix_seed(seed, static_cast<std::uint64_t>(s))).estimate();
    if (p < target)
      lo = mid;
    else
      hi = mid;
  }
  return (lo + hi) / 2.0;
}

NnGoodCurve::NnGoodCurve(double a, std::size_t trials, std::uint64_t seed) {
  // Regions do not depend on k; build the spec once with a placeholder k.
  const NnTileSpec spec(a, 2);
  const Box tile = Box::square({0.0, 0.0}, spec.side());
  trials_ = parallel_map<NnTileTrial>(trials, [&](std::size_t t) {
    const std::vector<Vec2> pts = poisson_points_in_box(tile, 1.0, seed, t);
    NnTileTrial trial;
    trial.occupancy = static_cast<std::uint32_t>(pts.size());
    trial.regions_occupied = spec.regions_occupied(pts);
    return trial;
  });
}

Proportion NnGoodCurve::probability_at(std::size_t k) const {
  const std::size_t cap = k / 2;
  std::size_t hits = 0;
  for (const auto& t : trials_)
    if (t.regions_occupied && t.occupancy <= cap) ++hits;
  return Proportion{hits, trials_.size()};
}

Proportion NnGoodCurve::occupancy_only() const {
  std::size_t hits = 0;
  for (const auto& t : trials_)
    if (t.regions_occupied) ++hits;
  return Proportion{hits, trials_.size()};
}

std::size_t NnGoodCurve::threshold_k(double target) const {
  if (occupancy_only().estimate() < target) return 0;
  // P(good) is nondecreasing in k; binary search the smallest k meeting the
  // target. Occupancies are bounded; cap the search at 2*max+2.
  std::uint32_t max_occ = 0;
  for (const auto& t : trials_) max_occ = std::max(max_occ, t.occupancy);
  std::size_t lo = 1, hi = 2 * static_cast<std::size_t>(max_occ) + 2;
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (probability_at(mid).estimate() >= target)
      hi = mid;
    else
      lo = mid + 1;
  }
  return lo;
}

}  // namespace sens
