#include "sens/perc/crossing.hpp"

#include <deque>
#include <vector>

#include "sens/rng/rng.hpp"
#include "sens/support/parallel.hpp"

namespace sens {

bool has_lr_crossing(const SiteGrid& grid) {
  std::vector<std::uint8_t> visited(grid.num_sites(), 0);
  std::deque<Site> queue;
  for (std::int32_t y = 0; y < grid.height(); ++y) {
    const Site s{0, y};
    if (grid.open(s)) {
      visited[grid.index(s)] = 1;
      queue.push_back(s);
    }
  }
  while (!queue.empty()) {
    const Site u = queue.front();
    queue.pop_front();
    if (u.x == grid.width() - 1) return true;
    grid.for_each_neighbor(u, [&](Site v) {
      if (grid.open(v) && !visited[grid.index(v)]) {
        visited[grid.index(v)] = 1;
        queue.push_back(v);
      }
    });
  }
  return false;
}

double crossing_probability(std::int32_t n, double p, std::size_t trials, std::uint64_t seed) {
  if (trials == 0) return 0.0;
  const std::size_t hits = parallel_reduce(
      trials, std::size_t{0},
      [&](std::size_t t) -> std::size_t {
        const SiteGrid grid = SiteGrid::random(n, n, p, mix_seed(seed, t));
        return has_lr_crossing(grid) ? 1 : 0;
      },
      [](std::size_t a, std::size_t b) { return a + b; });
  return static_cast<double>(hits) / static_cast<double>(trials);
}

double estimate_half_crossing_point(std::int32_t n, std::size_t trials_per_step,
                                    std::uint64_t seed, int bisection_steps) {
  double lo = 0.35;
  double hi = 0.85;
  for (int step = 0; step < bisection_steps; ++step) {
    const double mid = (lo + hi) / 2.0;
    const double prob =
        crossing_probability(n, mid, trials_per_step, mix_seed(seed, static_cast<std::uint64_t>(step)));
    if (prob < 0.5)
      lo = mid;
    else
      hi = mid;
  }
  return (lo + hi) / 2.0;
}

}  // namespace sens
