#include "sens/geograph/point_set.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "sens/rng/rng.hpp"
#include "sens/support/parallel.hpp"

namespace sens {

namespace {

/// The deterministic stream of unit cell (ix, iy), read by both passes —
/// the cell-consistency contract says a cell's points depend only on
/// (seed, ix, iy), never on the window or the order cells are visited in.
Rng cell_rng(std::uint64_t seed, long ix, long iy) {
  return Rng::stream(seed, static_cast<std::uint64_t>(ix) * 0x9E3779B9ULL + 0x12345,
                     static_cast<std::uint64_t>(iy) * 0x85EBCA6BULL + 0x6789A);
}

struct CellRange {
  long ix0, iy0;
  std::size_t nx, ny;
  [[nodiscard]] std::size_t cells() const { return nx * ny; }
};

CellRange cell_range(Box window) {
  const auto ix0 = static_cast<long>(std::floor(window.lo.x));
  const auto iy0 = static_cast<long>(std::floor(window.lo.y));
  const auto ix1 = static_cast<long>(std::ceil(window.hi.x));
  const auto iy1 = static_cast<long>(std::ceil(window.hi.y));
  return {ix0, iy0, static_cast<std::size_t>(ix1 - ix0), static_cast<std::size_t>(iy1 - iy0)};
}

}  // namespace

PointSet poisson_point_set(Box window, double lambda, std::uint64_t seed) {
  if (lambda < 0.0) throw std::invalid_argument("poisson_point_set: lambda < 0");
  PointSet ps;
  ps.window = window;
  ps.intensity = lambda;
  if (lambda == 0.0 || window.area() <= 0.0) return ps;

  const CellRange range = cell_range(window);
  const std::size_t cells = range.cells();
  const auto cell_xy = [&](std::size_t c) {
    return std::pair<long, long>{range.ix0 + static_cast<long>(c % range.nx),
                                 range.iy0 + static_cast<long>(c / range.nx)};
  };
  // A cell strictly inside the window keeps every generated point, so the
  // count pass only draws positions for boundary cells. The upper tests are
  // strict: ix + u (u < 1) rounds up to ix + 1 once the spacing of doubles
  // at ix exceeds 2^-52, and such a point lies on hi.x when ix + 1 == hi.x,
  // outside the half-open window.
  const auto interior = [&](long ix, long iy) {
    return static_cast<double>(ix) >= window.lo.x &&
           static_cast<double>(ix + 1) < window.hi.x && static_cast<double>(iy) >= window.lo.y &&
           static_cast<double>(iy + 1) < window.hi.y;
  };

  // Pass 1: per-cell kept-point counts (each cell re-derives its own stream,
  // so the pass parallelizes with no shared state).
  std::vector<std::uint32_t> counts(cells, 0);
  parallel_for(cells, [&](std::size_t c) {
    const auto [ix, iy] = cell_xy(c);
    Rng rng = cell_rng(seed, ix, iy);
    const std::uint64_t n = rng.poisson(lambda);
    if (interior(ix, iy)) {
      counts[c] = static_cast<std::uint32_t>(n);
      return;
    }
    std::uint32_t kept = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      const Vec2 p{static_cast<double>(ix) + rng.uniform(),
                   static_cast<double>(iy) + rng.uniform()};
      kept += window.contains(p) ? 1u : 0u;
    }
    counts[c] = kept;
  });

  std::vector<std::uint64_t> offsets(cells + 1, 0);
  for (std::size_t c = 0; c < cells; ++c) offsets[c + 1] = offsets[c] + counts[c];
  ps.points.resize(static_cast<std::size_t>(offsets[cells]));  // exact, final

  // Pass 2: redraw each cell's stream from the top and fill its disjoint
  // slice — grid-major order by construction.
  parallel_for(cells, [&](std::size_t c) {
    const auto [ix, iy] = cell_xy(c);
    Rng rng = cell_rng(seed, ix, iy);
    const std::uint64_t n = rng.poisson(lambda);
    Vec2* out = ps.points.data() + offsets[c];
    const bool keep_all = interior(ix, iy);
    for (std::uint64_t i = 0; i < n; ++i) {
      const Vec2 p{static_cast<double>(ix) + rng.uniform(),
                   static_cast<double>(iy) + rng.uniform()};
      if (keep_all || window.contains(p)) *out++ = p;
    }
  });
  return ps;
}

PointSet poisson_point_set_ordered(Box window, double lambda, std::uint64_t seed) {
  return poisson_point_set(window, lambda, seed);
}

std::vector<Vec2> poisson_points_in_box(Box box, double lambda, std::uint64_t seed,
                                        std::uint64_t stream) {
  std::vector<Vec2> out;
  if (lambda <= 0.0 || box.area() <= 0.0) return out;
  Rng rng = Rng::stream(seed, stream);
  const std::uint64_t n = rng.poisson(lambda * box.area());
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    out.push_back({rng.uniform(box.lo.x, box.hi.x), rng.uniform(box.lo.y, box.hi.y)});
  }
  return out;
}

}  // namespace sens
