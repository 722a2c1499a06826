#include "sens/tiles/nn_tile.hpp"

#include <mutex>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sens/geometry/box.hpp"

namespace sens {

namespace {

DiskFamilyRegion make_e_region_for(double a, int dir) {
  const double side = 10.0 * a;
  const Vec2 u = kDirVec[static_cast<std::size_t>(dir)];
  const Box own = Box::square({0.0, 0.0}, side);
  const Box neighbor = Box::square(u * side, side);
  const Box domain = own.united(neighbor);
  std::vector<DiskFamilyGenerator> gens;
  gens.push_back(DiskFamilyGenerator::inscribed(Circle{{0.0, 0.0}, a}, domain));
  gens.push_back(DiskFamilyGenerator::inscribed(Circle{u * (4.0 * a), a}, domain));
  return DiskFamilyRegion(std::move(gens));
}

// Polygonizing the four E regions costs ~0.7 s (4 x 256 ray casts, each a
// bisection over the disk-family margin oracle), and the polygons depend on
// `a` alone — not on k. Tests and Monte-Carlo drivers construct specs with
// the same `a` thousands of times (and ctest runs every gtest case in a
// fresh process), so the polygon set is memoized process-wide and the cache
// is seeded with a baked table for the hot `a` values (generated by
// tools/gen_nn_polygons; proven bit-identical to a fresh computation by
// NnTilePolygonTable.BakedTableMatchesFreshComputation). Exact double keying
// is intended: callers pass the same literals.
struct EPolygonCache {
  std::mutex mutex;
  std::vector<std::pair<double, std::array<ConvexPolygon, 4>>> entries;
};

#include "sens/tiles/nn_tile_polygons.inc"

EPolygonCache& e_polygon_cache() {
  static EPolygonCache cache;
  static const bool seeded = [] {
    baked::seed_nn_polygon_cache(cache.entries);
    return true;
  }();
  (void)seeded;
  return cache;
}

}  // namespace

std::vector<double> baked_nn_polygon_a_values() {
  std::vector<std::pair<double, std::array<ConvexPolygon, 4>>> entries;
  baked::seed_nn_polygon_cache(entries);
  std::vector<double> keys;
  keys.reserve(entries.size());
  for (const auto& [key, polys] : entries) keys.push_back(key);
  return keys;
}

std::array<ConvexPolygon, 4> compute_nn_e_polygons(double a) {
  const double side = 10.0 * a;
  std::array<ConvexPolygon, 4> polys;
  for (int dir = 0; dir < 4; ++dir) {
    const DiskFamilyRegion region = make_e_region_for(a, dir);
    // Interior seed: midway between C0 and the C disk, per Figure 5.
    const Vec2 seed = kDirVec[static_cast<std::size_t>(dir)] * (2.0 * a);
    ConvexPolygon poly = region.polygonize(seed, 6.0 * a, 256);
    // Relay regions must live inside their own tile for local computability;
    // clip defensively (a no-op for the paper geometry).
    polys[static_cast<std::size_t>(dir)] = poly.clip_box(Box::square({0.0, 0.0}, side));
  }
  return polys;
}

NnTileSpec::NnTileSpec(double a, std::size_t k) : a_(a), k_(k) {
  if (a <= 0.0) throw std::invalid_argument("NnTileSpec: a <= 0");
  if (k == 0) throw std::invalid_argument("NnTileSpec: k == 0");
  EPolygonCache& cache = e_polygon_cache();
  {
    const std::lock_guard<std::mutex> lock(cache.mutex);
    for (const auto& [key, polys] : cache.entries) {
      if (key == a_) {
        e_polygons_ = polys;
        return;
      }
    }
  }
  e_polygons_ = compute_nn_e_polygons(a_);
  const std::lock_guard<std::mutex> lock(cache.mutex);
  // Re-check: a concurrent constructor of the same `a` may have inserted
  // while we were computing; keep the cache duplicate-free.
  for (const auto& [key, polys] : cache.entries) {
    if (key == a_) return;
  }
  cache.entries.emplace_back(a_, e_polygons_);
}

bool NnTileSpec::in_e_region_exact(Vec2 local, int dir, double eps) const {
  if (!in_tile(local)) return false;
  return make_e_region_for(a_, dir).contains(local, eps);
}

unsigned NnTileSpec::region_mask(Vec2 local) const {
  unsigned mask = 0;
  if (in_c0(local)) mask |= 1u;
  for (int dir = 0; dir < 4; ++dir) {
    if (in_c_region(local, dir)) mask |= 1u << (dir + 1);
    if (in_e_region(local, dir)) mask |= 1u << (dir + 5);
  }
  return mask;
}

bool NnTileSpec::regions_occupied(std::span<const Vec2> local_points) const {
  constexpr unsigned kAll = 0x1FFu;  // 9 regions
  unsigned mask = 0;
  for (const Vec2 p : local_points) {
    mask |= region_mask(p);
    if (mask == kAll) return true;
  }
  return mask == kAll;
}

bool NnTileSpec::good(std::span<const Vec2> local_points) const {
  if (local_points.size() > max_occupancy()) return false;
  return regions_occupied(local_points);
}

}  // namespace sens
