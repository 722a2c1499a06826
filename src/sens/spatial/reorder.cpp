#include "sens/spatial/reorder.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "sens/geometry/box.hpp"
#include "sens/support/checked.hpp"
#include "sens/support/parallel.hpp"

namespace sens {

namespace {

constexpr std::uint32_t kSide = 1u << 16;  ///< quantization cells per axis

/// (x, y) quantized onto the [0, 2^16)^2 lattice over the bounding box.
/// Degenerate extents (all points on a line or a single point) collapse the
/// dead axis to 0 — the key becomes the live axis, which is still a valid
/// locality order.
struct Quantizer {
  double x0, y0, sx, sy;

  explicit Quantizer(std::span<const Vec2> points) : x0(0), y0(0), sx(0), sy(0) {
    if (points.empty()) return;
    double x1 = points[0].x, y1 = points[0].y;
    x0 = x1;
    y0 = y1;
    for (const Vec2& p : points) {
      x0 = std::min(x0, p.x);
      y0 = std::min(y0, p.y);
      x1 = std::max(x1, p.x);
      y1 = std::max(y1, p.y);
    }
    if (x1 > x0) sx = static_cast<double>(kSide - 1) / (x1 - x0);
    if (y1 > y0) sy = static_cast<double>(kSide - 1) / (y1 - y0);
  }

  [[nodiscard]] std::pair<std::uint32_t, std::uint32_t> operator()(Vec2 p) const {
    const auto q = [](double v) {
      return static_cast<std::uint32_t>(std::min(v, static_cast<double>(kSide - 1)));
    };
    return {q((p.x - x0) * sx), q((p.y - y0) * sy)};
  }
};

void check_same_size(std::size_t have, std::size_t want, const char* what) {
  if (have != want) {
    throw std::invalid_argument(std::string("apply_permutation: ") + what + " size " +
                                std::to_string(have) + " != permutation size " +
                                std::to_string(want));
  }
}

}  // namespace

std::uint64_t hilbert_index_16(std::uint32_t x, std::uint32_t y) {
  std::uint64_t d = 0;
  for (std::uint32_t s = kSide / 2; s > 0; s >>= 1) {
    const std::uint32_t rx = (x & s) ? 1u : 0u;
    const std::uint32_t ry = (y & s) ? 1u : 0u;
    d += static_cast<std::uint64_t>(s) * s * ((3u * rx) ^ ry);
    if (ry == 0) {
      if (rx == 1) {
        x = kSide - 1 - x;
        y = kSide - 1 - y;
      }
      std::swap(x, y);
    }
  }
  return d;
}

std::vector<std::uint32_t> spatial_order_permutation(std::span<const Vec2> points,
                                                     SpatialOrder order) {
  const std::size_t n = points.size();
  (void)checked_u32(n, "spatial_order_permutation: point");  // DESIGN.md §2.8
  const Quantizer quantize(points);

  // One packed key per point: spatial key in the high 32 bits (Hilbert index
  // or row-major cell), old id in the low 32 — sorting the packed keys sorts
  // by key with ties broken by old id, so the permutation is deterministic
  // for any input and any thread count (the key fill writes disjoint slots;
  // the sort is serial).
  std::vector<std::uint64_t> keys(n);
  parallel_for(n, [&](std::size_t i) {
    const auto [qx, qy] = quantize(points[i]);
    const std::uint64_t key = order == SpatialOrder::kHilbert
                                  ? hilbert_index_16(qx, qy)
                                  : (static_cast<std::uint64_t>(qy) << 16) | qx;
    keys[i] = (key << 32) | static_cast<std::uint32_t>(i);
  });
  std::sort(keys.begin(), keys.end());

  std::vector<std::uint32_t> perm(n);
  parallel_for(n, [&](std::size_t i) {
    perm[i] = static_cast<std::uint32_t>(keys[i] & 0xffffffffu);
  });
  return perm;
}

std::vector<std::uint32_t> invert_permutation(std::span<const std::uint32_t> perm) {
  const std::size_t n = perm.size();
  constexpr std::uint32_t unset = std::numeric_limits<std::uint32_t>::max();
  // n <= 2^32 - 1 (id space), so `unset` is never a valid new id.
  std::vector<std::uint32_t> inv(n, unset);
  for (std::size_t new_id = 0; new_id < n; ++new_id) {
    const std::uint32_t old_id = perm[new_id];
    if (old_id >= n || inv[old_id] != unset) {
      throw std::invalid_argument("invert_permutation: input is not a permutation of [0, n)");
    }
    inv[old_id] = static_cast<std::uint32_t>(new_id);
  }
  return inv;
}

std::vector<Vec2> apply_permutation(std::span<const Vec2> points,
                                    std::span<const std::uint32_t> perm) {
  check_same_size(points.size(), perm.size(), "point store");
  std::vector<Vec2> out(points.size());
  parallel_for(points.size(), [&](std::size_t i) { out[i] = points[perm[i]]; });
  return out;
}

CsrGraph apply_permutation(const CsrGraph& g, std::span<const std::uint32_t> perm) {
  check_same_size(g.num_vertices(), perm.size(), "graph");
  const std::vector<std::uint32_t> inv = invert_permutation(perm);
  // Relabeled lists are no longer sorted; from_symmetric_adjacency re-sorts
  // each list in place, restoring the CSR invariant.
  FlatAdjacency adj = build_flat_adjacency(
      g.num_vertices(),
      [&](std::size_t i) { return g.degree(perm[i]); },
      [&](std::size_t i, std::uint32_t* out) {
        for (const std::uint32_t v : g.neighbors(perm[i])) *out++ = inv[v];
      });
  return CsrGraph::from_symmetric_adjacency(std::move(adj));
}

GeoGraph apply_permutation(const GeoGraph& gg, std::span<const std::uint32_t> perm) {
  GeoGraph out;
  out.points = apply_permutation(std::span<const Vec2>(gg.points), perm);
  out.graph = apply_permutation(gg.graph, perm);
  return out;
}

}  // namespace sens
