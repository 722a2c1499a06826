#include "sens/spatial/grid_index.hpp"

#include <stdexcept>

namespace sens {

GridIndex::GridIndex(std::span<const Vec2> points, Box bounds, double cell_size)
    : points_(points.begin(), points.end()), bounds_(bounds), cell_size_(cell_size) {
  // Negated so NaN fails too: a NaN cell count is UB in the size_t cast.
  if (!(std::isfinite(cell_size_) && cell_size_ > 0.0)) {
    throw std::invalid_argument("GridIndex: cell_size must be finite and > 0");
  }
  nx_ = std::max<std::size_t>(1, static_cast<std::size_t>(std::ceil(bounds_.width() / cell_size_)));
  ny_ = std::max<std::size_t>(1, static_cast<std::size_t>(std::ceil(bounds_.height() / cell_size_)));

  const std::size_t cells = nx_ * ny_;
  std::vector<std::uint32_t> counts(cells, 0);
  for (const Vec2& p : points_) {
    // A non-finite coordinate has no cell: its cast in cell_of would be UB.
    if (!(std::isfinite(p.x) && std::isfinite(p.y))) {
      throw std::invalid_argument("GridIndex: point coordinates must be finite");
    }
    ++counts[cell_of(p)];
  }

  offsets_.assign(cells + 1, 0);
  for (std::size_t c = 0; c < cells; ++c) offsets_[c + 1] = offsets_[c] + counts[c];

  order_.resize(points_.size());
  std::vector<std::uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (std::uint32_t i = 0; i < points_.size(); ++i) order_[cursor[cell_of(points_[i])]++] = i;
}

std::size_t GridIndex::cell_of(Vec2 p) const {
  auto ix = static_cast<long>(std::floor((p.x - bounds_.lo.x) / cell_size_));
  auto iy = static_cast<long>(std::floor((p.y - bounds_.lo.y) / cell_size_));
  ix = std::clamp<long>(ix, 0, static_cast<long>(nx_) - 1);
  iy = std::clamp<long>(iy, 0, static_cast<long>(ny_) - 1);
  return static_cast<std::size_t>(iy) * nx_ + static_cast<std::size_t>(ix);
}

}  // namespace sens
