#include "sens/perc/clusters.hpp"

#include <algorithm>
#include <deque>

namespace sens {

ClusterLabels::ClusterLabels(const SiteGrid& grid) : grid_(&grid) {
  labels_.assign(grid.num_sites(), kClosed);
  std::deque<Site> queue;
  for (std::size_t idx = 0; idx < grid.num_sites(); ++idx) {
    const Site start = grid.site_at(idx);
    if (!grid.open(start) || labels_[idx] != kClosed) continue;
    const auto id = static_cast<std::int32_t>(sizes_.size());
    sizes_.push_back(0);
    labels_[idx] = id;
    queue.push_back(start);
    while (!queue.empty()) {
      const Site u = queue.front();
      queue.pop_front();
      ++sizes_[static_cast<std::size_t>(id)];
      grid.for_each_neighbor(u, [&](Site v) {
        if (grid.open(v) && labels_[grid.index(v)] == kClosed) {
          labels_[grid.index(v)] = id;
          queue.push_back(v);
        }
      });
    }
  }
  if (!sizes_.empty()) {
    largest_ = static_cast<std::int32_t>(
        std::max_element(sizes_.begin(), sizes_.end()) - sizes_.begin());
  }
}

}  // namespace sens
