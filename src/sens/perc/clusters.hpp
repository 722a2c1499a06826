// Open-cluster labeling of a site configuration (4-connectivity), plus the
// percolation statistics used by the coverage theorem (Thm 3.3) and the
// theta(p) monotonicity argument of Section 3.2.
#pragma once

#include <cstdint>
#include <vector>

#include "sens/perc/site_grid.hpp"

namespace sens {

class ClusterLabels {
 public:
  static constexpr std::int32_t kClosed = -1;

  explicit ClusterLabels(const SiteGrid& grid);

  /// Cluster id of an open site; kClosed for closed sites.
  [[nodiscard]] std::int32_t label(Site s) const { return labels_[grid_->index(s)]; }

  [[nodiscard]] std::int32_t largest_cluster() const { return largest_; }
  [[nodiscard]] std::size_t largest_cluster_size() const {
    return largest_ < 0 ? 0 : sizes_[static_cast<std::size_t>(largest_)];
  }

  [[nodiscard]] bool in_largest(Site s) const {
    return largest_ >= 0 && label(s) == largest_;
  }

 private:
  const SiteGrid* grid_;
  std::vector<std::int32_t> labels_;
  std::vector<std::size_t> sizes_;
  std::int32_t largest_ = -1;
};

}  // namespace sens
