#include "sens/spatial/kdtree.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace sens {

KdTree::KdTree(std::span<const Vec2> points) : points_(points.begin(), points.end()) {
  order_.resize(points_.size());
  for (std::uint32_t i = 0; i < order_.size(); ++i) order_[i] = i;
  if (!points_.empty()) {
    nodes_.reserve(2 * points_.size() / kLeafSize + 4);
    root_ = build(0, static_cast<std::uint32_t>(points_.size()), 0);
  }
  leaf_points_.resize(points_.size());
  for (std::size_t i = 0; i < order_.size(); ++i) leaf_points_[i] = points_[order_[i]];
}

std::uint32_t KdTree::build(std::uint32_t begin, std::uint32_t end, int depth) {
  const std::uint32_t id = static_cast<std::uint32_t>(nodes_.size());
  nodes_.emplace_back();
  if (end - begin <= kLeafSize) {
    nodes_[id].begin = begin;
    nodes_[id].end = end;
    nodes_[id].leaf = true;
    return id;
  }
  const std::uint8_t axis = static_cast<std::uint8_t>(depth % 2);
  const std::uint32_t mid = begin + (end - begin) / 2;
  auto key = [&](std::uint32_t i) { return axis == 0 ? points_[i].x : points_[i].y; };
  std::nth_element(order_.begin() + begin, order_.begin() + mid, order_.begin() + end,
                   [&](std::uint32_t a, std::uint32_t b) { return key(a) < key(b); });
  const double split = key(order_[mid]);

  const std::uint32_t left = build(begin, mid, depth + 1);
  const std::uint32_t right = build(mid, end, depth + 1);
  nodes_[id].leaf = false;
  nodes_[id].axis = axis;
  nodes_[id].split = static_cast<float>(split);
  nodes_[id].left = left;
  nodes_[id].right = right;
  return id;
}

void KdTree::search(std::uint32_t node_id, Vec2 q, std::size_t k, std::uint32_t exclude,
                    bool use_heap, std::vector<QueryScratch::Candidate>& best, double mindist,
                    double* axis_dist) const {
  const Node& node = nodes_[node_id];
  if (node.leaf) {
    // Two passes: distances first (a tight, vectorizable loop over the
    // leaf-contiguous points), then the filtered candidate insertions.
    double d2s[kLeafSize];
    const std::uint32_t count = node.end - node.begin;
    const Vec2* pts = leaf_points_.data() + node.begin;
    for (std::uint32_t i = 0; i < count; ++i) d2s[i] = dist2(pts[i], q);
    double worst = best.size() < k ? std::numeric_limits<double>::infinity()
                                   : (use_heap ? best.front().d2 : best.back().d2);
    for (std::uint32_t i = 0; i < count; ++i) {
      // `>` not `>=`: a candidate tying the current worst can still win its
      // slot on the (distance, index) tie-break.
      if (d2s[i] > worst) continue;
      const std::uint32_t idx = order_[node.begin + i];
      if (idx == exclude) continue;
      const QueryScratch::Candidate cand{d2s[i], idx};
      if (use_heap) {
        if (best.size() < k) {
          best.push_back(cand);
          std::push_heap(best.begin(), best.end());
        } else if (cand < best.front()) {
          std::pop_heap(best.begin(), best.end());
          best.back() = cand;
          std::push_heap(best.begin(), best.end());
        }
        if (best.size() == k) worst = best.front().d2;
      } else {
        if (best.size() == k && !(cand < best.back())) continue;
        best.insert(std::upper_bound(best.begin(), best.end(), cand), cand);
        if (best.size() > k) best.pop_back();
        if (best.size() == k) worst = best.back().d2;
      }
    }
    return;
  }
  const std::uint8_t axis = node.axis;
  const double qv = axis == 0 ? q.x : q.y;
  const double delta = qv - static_cast<double>(node.split);
  const std::uint32_t near = delta <= 0.0 ? node.left : node.right;
  const std::uint32_t far = delta <= 0.0 ? node.right : node.left;
  search(near, q, k, exclude, use_heap, best, mindist, axis_dist);
  const double worst = best.size() < k ? std::numeric_limits<double>::infinity()
                                       : (use_heap ? best.front().d2 : best.back().d2);
  // Lower bound for the far subtree: the accumulated per-axis offsets of
  // every ancestor split crossed so far, with this axis's contribution
  // replaced by the current plane's offset. Visit when the bound could
  // still hide closer points or equal-distance ties (<=, so deterministic
  // tie-breaking by index sees all candidates at the cutoff distance).
  const double cut = delta * delta;
  const double far_min = mindist - axis_dist[axis] + cut;
  if (far_min <= worst) {
    const double saved = axis_dist[axis];
    axis_dist[axis] = cut;
    search(far, q, k, exclude, use_heap, best, far_min, axis_dist);
    axis_dist[axis] = saved;
  }
}

std::size_t KdTree::nearest_into(Vec2 q, std::size_t k, std::uint32_t exclude,
                                 QueryScratch& scratch, std::vector<std::uint32_t>& out) const {
  out.clear();
  if (points_.empty() || k == 0) return 0;
  auto& best = scratch.best;
  best.clear();
  const bool use_heap = k > kSortedInsertMaxK;
  best.reserve(std::min(k, points_.size()) + 1);
  double axis_dist[2] = {0.0, 0.0};
  search(root_, q, k, exclude, use_heap, best, 0.0, axis_dist);
  if (use_heap) std::sort(best.begin(), best.end());
  out.resize(best.size());
  for (std::size_t i = 0; i < best.size(); ++i) out[i] = best[i].idx;
  return out.size();
}

}  // namespace sens
