#include "sens/spatial/grid_knn.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "sens/obs/obs.hpp"

namespace sens {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

bool is_finite(Vec2 p) { return std::isfinite(p.x) && std::isfinite(p.y); }

void require_finite_point(Vec2 p) {
  if (!is_finite(p)) throw std::invalid_argument("GridKnn: point coordinates must be finite");
}

#if SENS_OBS_ENABLED
/// Stack-local work tally for one k-NN query, flushed to the obs registry
/// on scope exit. Per-query cell/candidate counts are pure functions of
/// (index contents, query), so registry totals are thread-invariant
/// (DESIGN.md §2.10).
struct ObsTally {
  std::uint64_t cells = 0;
  std::uint64_t candidates = 0;
  ~ObsTally() {
    obs::add(obs::Counter::kGridKnnQueries, 1);
    obs::add(obs::Counter::kGridKnnCellsScanned, cells);
    obs::add(obs::Counter::kGridKnnCandidates, candidates);
  }
};
#endif

}  // namespace

GridKnn::GridKnn(std::span<const Vec2> points, std::size_t expected_k)
    : GridKnn(points, expected_k, 0.0) {}

GridKnn::GridKnn(std::span<const Vec2> points, std::size_t expected_k, double cell_side)
    : owned_points_(points.begin(), points.end()), points_(owned_points_), fixed_cell_(cell_side) {
  std::vector<std::uint32_t> all(owned_points_.size());
  std::iota(all.begin(), all.end(), 0u);
  build(all, expected_k);
}

GridKnn GridKnn::for_radius(std::span<const Vec2> points, double radius) {
  check_radius(radius);
  return GridKnn(points, 1, radius);
}

GridKnn::GridKnn(std::span<const Vec2> shared_points, std::span<const std::uint32_t> members,
                 std::size_t expected_k)
    : points_(shared_points) {
  build(members, expected_k);
}

/// Index the points named by `members` (ids into `points_`): grid geometry
/// from the members' bounding box (cell side from density and `expected_k`,
/// or `fixed_cell_`), bucket arrays over member ids only. The search
/// kernels never look at non-member points — they only walk `order_`.
void GridKnn::build(std::span<const std::uint32_t> members, std::size_t expected_k) {
  // Ids are std::uint32_t with npos reserved as the tombstone marker, so the
  // shared store must stay strictly below npos (DESIGN.md §2.8).
  if (points_.size() >= npos) {
    throw std::overflow_error("GridKnn: point store exceeds the 32-bit id space");
  }
  // Validated before the buckets are touched, so a rejected (re)build
  // leaves the index as it was.
  Vec2 lo{kInf, kInf};
  Vec2 hi{-kInf, -kInf};
  for (const std::uint32_t m : members) {
    if (m >= points_.size()) throw std::out_of_range("GridKnn: member id out of range");
    const Vec2 p = points_[m];
    require_finite_point(p);
    lo.x = std::min(lo.x, p.x);
    lo.y = std::min(lo.y, p.y);
    hi.x = std::max(hi.x, p.x);
    hi.y = std::max(hi.y, p.y);
  }
  const double w = std::max(hi.x - lo.x, 1e-9);
  const double h = std::max(hi.y - lo.y, 1e-9);
  // Finite points can still span more than a double (e.g. -1e308 .. 1e308).
  if (!(std::isfinite(w) && std::isfinite(h))) {
    throw std::invalid_argument("GridKnn: point extent must be finite");
  }
  offsets_.clear();
  order_.clear();
  spill_.clear();
  expected_k_ = expected_k;
  live_ = members.size();
  dead_ = 0;
  if (members.empty()) return;
  lo_ = lo;
  const double density = static_cast<double>(members.size()) / (w * h);
  // Target ~k/4 points per cell, or ~k/16 above the stack threshold, floored
  // so the grid never exceeds ~4n cells (degenerate aspect-ratio guard).
  const double per_cell =
      static_cast<double>(std::max<std::size_t>(expected_k, 1)) /
      (expected_k > kStackMaxK ? 16.0 : 4.0);
  cell_ = fixed_cell_ > 0.0 ? fixed_cell_ : std::max(1e-9, std::sqrt(per_cell / density));
  // Cap the grid at ~4n cells. The per-axis ceil makes this a doubling loop
  // rather than a closed form: a degenerate aspect ratio (e.g. collinear
  // points) floors one axis at a single cell while the other explodes. An
  // axis count is capped in double before the cast; past max_cells it is
  // doubled away anyway.
  const long max_cells = 4 * static_cast<long>(members.size()) + 8;
  const double axis_cap = static_cast<double>(max_cells) + 1.0;
  auto axis_cells = [&](double extent) {
    return std::max(1L, static_cast<long>(std::min(std::ceil(extent / cell_), axis_cap)));
  };
  nx_ = axis_cells(w);
  ny_ = axis_cells(h);
  while (nx_ > max_cells / ny_) {
    cell_ *= 2.0;
    nx_ = axis_cells(w);
    ny_ = axis_cells(h);
  }

  const std::size_t cells = static_cast<std::size_t>(nx_) * static_cast<std::size_t>(ny_);
  std::vector<std::uint32_t> counts(cells, 0);
  for (const std::uint32_t m : members) ++counts[cell_index(points_[m])];
  offsets_.assign(cells + 1, 0);
  for (std::size_t c = 0; c < cells; ++c) offsets_[c + 1] = offsets_[c] + counts[c];
  order_.resize(members.size());
  std::vector<std::uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (const std::uint32_t m : members) order_[cursor[cell_index(points_[m])]++] = m;
}

void GridKnn::check_query(Vec2 q) {
  if (!is_finite(q)) throw std::invalid_argument("GridKnn: query point must be finite");
}

// Negated so NaN fails too.
void GridKnn::check_radius(double r) {
  if (!(std::isfinite(r) && r > 0.0)) {
    throw std::invalid_argument("GridKnn: radius must be finite and > 0");
  }
}

std::size_t GridKnn::cell_index(Vec2 p) const {
  return static_cast<std::size_t>(cell_coord(p.y - lo_.y, ny_)) * static_cast<std::size_t>(nx_) +
         static_cast<std::size_t>(cell_coord(p.x - lo_.x, nx_));
}

void GridKnn::insert_member(std::uint32_t id) {
  if (id >= points_.size()) throw std::out_of_range("GridKnn: member id out of range");
  // A spilled point is bucketed by the next compaction; reject it now
  // rather than from that unrelated later call.
  require_finite_point(points_[id]);
  spill_.push_back(id);
  ++live_;
  maybe_compact();
}

void GridKnn::erase_member(std::uint32_t id) {
  if (id >= points_.size()) throw std::out_of_range("GridKnn: member id out of range");
  const auto it = std::find(spill_.begin(), spill_.end(), id);
  if (it != spill_.end()) {
    spill_.erase(it);
    --live_;
    maybe_compact();
    return;
  }
  if (!offsets_.empty()) {
    // The member's coordinates are unchanged since bucketing (contract), so
    // its cell is recomputable and the scan is one bucket.
    const std::size_t c = cell_index(points_[id]);
    for (std::uint32_t t = offsets_[c]; t < offsets_[c + 1]; ++t) {
      if (order_[t] == id) {
        order_[t] = npos;
        ++dead_;
        --live_;
        maybe_compact();
        return;
      }
    }
  }
  throw std::invalid_argument("GridKnn: erase_member of a non-member");
}

/// Amortized O(1) per mutation: a rebuild costs O(live) and runs only once
/// the pending (tombstone + spill) count reaches a fraction of the live
/// set, which also bounds the per-query spill scan.
void GridKnn::maybe_compact() {
  const std::size_t pend = dead_ + spill_.size();
  if (pend >= 8 && pend * 8 >= live_) compact();
}

void GridKnn::compact() {
  const std::vector<std::uint32_t> members = live_members();
  build(members, expected_k_);
}

std::vector<std::uint32_t> GridKnn::live_members() const {
  std::vector<std::uint32_t> members;
  members.reserve(live_);
  for (const std::uint32_t id : order_) {
    if (id != npos) members.push_back(id);
  }
  members.insert(members.end(), spill_.begin(), spill_.end());
  std::sort(members.begin(), members.end());
  return members;
}

/// The one search kernel: a sorted bounded candidate array `best` (k slots,
/// or fewer when k exceeds the live count), maintained by shift-insertion
/// while streaming cells. The initial 3x3 block — which resolves almost
/// every query at the tuned cell size — is scanned as contiguous row spans
/// (cells of a row are adjacent in the CSR arrays); outer rings add
/// per-cell lower-bound filtering against the current k-th best. Returns
/// the candidate count.
std::size_t GridKnn::collect(Vec2 q, std::size_t k, std::uint32_t exclude,
                             QueryScratch::Candidate* best) const {
  std::size_t cnt = 0;
  double worst = kInf;
  SENS_OBS(ObsTally obs_tally;)

  auto offer = [&](std::uint32_t idx) {
    SENS_OBS(++obs_tally.candidates;)
    const double dx = points_[idx].x - q.x;
    const double dy = points_[idx].y - q.y;
    const double d2 = dx * dx + dy * dy;
    if (d2 > worst) return;
    if (idx == exclude) return;
    // With a full set, a candidate tying the k-th distance only wins on a
    // smaller index.
    if (cnt == k && d2 == best[k - 1].d2 && idx > best[k - 1].idx) return;
    // Manual shift-insert into the sorted array (measurably faster than
    // std::vector::insert at these sizes).
    std::size_t pos = cnt < k ? cnt : k - 1;
    if (cnt < k) ++cnt;
    while (pos > 0 &&
           (best[pos - 1].d2 > d2 || (best[pos - 1].d2 == d2 && best[pos - 1].idx > idx))) {
      best[pos] = best[pos - 1];
      --pos;
    }
    best[pos] = {d2, idx};
    if (cnt == k) worst = best[k - 1].d2;
  };

  // Spill entries are unbucketed (possibly outside the grid box), so they
  // are offered exhaustively up front — the ring bound below then only has
  // to be exact about *bucketed* points, which it is by construction.
  for (const std::uint32_t idx : spill_) offer(idx);
  if (offsets_.empty()) return cnt;

  const long cx = cell_coord(q.x - lo_.x, nx_);
  const long cy = cell_coord(q.y - lo_.y, ny_);
  const long max_ring = std::max(std::max(cx, nx_ - 1 - cx), std::max(cy, ny_ - 1 - cy));

  /// One row of cells [xa, xb] at row y: a single contiguous bucket span.
  auto scan_row = [&](long y, long xa, long xb) {
    if (y < 0 || y >= ny_) return;
    xa = std::max(xa, 0L);
    xb = std::min(xb, nx_ - 1);
    if (xa > xb) return;
    SENS_OBS(obs_tally.cells += static_cast<std::uint64_t>(xb - xa + 1);)
    const std::size_t base = static_cast<std::size_t>(y) * static_cast<std::size_t>(nx_);
    const std::uint32_t t0 = offsets_[base + static_cast<std::size_t>(xa)];
    const std::uint32_t t1 = offsets_[base + static_cast<std::size_t>(xb) + 1];
    for (std::uint32_t t = t0; t < t1; ++t) {
      if (order_[t] != npos) offer(order_[t]);
    }
  };

  auto scan_cell = [&](long x, long y) {
    if (x < 0 || x >= nx_ || y < 0 || y >= ny_) return;
    // Lower bound from q to the cell rectangle; a cell that cannot beat the
    // current k-th best (`>` keeps equal-distance ties visible) is skipped.
    const double gx = std::max({0.0, lo_.x + static_cast<double>(x) * cell_ - q.x,
                                q.x - (lo_.x + static_cast<double>(x + 1) * cell_)});
    const double gy = std::max({0.0, lo_.y + static_cast<double>(y) * cell_ - q.y,
                                q.y - (lo_.y + static_cast<double>(y + 1) * cell_)});
    if (gx * gx + gy * gy > worst) return;
    SENS_OBS(++obs_tally.cells;)
    const std::size_t c =
        static_cast<std::size_t>(y) * static_cast<std::size_t>(nx_) + static_cast<std::size_t>(x);
    for (std::uint32_t t = offsets_[c]; t < offsets_[c + 1]; ++t) {
      if (order_[t] != npos) offer(order_[t]);
    }
  };

  // Unscanned points lie beyond the scanned square's boundary; a side the
  // square has already pushed past the grid imposes no bound. Stop once the
  // k-th best strictly beats that bound (`<`, so ties at the cutoff
  // distance are still collected from the next ring).
  auto done_after = [&](long r) {
    if (cnt != k) return false;
    const double left = cx - r > 0 ? q.x - (lo_.x + static_cast<double>(cx - r) * cell_) : kInf;
    const double right =
        cx + r < nx_ - 1 ? (lo_.x + static_cast<double>(cx + r + 1) * cell_) - q.x : kInf;
    const double bot = cy - r > 0 ? q.y - (lo_.y + static_cast<double>(cy - r) * cell_) : kInf;
    const double top =
        cy + r < ny_ - 1 ? (lo_.y + static_cast<double>(cy + r + 1) * cell_) - q.y : kInf;
    const double dmin = std::min(std::min(left, right), std::min(bot, top));
    return worst < dmin * dmin;
  };

  // Rings 0 and 1 together: three contiguous row spans.
  const long first = std::min(1L, max_ring);
  for (long y = cy - first; y <= cy + first; ++y) scan_row(y, cx - first, cx + first);
  if (done_after(first)) return cnt;

  for (long r = first + 1; r <= max_ring; ++r) {
    scan_row(cy - r, cx - r, cx + r);
    scan_row(cy + r, cx - r, cx + r);
    for (long y = cy - r + 1; y <= cy + r - 1; ++y) {
      scan_cell(cx - r, y);
      scan_cell(cx + r, y);
    }
    if (done_after(r)) break;
  }
  return cnt;
}

std::size_t GridKnn::nearest_into(Vec2 q, std::size_t k, std::uint32_t exclude,
                                  QueryScratch& scratch, std::vector<std::uint32_t>& out) const {
  check_query(q);
  out.clear();
  if (live_ == 0 || k == 0) return 0;
  QueryScratch::Candidate stack[kStackMaxK];
  QueryScratch::Candidate* best = stack;
  if (k > kStackMaxK) {
    // At most live_ candidates are ever held, so a k beyond the live count
    // never needs more slots than that.
    scratch.cands.resize(std::min(k, live_));
    best = scratch.cands.data();
  }
  const std::size_t cnt = collect(q, k, exclude, best);
  out.resize(cnt);
  for (std::size_t i = 0; i < cnt; ++i) out[i] = best[i].idx;
  return cnt;
}

}  // namespace sens
