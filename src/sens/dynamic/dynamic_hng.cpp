#include "sens/dynamic/dynamic_hng.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "sens/obs/obs.hpp"
#include "sens/rng/rng.hpp"

namespace sens {

namespace {

/// Reach classes of the reverse k-NN index (see the header): the finest
/// cell side is 2^kMinReach, and linkers whose worst-pick distance
/// overflowed to +inf take kWideReach, one bucket per level.
constexpr std::int32_t kMinReach = -64;
constexpr std::int32_t kWideReach = 0x7fff;
constexpr std::int32_t kUnindexed = -0x8000;  ///< reach_ of a slot in no bucket

/// Bucket coordinates are clamped here before the integer cast; clamping is
/// monotone and 1-Lipschitz, so two points one cell apart stay at most one
/// clamped cell apart.
constexpr double kCellClamp = 4503599627370496.0;  // 2^52

/// The smallest class c >= kMinReach with 4^c > r2.
std::int32_t reach_class(double r2) {
  if (!(r2 < std::numeric_limits<double>::infinity())) return kWideReach;
  if (r2 < std::ldexp(1.0, 2 * kMinReach)) return kMinReach;
  int ex = 0;
  (void)std::frexp(r2, &ex);  // r2 < 2^ex, so any 2c >= ex will do
  return std::max(ex > 0 ? (ex + 1) / 2 : -(-ex / 2), kMinReach);
}

/// floor(x / 2^c), clamped. Scaling by a power of two is exact unless it
/// overflows (to an infinity the clamp absorbs) or lands below 1 in
/// magnitude (where floors are -1 or 0 anyway), so points less than 2^c
/// apart stay at most one cell apart.
std::int64_t reach_cell(double x, std::int32_t c) {
  if (c == kWideReach) return 0;
  return static_cast<std::int64_t>(
      std::clamp(std::floor(std::ldexp(x, -c)), -kCellClamp, kCellClamp));
}

void sorted_insert(std::vector<std::uint32_t>& v, std::uint32_t x) {
  v.insert(std::lower_bound(v.begin(), v.end(), x), x);
}

/// Caller guarantees membership.
void sorted_erase(std::vector<std::uint32_t>& v, std::uint32_t x) {
  v.erase(std::lower_bound(v.begin(), v.end(), x));
}

bool sorted_contains(const std::vector<std::uint32_t>& v, std::uint32_t x) {
  return std::binary_search(v.begin(), v.end(), x);
}

}  // namespace

std::size_t DynamicHng::ReachKeyHash::operator()(const ReachKey& key) const noexcept {
  const std::uint64_t tag = (static_cast<std::uint64_t>(key.level) << 32) |
                            static_cast<std::uint32_t>(key.reach);
  return static_cast<std::size_t>(mix_seed(
      mix_seed(static_cast<std::uint64_t>(key.x), static_cast<std::uint64_t>(key.y)), tag));
}

DynamicHng::DynamicHng(const HngParams& params, std::uint64_t seed)
    : params_(params),
      seed_(seed),
      cohort_(static_cast<std::size_t>(params.max_level) + 1),
      reach_classes_(static_cast<std::size_t>(params.max_level) + 1) {
  validate_hng_params(params_);
}

DynamicHng::DynamicHng(std::span<const Vec2> points, const HngParams& params, std::uint64_t seed)
    : DynamicHng(params, seed) {
  points_.reserve(points.size());
  for (const Vec2 p : points) insert(p);
}

double DynamicHng::dist2(std::uint32_t a, std::uint32_t b) const {
  const double dx = points_[a].x - points_[b].x;
  const double dy = points_[a].y - points_[b].y;
  return dx * dx + dy * dy;
}

/// First touch of a node in this event: capture its pre-event selection
/// (the edge delta in finalize_event diffs against these).
void DynamicHng::touch(std::uint32_t u) {
  if (dirty_flag_[u]) return;
  dirty_flag_[u] = 1;
  dirty_old_.emplace_back(u, sel_[u]);
}

void DynamicHng::mark_recompute(std::uint32_t w) {
  if (in_recompute_[w]) return;
  in_recompute_[w] = 1;
  recompute_.push_back(w);
}

void DynamicHng::flush_recompute() {
  for (const std::uint32_t w : recompute_) {
    if (alive_[w]) {
      compute_selection(w, fresh_sel_);
      set_selection(w, fresh_sel_);
    }
    in_recompute_[w] = 0;
  }
  recompute_.clear();
}

/// The batch linking rule for one node, against the *current* live
/// structure: clique membership for top nodes (everyone when top < 2),
/// otherwise a k-NN query into S_{l+1} — ids ascending.
void DynamicHng::compute_selection(std::uint32_t u, std::vector<std::uint32_t>& out) {
  out.clear();
  const std::uint32_t l = level_[u];
  if (top_ < 2) {
    last_.nodes_scanned += alive_.size();
    for (std::uint32_t x = 0; x < alive_.size(); ++x) {
      if (alive_[x] && x != u) out.push_back(x);
    }
    return;
  }
  if (l == top_) {
    const std::vector<std::uint32_t>& top = cohort_[top_];
    last_.nodes_scanned += top.size();
    for (const std::uint32_t x : top) {
      if (x != u) out.push_back(x);
    }
    std::sort(out.begin(), out.end());
    return;
  }
  levels_[l - 1].nearest_into(points_[u], params_.k, u, scratch_, found_);
  out.assign(found_.begin(), found_.end());
  std::sort(out.begin(), out.end());
}

void DynamicHng::set_selection(std::uint32_t u, const std::vector<std::uint32_t>& fresh) {
  touch(u);
  for (const std::uint32_t x : sel_[u]) sorted_erase(selectors_[x], u);
  sel_[u].assign(fresh.begin(), fresh.end());
  for (const std::uint32_t x : sel_[u]) sorted_insert(selectors_[x], u);
  reindex(u);
}

/// Join repair for a regular node w (exact level l < top, l <= L-1): u just
/// entered its linking target S_{l+1}. The fresh k-NN set follows from the
/// old one with no re-query: if w was under-full its old selection was all
/// of S_{l+1}, so u is admitted; otherwise u displaces w's current worst
/// pick iff it beats it under the exact (distance, index) query order.
void DynamicHng::maybe_enter(std::uint32_t w, std::uint32_t u) {
  auto& s = sel_[w];
  if (s.size() < params_.k) {
    touch(w);
    sorted_insert(s, u);
    sorted_insert(selectors_[u], w);
    reindex(w);
    return;
  }
  std::uint32_t worst = s[0];
  double worst_d2 = dist2(w, s[0]);
  for (std::size_t i = 1; i < s.size(); ++i) {
    const double d = dist2(w, s[i]);
    if (d > worst_d2 || (d == worst_d2 && s[i] > worst)) {
      worst_d2 = d;
      worst = s[i];
    }
  }
  const double du = dist2(w, u);
  if (du < worst_d2 || (du == worst_d2 && u < worst)) {
    touch(w);
    sorted_erase(s, worst);
    sorted_erase(selectors_[worst], w);
    sorted_insert(s, u);
    sorted_insert(selectors_[u], w);
    reindex(w);
  }
}

/// Join repair for every regular node whose linking target u just entered:
/// exact levels l <= min(L-1, top-1). A level whose target held fewer than
/// k nodes before the join is under-full throughout (every selection there
/// was all of S_{l+1}), so its whole cohort admits u. Otherwise every
/// linker there is full and indexed, and only those in the 3x3 buckets
/// around u of each reach class can admit it: a linker w admits u only if
/// d2(w, u) <= its worst-pick d2 < 4^c, and an IEEE d2 >= 4^c whenever
/// either coordinate differs by more than 2^c. Candidates are collected
/// per level before any admission, since an admission can move a linker
/// into a bucket this lookup has yet to visit.
void DynamicHng::join_repair(std::uint32_t u) {
  const std::uint32_t level = level_[u];
  const Vec2 p = points_[u];
  std::size_t target = 0;  // |S_{l+1}|, u included
  for (std::uint32_t l = top_ - 1; l >= 1; --l) {
    target += cohort_[l + 1].size();
    if (l >= level) continue;
    if (target - 1 < params_.k) {
      last_.nodes_scanned += cohort_[l].size();
      for (const std::uint32_t w : cohort_[l]) {
        if (!in_recompute_[w]) maybe_enter(w, u);
      }
      continue;
    }
    reach_found_.clear();
    for (const auto& [reach, members] : reach_classes_[l]) {
      const std::int64_t cx = reach_cell(p.x, reach);
      const std::int64_t cy = reach_cell(p.y, reach);
      const std::int64_t span = reach == kWideReach ? 0 : 1;
      for (std::int64_t y = cy - span; y <= cy + span; ++y) {
        for (std::int64_t x = cx - span; x <= cx + span; ++x) {
          const auto it = reach_cells_.find({x, y, l, reach});
          if (it != reach_cells_.end()) {
            reach_found_.insert(reach_found_.end(), it->second.begin(), it->second.end());
          }
        }
      }
    }
    last_.nodes_scanned += reach_found_.size();
    for (const std::uint32_t w : reach_found_) {
      if (!in_recompute_[w]) maybe_enter(w, u);
    }
  }
}

void DynamicHng::cohort_add(std::uint32_t w) {
  std::vector<std::uint32_t>& cohort = cohort_[level_[w]];
  cohort_pos_[w] = static_cast<std::uint32_t>(cohort.size());
  cohort.push_back(w);
}

void DynamicHng::cohort_drop(std::uint32_t w) {
  std::vector<std::uint32_t>& cohort = cohort_[level_[w]];
  const std::uint32_t moved = cohort.back();
  cohort[cohort_pos_[w]] = moved;
  cohort_pos_[moved] = cohort_pos_[w];
  cohort.pop_back();
}

/// Bring w's reverse-index entry in line with its current selection: a
/// live regular node with a full selection sits in the bucket of its
/// reach class; anyone else is unindexed. Called after every selection
/// change; top transitions reach it through the cohort recompute.
void DynamicHng::reindex(std::uint32_t w) {
  std::int32_t reach = kUnindexed;
  if (alive_[w] && level_[w] < top_ && sel_[w].size() == params_.k) {
    double r2 = 0.0;
    for (const std::uint32_t x : sel_[w]) r2 = std::max(r2, dist2(w, x));
    reach = reach_class(r2);
  }
  if (reach == reach_[w]) return;
  if (reach_[w] != kUnindexed) reach_erase(w);
  if (reach == kUnindexed) return;
  reach_[w] = reach;
  const Vec2 p = points_[w];
  std::vector<std::uint32_t>& bucket =
      reach_cells_[{reach_cell(p.x, reach), reach_cell(p.y, reach), level_[w], reach}];
  reach_pos_[w] = static_cast<std::uint32_t>(bucket.size());
  bucket.push_back(w);
  auto& classes = reach_classes_[level_[w]];
  auto it = std::lower_bound(classes.begin(), classes.end(), std::pair{reach, 0u});
  if (it == classes.end() || it->first != reach) it = classes.insert(it, {reach, 0u});
  ++it->second;
}

void DynamicHng::reach_erase(std::uint32_t w) {
  const std::int32_t reach = reach_[w];
  const Vec2 p = points_[w];
  const auto it =
      reach_cells_.find({reach_cell(p.x, reach), reach_cell(p.y, reach), level_[w], reach});
  std::vector<std::uint32_t>& bucket = it->second;
  const std::uint32_t moved = bucket.back();
  bucket[reach_pos_[w]] = moved;
  reach_pos_[moved] = reach_pos_[w];
  bucket.pop_back();
  if (bucket.empty()) reach_cells_.erase(it);
  auto& classes = reach_classes_[level_[w]];
  const auto c = std::lower_bound(classes.begin(), classes.end(), std::pair{reach, 0u});
  if (--c->second == 0) classes.erase(c);
  reach_[w] = kUnindexed;
}

/// Bring slot `id` to life at point p: draw its level from stream id, index
/// it, link it, and repair the selections it enters. `id` is either the
/// append slot (== points_.size()) or a dead slot being revived by the
/// swap-remove rename.
void DynamicHng::insert_slot(std::uint32_t id, Vec2 p) {
  if (id == points_.size()) {
    points_.push_back(p);
    // A reallocation preserves contents and grid buckets depend only on
    // member coordinates, so repointing every level is all they need.
    for (GridKnn& lvl : levels_) lvl.rebind(points_);
    level_.push_back(0);
    alive_.push_back(0);
    dirty_flag_.push_back(0);
    in_recompute_.push_back(0);
    sel_.emplace_back();
    selectors_.emplace_back();
    cohort_pos_.push_back(0);
    reach_.push_back(kUnindexed);
    reach_pos_.push_back(0);
  } else {
    points_[id] = p;  // vacated slot: no level indexes it now
  }
  alive_[id] = 1;
  ++live_n_;
  const std::uint32_t level = hng_promotion_level(seed_, id, params_);
  level_[id] = level;
  cohort_add(id);

  const std::uint32_t old_top = top_;
  const std::uint32_t new_top = std::max(old_top, level);
  // levels_[l] holds S_{l+2}: queries need indexes up to new_top - 2 (the
  // top cohort's own linking target S_top).
  while (levels_.size() + 1 < new_top) {
    levels_.emplace_back(points_, std::span<const std::uint32_t>{}, params_.k);
  }
  for (std::uint32_t l = 2; l <= level; ++l) levels_[l - 2].insert_member(id);

  if (live_n_ == 1) {
    top_ = new_top;
    touch(id);  // empty selection, but the event must record the new slot
    return;
  }

  if (new_top > old_top) {
    // The old top cohort loses its clique and relinks as regular nodes.
    last_.nodes_scanned += cohort_[old_top].size();
    for (const std::uint32_t w : cohort_[old_top]) mark_recompute(w);
    top_ = new_top;
  } else if (level == old_top) {
    // u joins the existing clique; members just gain u (exact — a clique
    // selection is "everyone else up here").
    last_.nodes_scanned += cohort_[old_top].size();
    for (const std::uint32_t w : cohort_[old_top]) {
      if (w == id) continue;
      touch(w);
      sorted_insert(sel_[w], id);
      sorted_insert(selectors_[id], w);
    }
  }

  // A level-1 joiner is a member of S_1 only, and linkers select from
  // S_{l+1} with l >= 1, so nobody can select it (p = 3/4 of joins under
  // the default promote_p).
  if (level >= 2) join_repair(id);

  mark_recompute(id);
  flush_recompute();
}

/// Retire slot `r`: unindex it, relink its orphaned selectors, and handle a
/// top-level drop (the survivors of the new highest level form a clique).
void DynamicHng::remove_slot(std::uint32_t r) {
  // Exactly the nodes that selected r must relink (their query target or
  // clique lost a member). A top drop to the everyone-clique is covered
  // too: in that regime every survivor had selected r.
  for (const std::uint32_t w : selectors_[r]) mark_recompute(w);

  alive_[r] = 0;
  --live_n_;
  cohort_drop(r);
  for (std::uint32_t l = 2; l <= level_[r]; ++l) levels_[l - 2].erase_member(r);

  const std::uint32_t old_top = top_;
  std::uint32_t t = old_top;
  while (t > 0 && cohort_[t].empty()) --t;
  top_ = t;

  touch(r);
  for (const std::uint32_t x : sel_[r]) sorted_erase(selectors_[x], r);
  sel_[r].clear();
  reindex(r);

  if (top_ != old_top && live_n_ > 0) {
    last_.nodes_scanned += cohort_[top_].size();
    for (const std::uint32_t w : cohort_[top_]) mark_recompute(w);
  }
  flush_recompute();
}

void DynamicHng::begin_event() {
  dirty_old_.clear();
  last_ = {};
}

/// The selection node w held when the event began: the first-touch capture
/// for dirty nodes, the live list for everyone else (untouched == unchanged).
/// dirty_old_ holds one handful of entries per event, so a linear scan wins
/// over any index.
const std::vector<std::uint32_t>& DynamicHng::pre_event_selection(std::uint32_t w) const {
  if (dirty_flag_[w]) {
    for (const auto& [u, old] : dirty_old_) {
      if (u == w) return old;
    }
  }
  return sel_[w];
}

/// Derive the undirected edge delta of this event from the captured
/// pre-event selections vs the current ones. An edge {a, b} exists iff
/// b in sel(a) or a in sel(b); only pairs incident to a node whose
/// selection changed can have flipped. The flipped pairs feed the event
/// stats immediately and queue in pending_ for the next overlay()
/// materialization — the CSR itself is not touched here (a snapshot costs
/// O(n + m) no matter how small the delta, so it is batched per read, not
/// paid per event).
void DynamicHng::finalize_event() {
  touched_.clear();
  for (const auto& [w, old] : dirty_old_) {
    for (const std::uint32_t x : old) touched_.emplace_back(std::min(w, x), std::max(w, x));
    for (const std::uint32_t x : sel_[w]) touched_.emplace_back(std::min(w, x), std::max(w, x));
  }
  std::sort(touched_.begin(), touched_.end());
  touched_.erase(std::unique(touched_.begin(), touched_.end()), touched_.end());

  last_.relinked = dirty_old_.size();
  for (const auto& [a, b] : touched_) {
    // Pre-event liveness is implied: a dead slot's selection is empty and
    // it appears in no live selection, so both containment tests fail.
    const auto& old_a = pre_event_selection(a);
    const auto& old_b = pre_event_selection(b);
    const bool before = sorted_contains(old_a, b) || sorted_contains(old_b, a);
    const bool after = alive_[a] && alive_[b] &&
                       (sorted_contains(sel_[a], b) || sorted_contains(sel_[b], a));
    if (before != after) {
      pending_.emplace_back(a, b);
      ++(after ? last_.edges_added : last_.edges_removed);
    }
  }
  for (const auto& [w, old] : dirty_old_) dirty_flag_[w] = 0;
  dirty_old_.clear();
  SENS_OBS(obs::add(obs::Counter::kDynamicNodesScanned, last_.nodes_scanned);)
}

/// Bring the overlay cache up to date: diff every pending pair's stale
/// membership against the live structure and apply the net delta in one
/// apply_edge_delta call. Pairs that flipped an even number of times since
/// the last read cancel here. Slot ids beyond either vertex range simply
/// read as "no edge" on that side (a transient slot that appeared and
/// vanished between reads nets to nothing).
void DynamicHng::materialize() const {
  const std::size_t n = points_.size();
  if (pending_.empty() && overlay_.num_vertices() == n) return;
  std::sort(pending_.begin(), pending_.end());
  pending_.erase(std::unique(pending_.begin(), pending_.end()), pending_.end());

  const std::size_t n_old = overlay_.num_vertices();
  removed_.clear();
  added_.clear();
  for (const auto& [a, b] : pending_) {
    const bool before = a < n_old && b < n_old && overlay_.has_edge(a, b);
    const bool after = a < n && b < n && alive_[a] && alive_[b] &&
                       (sorted_contains(sel_[a], b) || sorted_contains(sel_[b], a));
    if (before && !after) {
      removed_.emplace_back(a, b);
    } else if (!before && after) {
      added_.emplace_back(a, b);
    }
  }
  overlay_ = CsrGraph::apply_edge_delta(overlay_, n, removed_, added_);
  // Journal the applied call verbatim (§2.9): a subscriber replaying this
  // entry onto its copy of the previous snapshot performs the identical
  // apply_edge_delta and so lands on the identical CSR.
  journal_.push_back(OverlayDelta{n, removed_, added_});
  pending_.clear();
}

const OverlayDelta& DynamicHng::overlay_delta(std::uint64_t g) const {
  materialize();
  if (g < journal_base_ || g - journal_base_ >= journal_.size()) {
    throw std::out_of_range("DynamicHng: overlay_delta generation outside the journal");
  }
  return journal_[g - journal_base_];
}

void DynamicHng::trim_overlay_journal(std::uint64_t upto) {
  materialize();
  const std::uint64_t current = journal_base_ + journal_.size();
  if (upto > current) upto = current;
  if (upto <= journal_base_) return;
  journal_.erase(journal_.begin(),
                 journal_.begin() + static_cast<std::ptrdiff_t>(upto - journal_base_));
  journal_base_ = upto;
}

std::uint32_t DynamicHng::insert(Vec2 p) {
  // A non-finite coordinate would reach the grid cell casts of the k-NN
  // levels and the reverse index; reject it before anything changes.
  if (!std::isfinite(p.x) || !std::isfinite(p.y)) {
    throw std::invalid_argument("DynamicHng: insert of a non-finite point");
  }
  begin_event();
  const auto id = static_cast<std::uint32_t>(points_.size());
  insert_slot(id, p);
  finalize_event();
  return id;
}

void DynamicHng::remove(std::uint32_t i) {
  if (i >= points_.size()) throw std::out_of_range("DynamicHng: remove of invalid slot");
  begin_event();
  const auto last = static_cast<std::uint32_t>(points_.size() - 1);
  remove_slot(i);
  if (i != last) {
    // Swap-remove: the last slot's point rejoins as slot i, redrawing its
    // promotion chain from stream i — levels stay a pure function of the
    // slot id, which is the whole oracle contract.
    const Vec2 q = points_[last];
    remove_slot(last);
    insert_slot(i, q);
  }
  finalize_event();
  points_.pop_back();
  level_.pop_back();
  alive_.pop_back();
  dirty_flag_.pop_back();
  in_recompute_.pop_back();
  sel_.pop_back();
  selectors_.pop_back();
  cohort_pos_.pop_back();
  reach_.pop_back();
  reach_pos_.pop_back();
}

}  // namespace sens
