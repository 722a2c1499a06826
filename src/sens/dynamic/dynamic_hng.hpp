// Incremental maintenance of a hierarchical neighbor graph under node
// join/leave events (churn) — the dynamic counterpart of `build_hng`.
//
// The HNG paper (arXiv:0903.0742) pitches the structure as incrementally
// maintainable: a joining node draws its promotion chain and links locally,
// a leaving node orphans only the bounded set of nodes that had selected
// it. Because our promotion draws come from dedicated per-node rng streams
// (seed, "HNG", node) — never from one shared sequence — the level of slot
// i depends only on (seed, i), and the incremental structure can agree
// with a fresh batch build *bit for bit*, not just approximately.
//
// Identity discipline: nodes are dense slots [0, size()). `insert` appends
// at slot size(); `remove(i)` swap-removes — the node in the last slot
// moves into slot i and redraws its promotion chain from stream i (the
// paper's rejoin-under-a-new-id event). That keeps the id space dense, so
// the oracle contract (DESIGN.md §2.7) is exact equality with the batch
// builder on the surviving point set after EVERY event:
//
//     overlay() == build_hng(points(), params, seed).geo.graph
//     level(i)  == the batch level vector, element for element
//
// enforced at every prefix of randomized traces by tests/test_dynamic.cpp
// (`churn` ctest label).
//
// Repair sets are bounded and exact, and so is the work that finds them
// (DESIGN.md §2.7) — no event scans all slots unless its output is every
// node (the top < 2 everyone-clique):
//  * join u at level L: u's own selection is one k-NN query per the
//    batch rule; an existing regular node w of exact level l <= L-1 sees u
//    enter S_{l+1}, and its new k-NN selection follows from its old one
//    without a re-query — admit u iff w is under-full or u beats w's
//    current (distance, index)-worst pick. The candidates w come from a
//    reverse k-NN index: each full linker sits in a hash-grid bucket whose
//    cell side exceeds its worst-pick distance, so every w that could admit
//    u lies in the 3x3 buckets around u. A level whose target held fewer
//    than k nodes is under-full throughout and admits u via its member
//    list. A top-level rise dissolves the old clique cohort, which relinks
//    by re-query.
//  * leave r: exactly the nodes that selected r (a maintained reverse
//    index) re-query; a top-level drop forms the new top cohort's clique.
// Top-level transitions read per-level member lists (cohorts), never the
// slot range.
// The overlay CSR is patched with `CsrGraph::apply_edge_delta` over the
// touched vertex pairs — never rebuilt or re-sorted. Materialization is
// deferred: each event appends its net-changed pairs to a pending list,
// and the first overlay() read after a burst applies them in one batch.
// A CSR snapshot costs O(n + m) however small the delta (offsets, copies,
// reverse arcs), so batching is what keeps per-event cost bounded by the
// repair set instead of the deployment size.
//
// All maintenance is serial by design (events are a sequential dependence
// chain); replaying a trace is bit-identical at any --threads value
// (DynamicThreads.*), extending the §2.3–2.5 determinism contract to
// mutations.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sens/geometry/vec2.hpp"
#include "sens/graph/csr.hpp"
#include "sens/hng/hng.hpp"
#include "sens/spatial/grid_knn.hpp"

namespace sens {

/// One materialized overlay edge delta (DESIGN.md §2.9): exactly the
/// arguments the maintainer passed to `CsrGraph::apply_edge_delta`, so a
/// subscriber holding the generation-g snapshot replays the same call and
/// lands on the generation-(g+1) snapshot bit for bit — never a wholesale
/// rebuild. Produced by materialize(), consumed by
/// serve/epoch_engine.hpp's EpochQueryEngine.
struct OverlayDelta {
  std::size_t n_new = 0;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> removed;  ///< sorted u < v pairs
  std::vector<std::pair<std::uint32_t, std::uint32_t>> added;    ///< sorted u < v pairs
};

/// Repair counters of one insert()/remove() event.
struct DynamicHngStats {
  std::size_t relinked = 0;       ///< nodes whose selection list changed
  std::size_t edges_added = 0;    ///< overlay edge delta of the event
  std::size_t edges_removed = 0;
  /// Slots the repair visited to find its repair set: cohort members plus
  /// reverse k-NN candidates (the `dynamic_nodes_scanned` obs counter).
  std::size_t nodes_scanned = 0;
};

class DynamicHng {
 public:
  /// Empty structure; nodes arrive via insert(). Throws
  /// std::invalid_argument on invalid params (same rules as build_hng).
  DynamicHng(const HngParams& params, std::uint64_t seed);

  /// Bulk adoption: equivalent to (and implemented as) inserting `points`
  /// one by one in order. Throws std::invalid_argument if any point has a
  /// non-finite coordinate.
  DynamicHng(std::span<const Vec2> points, const HngParams& params, std::uint64_t seed);

  DynamicHng(DynamicHng&&) noexcept = default;
  DynamicHng& operator=(DynamicHng&&) noexcept = default;
  DynamicHng(const DynamicHng&) = delete;
  DynamicHng& operator=(const DynamicHng&) = delete;

  /// Join: the new node takes slot size(), draws its level from stream
  /// (seed, "HNG", slot), links itself, and repairs the bounded set of
  /// selections it enters. Returns the slot. Throws std::invalid_argument
  /// on a non-finite coordinate, before any state changes.
  std::uint32_t insert(Vec2 p);

  /// Leave: node `i` departs. Unless i was the last slot, the last slot's
  /// point moves into slot i and redraws its chain from stream i. Throws
  /// std::out_of_range on an invalid slot.
  void remove(std::uint32_t i);

  [[nodiscard]] std::size_t size() const { return points_.size(); }
  [[nodiscard]] std::span<const Vec2> points() const { return points_; }
  [[nodiscard]] std::uint32_t level(std::uint32_t i) const { return level_[i]; }
  [[nodiscard]] std::uint32_t top_level() const { return top_; }

  /// The symmetrized overlay — equal to the batch build's graph. Deltas
  /// accumulated since the last read are applied here in one
  /// CsrGraph::apply_edge_delta batch (lazily cached; like every other
  /// member, not safe to call concurrently with mutations).
  [[nodiscard]] const CsrGraph& overlay() const {
    materialize();
    return overlay_;
  }

  /// Repair counters of the most recent insert()/remove().
  [[nodiscard]] const DynamicHngStats& last_event() const { return last_; }

  // --- overlay delta journal (DESIGN.md §2.9) ---
  //
  // Every materialization appends the applied delta, tagged by a monotone
  // generation: generation g's snapshot plus overlay_delta(g) equals
  // generation g+1's snapshot. Subscribers (EpochQueryEngine) poll
  // overlay_generation() and fold the gap; long-lived owners may
  // trim_overlay_journal() once every subscriber has caught up —
  // subscribers detect the gap and fall back to a full resync.

  /// Generation of the current overlay (materializes pending deltas first,
  /// like overlay()). Generation 0 is the empty structure.
  [[nodiscard]] std::uint64_t overlay_generation() const {
    materialize();
    return journal_base_ + journal_.size();
  }

  /// Oldest journaled generation still replayable (>= this, < current).
  [[nodiscard]] std::uint64_t overlay_journal_begin() const { return journal_base_; }

  /// The delta from generation g's snapshot to generation g+1's. Throws
  /// std::out_of_range outside [overlay_journal_begin(),
  /// overlay_generation()).
  [[nodiscard]] const OverlayDelta& overlay_delta(std::uint64_t g) const;

  /// Drop journal entries below `upto` (clamped to the current
  /// generation); replays from older snapshots then require a resync.
  void trim_overlay_journal(std::uint64_t upto);

 private:
  [[nodiscard]] double dist2(std::uint32_t a, std::uint32_t b) const;
  void touch(std::uint32_t u);
  void mark_recompute(std::uint32_t w);
  void flush_recompute();
  void compute_selection(std::uint32_t u, std::vector<std::uint32_t>& out);
  void set_selection(std::uint32_t u, const std::vector<std::uint32_t>& fresh);
  void maybe_enter(std::uint32_t w, std::uint32_t u);
  void join_repair(std::uint32_t u);
  void cohort_add(std::uint32_t w);
  void cohort_drop(std::uint32_t w);
  void reindex(std::uint32_t w);
  void reach_erase(std::uint32_t w);
  void insert_slot(std::uint32_t id, Vec2 p);
  void remove_slot(std::uint32_t r);
  void begin_event();
  void finalize_event();
  [[nodiscard]] const std::vector<std::uint32_t>& pre_event_selection(std::uint32_t w) const;
  void materialize() const;

  HngParams params_;
  std::uint64_t seed_ = 0;

  // Slot-indexed node state. The arrays stay at event-entry size while an
  // event is in flight (a swap-remove briefly has two dead slots) and are
  // trimmed in remove(); alive_ is the in-event liveness mask.
  std::vector<Vec2> points_;
  std::vector<std::uint32_t> level_;
  std::vector<std::uint8_t> alive_;
  std::vector<std::vector<std::uint32_t>> sel_;        ///< selections, ascending ids
  std::vector<std::vector<std::uint32_t>> selectors_;  ///< reverse index, ascending ids
  std::size_t live_n_ = 0;

  std::vector<std::vector<std::uint32_t>> cohort_;  ///< live slots per exact level [0, max_level]
  std::vector<std::uint32_t> cohort_pos_;           ///< slot -> index in its cohort
  std::uint32_t top_ = 0;

  // Reverse k-NN index over the full linkers (exact level < top, k picks).
  // Linker w with worst-pick squared distance r2 has reach class c, the
  // smallest exponent (>= kMinReach) with 4^c > r2, and sits in the bucket
  // of cell floor(p / 2^c) at (level, c). A joiner that w admits lies
  // within sqrt(r2) < 2^c of it, so one cell away at most per axis.
  // Linkers whose r2 overflowed to +inf share one bucket that every
  // lookup at their level visits.
  struct ReachKey {
    std::int64_t x = 0;
    std::int64_t y = 0;
    std::uint32_t level = 0;
    std::int32_t reach = 0;
    bool operator==(const ReachKey&) const = default;
  };
  struct ReachKeyHash {
    std::size_t operator()(const ReachKey& key) const noexcept;
  };
  std::unordered_map<ReachKey, std::vector<std::uint32_t>, ReachKeyHash> reach_cells_;
  /// Per level: the occupied reach classes and their member counts, ascending.
  std::vector<std::vector<std::pair<std::int32_t, std::uint32_t>>> reach_classes_;
  std::vector<std::int32_t> reach_;       ///< slot -> reach class, or unindexed
  std::vector<std::uint32_t> reach_pos_;  ///< slot -> index in its bucket
  /// Subset views over points_, rebound whenever it grows; levels_[l]
  /// holds S_{l+2}.
  std::vector<GridKnn> levels_;
  DynamicHngStats last_;

  // Lazily materialized overlay cache (see overlay()). `pending_` holds
  // every pair whose membership flipped in some event since the last
  // materialization; pairs that flipped back cancel in the diff. Slot ids
  // in pending_ may exceed the current size after a shrink — materialize()
  // bound-checks both sides.
  mutable CsrGraph overlay_;
  mutable std::vector<std::pair<std::uint32_t, std::uint32_t>> pending_;
  mutable std::vector<std::pair<std::uint32_t, std::uint32_t>> removed_;
  mutable std::vector<std::pair<std::uint32_t, std::uint32_t>> added_;
  mutable std::vector<OverlayDelta> journal_;  ///< deltas since journal_base_
  mutable std::uint64_t journal_base_ = 0;     ///< generation of journal_[0]

  // Per-event scratch: first-touch capture of old selections (the edge
  // delta is derived from these), the re-query worklist, and query buffers.
  std::vector<std::pair<std::uint32_t, std::vector<std::uint32_t>>> dirty_old_;
  std::vector<std::uint8_t> dirty_flag_;
  std::vector<std::uint32_t> recompute_;
  std::vector<std::uint8_t> in_recompute_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> touched_;
  std::vector<std::uint32_t> found_;
  std::vector<std::uint32_t> fresh_sel_;
  std::vector<std::uint32_t> reach_found_;
  GridKnn::QueryScratch scratch_;
};

}  // namespace sens
