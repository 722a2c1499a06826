// Generation-tagged serving epochs over a churning topology
// (DESIGN.md §2.9).
//
// The immutable `QueryEngine` (§2.6) assumes its graph never changes;
// under churn that meant every `DynamicHng` event invalidated outstanding
// engines wholesale, leaving churned topologies unservable. An
// `EpochQueryEngine` instead *subscribes* to the maintainer's overlay
// delta journal (dynamic/dynamic_hng.hpp `OverlayDelta`): `refresh()`
// folds the journaled deltas into the engine's own CSR snapshot with the
// same `CsrGraph::apply_edge_delta` calls the maintainer made — so the
// epoch snapshot equals the maintainer's overlay bit for bit, without a
// rebuild — then re-labels the oracle. Between refreshes the engine is as
// immutable as a `QueryEngine`: serving is const, concurrent, and a pure
// function of (epoch snapshot, params, query).
//
// Landmark epochs: pivots survive refreshes. A pivot whose slot vanished
// (id >= the new vertex count) is demoted; a bounded number of seeded
// replacement draws recruit a substitute (stream (seed, kDemote,
// generation, k), so recruitment is replayable). If the retries exhaust,
// the engine simply serves with fewer pivots — a weaker bracket sends
// more queries to the exact fallback search, never to a wrong answer.
// Labels are re-swept every refresh (`LandmarkOracle::build_with`: batched
// `dijkstra_many_into` on an HNG, whose vertices mostly have degree >= 3,
// per the oracle's dispatch rule), so a certified answer always certifies
// against the *current* epoch — stale labels cannot certify by
// construction.
//
// Serving is the shared certify-or-fallback kernel (`serve_batch`,
// serve/query_engine.hpp) over the epoch snapshot, so every answer carries
// a `Verdict` — kExact, kCertified, kDisconnected, or kStale when the query
// names a slot that does not exist in this epoch (ids are generation-scoped
// under swap-remove; callers re-resolve and retry against a newer epoch).
// The zero-uncertified-wrong contract — every served distance is exact,
// certified-within-stretch, or explicitly kDisconnected/kStale — is
// asserted against exact Dijkstra on the E19 workload (bench_e19_faults)
// and in tests/test_fault.cpp.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sens/dynamic/dynamic_hng.hpp"
#include "sens/graph/csr.hpp"
#include "sens/serve/query_engine.hpp"

namespace sens {

/// Former name of the shared stats struct, kept for existing callers.
using EpochServeStats = ServeStats;

struct EpochEngineParams {
  std::size_t num_landmarks = 16;
  double max_stretch = 1.1;  ///< certification budget (query_engine.hpp)
  std::uint64_t seed = 0x5eed5eed5eedULL;
  LandmarkSelection selection = LandmarkSelection::kUniformRandom;
};

/// What one refresh() did.
struct EpochRefreshStats {
  std::uint64_t generation = 0;       ///< epoch after the refresh
  std::size_t deltas_applied = 0;     ///< journal entries folded in
  std::size_t landmarks_demoted = 0;  ///< pivots whose slot vanished
  std::size_t landmarks_recruited = 0;
  bool resynced = false;  ///< journal was trimmed past us: full snapshot copy
};

class EpochQueryEngine {
 public:
  /// Snapshot the maintainer's current overlay and build the first epoch.
  /// `dyn` must outlive the engine; mutations of `dyn` and calls into the
  /// engine must not overlap (refresh() is the only coupling point).
  explicit EpochQueryEngine(const DynamicHng& dyn, const EpochEngineParams& params = {});

  /// Catch up with the maintainer: fold journaled deltas (or resync past a
  /// trimmed journal), demote dead pivots, recruit replacements, re-sweep
  /// labels. No-op (beyond the generation read) when already current.
  EpochRefreshStats refresh();

  /// Answer a batch with explicit verdicts: `serve_batch` over this epoch
  /// (distances into out[i], verdicts into verdicts[i], both sized like
  /// queries). Const, safe to call concurrently with other serve() calls.
  ServeStats serve(std::span<const Query> queries, std::span<double> out,
                   std::span<Verdict> verdicts) const {
    return serve_batch(graph_, weights_, oracle_, params_.max_stretch, queries, out, verdicts);
  }

  [[nodiscard]] std::uint64_t generation() const { return generation_; }
  [[nodiscard]] const CsrGraph& graph() const { return graph_; }
  [[nodiscard]] std::span<const double> arc_weights() const { return weights_; }
  [[nodiscard]] const LandmarkOracle& oracle() const { return oracle_; }
  [[nodiscard]] double max_stretch() const { return params_.max_stretch; }

 private:
  const DynamicHng* dyn_;
  EpochEngineParams params_;
  std::uint64_t generation_ = 0;
  CsrGraph graph_;  ///< own snapshot of the overlay at generation_
  std::vector<double> weights_;
  LandmarkOracle oracle_;  ///< its landmarks are the surviving + recruited pivots
};

}  // namespace sens
