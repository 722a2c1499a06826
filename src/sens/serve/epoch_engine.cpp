#include "sens/serve/epoch_engine.hpp"

#include <algorithm>
#include <utility>

#include "sens/geometry/vec2.hpp"
#include "sens/obs/obs.hpp"
#include "sens/rng/rng.hpp"

namespace sens {

namespace {

/// Rng stream tag of pivot replacement draws (one tag per consumer).
constexpr std::uint64_t kDemoteStream = 0xe90cde40ULL;

/// Seeded replacement draws per demoted/missing pivot before the engine
/// accepts a smaller pivot set.
constexpr std::size_t kDemoteRetries = 8;

/// Euclidean arc weights of `g` over the maintainer's points, read in
/// place: the engine keeps no copy of them.
std::vector<double> length_weights(const CsrGraph& g, std::span<const Vec2> points) {
  return g.arc_weights(
      [&](std::uint32_t u, std::uint32_t v) { return dist(points[u], points[v]); });
}

}  // namespace

EpochQueryEngine::EpochQueryEngine(const DynamicHng& dyn, const EpochEngineParams& params)
    : dyn_(&dyn), params_(params) {
  generation_ = dyn.overlay_generation();
  graph_ = dyn.overlay();
  weights_ = length_weights(graph_, dyn_->points());
  oracle_ = LandmarkOracle::build(
      graph_, weights_,
      LandmarkOracleParams{params_.num_landmarks, params_.seed, params_.selection});
}


EpochRefreshStats EpochQueryEngine::refresh() {
  EpochRefreshStats stats;
  const std::uint64_t target = dyn_->overlay_generation();
  if (target == generation_) {
    stats.generation = generation_;
    return stats;
  }
  if (generation_ < dyn_->overlay_journal_begin()) {
    // The maintainer trimmed the journal past our epoch: the incremental
    // path is gone, take a fresh snapshot instead of failing.
    graph_ = dyn_->overlay();
    stats.resynced = true;
    SENS_OBS(obs::add(obs::Counter::kEpochResyncs, 1);)
  } else {
    // Replay the maintainer's own apply_edge_delta calls (§2.9): our
    // snapshot was bit-equal at generation_, so it is bit-equal at target.
    for (std::uint64_t g = generation_; g < target; ++g) {
      const OverlayDelta& d = dyn_->overlay_delta(g);
      graph_ = CsrGraph::apply_edge_delta(graph_, d.n_new, d.removed, d.added);
      ++stats.deltas_applied;
    }
    SENS_OBS(obs::add(obs::Counter::kEpochJournalReplays, stats.deltas_applied);)
  }
  generation_ = target;
  weights_ = length_weights(graph_, dyn_->points());

  // Pivot epoch: survivors keep their slots, dead pivots are demoted and
  // bounded seeded retries recruit distinct replacements. Exhausted
  // retries shrink the pivot set — more exact fallbacks, never a wrong
  // answer.
  const std::size_t n = graph_.num_vertices();
  std::vector<std::uint32_t> pivots(oracle_.landmarks().begin(), oracle_.landmarks().end());
  std::erase_if(pivots, [n](std::uint32_t l) { return l >= n; });
  stats.landmarks_demoted = oracle_.num_landmarks() - pivots.size();
  const std::size_t want = std::min(params_.num_landmarks, n);
  if (pivots.size() < want) {
    Rng rng = Rng::stream(params_.seed, kDemoteStream, generation_);
    const std::size_t missing = want - pivots.size();
    for (std::size_t k = 0; k < missing; ++k) {
      for (std::size_t attempt = 0; attempt < kDemoteRetries; ++attempt) {
        const auto pick = static_cast<std::uint32_t>(rng.uniform_index(n));
        if (std::find(pivots.begin(), pivots.end(), pick) == pivots.end()) {
          pivots.push_back(pick);
          ++stats.landmarks_recruited;
          break;
        }
      }
    }
  }
  oracle_ = LandmarkOracle::build_with(graph_, weights_, std::move(pivots));
  stats.generation = generation_;
  return stats;
}

}  // namespace sens
