#include "sens/serve/epoch_engine.hpp"

#include <algorithm>

#include "sens/obs/obs.hpp"
#include "sens/rng/rng.hpp"

namespace sens {

namespace {

/// Rng stream tag of pivot replacement draws (one tag per consumer).
constexpr std::uint64_t kDemoteStream = 0xe90cde40ULL;

/// Seeded replacement draws per demoted/missing pivot before the engine
/// accepts a smaller pivot set.
constexpr std::size_t kDemoteRetries = 8;

}  // namespace

EpochQueryEngine::EpochQueryEngine(const DynamicHng& dyn, const EpochEngineParams& params)
    : dyn_(&dyn), params_(params) {
  generation_ = dyn.overlay_generation();
  graph_ = dyn.overlay();
  points_.assign(dyn.points().begin(), dyn.points().end());
  weights_ = graph_.arc_weights(
      [&](std::uint32_t u, std::uint32_t v) { return dist(points_[u], points_[v]); });
  oracle_ = LandmarkOracle::build(
      graph_, weights_,
      LandmarkOracleParams{params_.num_landmarks, params_.seed, params_.selection});
  landmarks_.assign(oracle_.landmarks().begin(), oracle_.landmarks().end());
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
  points_.assign(dyn_->points().begin(), dyn_->points().end());
  weights_ = graph_.arc_weights(
      [&](std::uint32_t u, std::uint32_t v) { return dist(points_[u], points_[v]); });

  // Pivot epoch: survivors keep their slots, dead pivots are demoted and
  // bounded seeded retries recruit distinct replacements. Exhausted
  // retries shrink the pivot set — more exact fallbacks, never a wrong
  // answer.
  const std::size_t n = graph_.num_vertices();
  const std::size_t before = landmarks_.size();
  std::erase_if(landmarks_, [n](std::uint32_t l) { return l >= n; });
  stats.landmarks_demoted = before - landmarks_.size();
  const std::size_t want = std::min(params_.num_landmarks, n);
  if (landmarks_.size() < want) {
    Rng rng = Rng::stream(params_.seed, kDemoteStream, generation_);
    const std::size_t missing = want - landmarks_.size();
    for (std::size_t k = 0; k < missing; ++k) {
      for (std::size_t attempt = 0; attempt < kDemoteRetries; ++attempt) {
        const auto pick = static_cast<std::uint32_t>(rng.uniform_index(n));
        if (std::find(landmarks_.begin(), landmarks_.end(), pick) == landmarks_.end()) {
          landmarks_.push_back(pick);
          ++stats.landmarks_recruited;
          break;
        }
      }
    }
  }
  oracle_ = LandmarkOracle::build_with(graph_, weights_, landmarks_);
  stats.generation = generation_;
  return stats;
}

}  // namespace sens
