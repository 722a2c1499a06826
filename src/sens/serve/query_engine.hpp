// Routing as a service: concurrent batched s-t query engine (DESIGN.md §2.6).
//
// The experiments up to PR 5 pulled routes one call at a time inside each
// bench loop. This layer is the serving front end over the graph and router
// machinery: a `QueryEngine` is built once per overlay (graph + arc weights
// + landmark oracle) and then answers *batches* of distance and route
// queries into caller-owned buffers. It is immutable after construction —
// every method is const and allocates no shared mutable state — so one
// engine instance serves any number of concurrent caller threads, each
// submitting its own batches (the §2.6 serving contract). Working memory is
// participant state of the parallel call (`parallel_for_chunks<State>`):
// one scratch per participating thread, built on its first chunk, taken
// without a lock and dropped when the call returns — nothing survives it.
//
// Two distance paths share one output contract:
//   * `exact_distances` — one early-exit Dijkstra per query, chunk-parallel
//     over the batch (the cold path, backed by the §2.4 batched engines);
//   * `estimate_distances` — the certify-or-fallback kernel `serve_batch`,
//     shared with the epoch engine (serve/epoch_engine.hpp): O(L) landmark
//     bounds per query, the upper bound when the bracket is exact or
//     certifies the stretch budget (upper <= max_stretch * lower), and
//     otherwise the oracle's exact A* search toward the target
//     (`LandmarkOracle::exact_cost`, bit-identical to Dijkstra).
// Either way every answer is a pure function of (graph, weights, params,
// query) — bit-identical regardless of `--threads` and of how many caller
// threads share the engine; `ServeStats` says how each answer was produced.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "sens/core/sens_router.hpp"
#include "sens/graph/csr.hpp"
#include "sens/graph/dijkstra.hpp"
#include "sens/serve/landmark_oracle.hpp"

namespace sens {

/// One s-t query over the engine's graph.
struct Query {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
};

/// How one `serve_batch` answer was produced.
enum class Verdict : std::uint8_t {
  kExact = 0,         ///< exact distance (tight bracket or exact fallback search)
  kCertified = 1,     ///< oracle upper bound, provably <= max_stretch * d
  kDisconnected = 2,  ///< no path: answered kInfCost, reported, not guessed
  kStale = 3,         ///< an id >= the vertex count: answered kInfCost
};

/// Per-batch verdict accounting: every query lands in exactly one count, so
/// exact + certified + disconnected + stale == queries. Counts are sums
/// over queries, deterministic at any thread count.
struct ServeStats {
  std::size_t queries = 0;
  std::size_t exact = 0;
  std::size_t certified = 0;
  std::size_t disconnected = 0;
  std::size_t stale = 0;

  ServeStats& operator+=(const ServeStats& o) {
    queries += o.queries;
    exact += o.exact;
    certified += o.certified;
    disconnected += o.disconnected;
    stale += o.stale;
    return *this;
  }
};

/// The certify-or-fallback serving kernel of both query engines. Per query:
/// an id >= g.num_vertices() is kStale; otherwise `oracle.bounds` answers
/// an exact bracket (lower == upper) or a bracket within `max_stretch`, and
/// anything else falls back to `oracle.exact_cost` over `weights`, an exact
/// A* search pruned by the bracket's upper bound whose answer equals
/// `dijkstra_cost` bit for bit (DESIGN.md §2.4). `oracle` must be labeled
/// on `g` and `weights`. Distances
/// go to out[i] (kInfCost for kStale and kDisconnected), verdicts to
/// verdicts[i] unless `verdicts` is empty.
/// Chunk-parallel and const; the obs oracle counters are flushed once per
/// chunk (DESIGN.md §2.10). Throws std::invalid_argument, before any
/// dispatch, when out.size() != queries.size(), when a non-empty `verdicts`
/// has another size, or when `weights` does not match the arcs of `g`.
ServeStats serve_batch(const CsrGraph& g, std::span<const double> weights,
                       const LandmarkOracle& oracle, double max_stretch,
                       std::span<const Query> queries, std::span<double> out,
                       std::span<Verdict> verdicts);

struct QueryEngineParams {
  std::size_t num_landmarks = 16;
  /// Certification budget of `estimate_distances`: answer the oracle upper
  /// bound only when upper <= max_stretch * lower (so the reported distance
  /// provably overshoots the true one by at most this factor).
  double max_stretch = 1.1;
  std::uint64_t seed = 0x5eed5eed5eedULL;
  /// Pivot-pick policy, passed through to the oracle
  /// (serve/landmark_oracle.hpp). Farthest-point costs L extra Dijkstra
  /// sweeps at build time and cuts the exact-fallback rate at serve time.
  LandmarkSelection selection = LandmarkSelection::kUniformRandom;
};

class QueryEngine {
 public:
  /// `g` must outlive the engine; `arc_weights` is consumed (aligned with
  /// the arcs of `g`, see CsrGraph::arc_weights). Builds the landmark
  /// oracle eagerly — construction is the only expensive step. Throws
  /// std::invalid_argument when arc_weights.size() != g.num_arcs() (the
  /// oracle build checks it before its first Dijkstra).
  QueryEngine(const CsrGraph& g, std::vector<double> arc_weights,
              const QueryEngineParams& params = {});

  // --- batched forms: chunk-parallel over the batch, results written to
  // caller-owned buffers, safe to call concurrently on one engine. Every
  // form throws std::invalid_argument, before any work, when out.size() !=
  // queries.size(); the exact form throws std::out_of_range, before any
  // work, when a query names an id >= the vertex count ---

  /// Exact weighted distance per query into out[i] (kInfCost when
  /// disconnected). out.size() must equal queries.size().
  void exact_distances(std::span<const Query> queries, std::span<double> out) const;

  /// Oracle-first distance per query into out[i]: `serve_batch` over this
  /// engine (out-of-range ids are answered kInfCost and counted stale).
  ServeStats estimate_distances(std::span<const Query> queries, std::span<double> out) const;

  [[nodiscard]] const LandmarkOracle& oracle() const { return oracle_; }
  [[nodiscard]] double max_stretch() const { return max_stretch_; }

 private:
  const CsrGraph* g_;
  std::vector<double> weights_;
  LandmarkOracle oracle_;
  double max_stretch_;
};

/// Batched SENS tile routes on a shared router: one `SensRouter::route` per
/// pair, chunk-parallel with one scratch per participant. The router is
/// immutable, so any number of concurrent `route_batch` calls may share it;
/// result i depends only on (overlay, pairs[i]) and is bit-identical at any
/// thread count (§2.6).
[[nodiscard]] std::vector<SensRoute> route_batch(const SensRouter& router,
                                                 std::span<const std::pair<Site, Site>> pairs);

}  // namespace sens
