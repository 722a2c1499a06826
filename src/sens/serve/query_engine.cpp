#include "sens/serve/query_engine.hpp"

#include <stdexcept>
#include <string>

#include "sens/obs/obs.hpp"
#include "sens/support/parallel.hpp"

namespace sens {

namespace {

/// The exact form's input contract: an id >= n would index past every
/// per-vertex array, so the whole batch is rejected before any dispatch.
void check_ids(const CsrGraph& g, std::span<const Query> queries) {
  const std::size_t n = g.num_vertices();
  for (const Query& q : queries) {
    if (q.src >= n || q.dst >= n) {
      throw std::out_of_range("QueryEngine: query id >= vertex count");
    }
  }
}

/// The batch buffers' input contract: one output slot per query. A short
/// buffer would be written past its end, so the call is rejected before
/// any dispatch (one check per call, never per query).
void check_out_size(std::size_t out, std::size_t queries, const char* who) {
  if (out != queries) {
    throw std::invalid_argument(std::string(who) + ": output size != queries.size()");
  }
}

}  // namespace

ServeStats serve_batch(const CsrGraph& g, std::span<const double> weights,
                       const LandmarkOracle& oracle, double max_stretch,
                       std::span<const Query> queries, std::span<double> out,
                       std::span<Verdict> verdicts) {
  check_arc_weights(g, weights, "serve_batch");
  check_out_size(out.size(), queries.size(), "serve_batch (out)");
  if (!verdicts.empty()) check_out_size(verdicts.size(), queries.size(), "serve_batch (verdicts)");
  const std::size_t n = g.num_vertices();
  const ChunkLayout layout = chunk_layout(queries.size());
  std::vector<ServeStats> partials(layout.count);
  // The per-chunk tallies stay indexed by chunk; only the fallback's
  // search scratch is participant state (DESIGN.md §2.4).
  parallel_for_chunks<DijkstraScratch>(queries.size(), [&](DijkstraScratch& scratch,
                                                            std::size_t begin, std::size_t end) {
    std::size_t tally[4] = {};  // indexed by Verdict
    SENS_OBS(std::uint32_t fallbacks = 0;)
    for (std::size_t i = begin; i < end; ++i) {
      const Query q = queries[i];
      // Ids are generation-scoped under churn (swap-remove recycles them):
      // an out-of-range id is answered stale, never resolved to some other
      // node's distance.
      Verdict v = Verdict::kStale;
      double answer = kInfCost;
      if (q.src < n && q.dst < n) {
        const LandmarkOracle::Bounds b = oracle.bounds(q.src, q.dst);
        if (b.exact()) {
          // Exact bracket: s == t, a pivot at an endpoint, or a landmark
          // proving two components.
          v = Verdict::kExact;
          answer = b.upper;
        } else if (b.certifies(max_stretch)) {
          v = Verdict::kCertified;
          answer = b.upper;
        } else {
          v = Verdict::kExact;
          answer = oracle.exact_cost(g, weights, q.src, q.dst, b.upper, scratch);
          SENS_OBS(++fallbacks;)
        }
        if (answer >= kInfCost) v = Verdict::kDisconnected;
      }
      out[i] = answer;
      if (!verdicts.empty()) verdicts[i] = v;
      ++tally[static_cast<std::size_t>(v)];
    }
    ServeStats& stats = partials[layout.index_of(begin)];
    stats.queries = end - begin;
    stats.exact = tally[static_cast<std::size_t>(Verdict::kExact)];
    stats.certified = tally[static_cast<std::size_t>(Verdict::kCertified)];
    stats.disconnected = tally[static_cast<std::size_t>(Verdict::kDisconnected)];
    stats.stale = tally[static_cast<std::size_t>(Verdict::kStale)];
    SENS_OBS(obs::add(obs::Counter::kOracleCertified, stats.certified);
             obs::add(obs::Counter::kOracleFallback, fallbacks);
             obs::add(obs::Counter::kOracleDisconnected, stats.disconnected);)
  });
  ServeStats total;
  for (const ServeStats& p : partials) total += p;  // chunk order (sums commute anyway)
  return total;
}

QueryEngine::QueryEngine(const CsrGraph& g, std::vector<double> arc_weights,
                         const QueryEngineParams& params)
    : g_(&g),
      weights_(std::move(arc_weights)),
      oracle_(LandmarkOracle::build(
          g, weights_,
          LandmarkOracleParams{params.num_landmarks, params.seed, params.selection})),
      max_stretch_(params.max_stretch) {}

void QueryEngine::exact_distances(std::span<const Query> queries, std::span<double> out) const {
  check_ids(*g_, queries);
  check_out_size(out.size(), queries.size(), "QueryEngine::exact_distances");
  parallel_for_chunks<DijkstraScratch>(
      queries.size(), [&](DijkstraScratch& scratch, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          out[i] = dijkstra_cost(*g_, queries[i].src, queries[i].dst, weights_, scratch);
        }
      });
}

ServeStats QueryEngine::estimate_distances(std::span<const Query> queries,
                                           std::span<double> out) const {
  return serve_batch(*g_, weights_, oracle_, max_stretch_, queries, out, {});
}

std::vector<SensRoute> route_batch(const SensRouter& router,
                                   std::span<const std::pair<Site, Site>> pairs) {
  std::vector<SensRoute> out(pairs.size());
  parallel_for_chunks<SensRouteScratch>(
      pairs.size(), [&](SensRouteScratch& scratch, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          out[i] = router.route(pairs[i].first, pairs[i].second, scratch);
        }
      });
  return out;
}

}  // namespace sens
