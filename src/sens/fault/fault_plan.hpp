// Deterministic fault injection over geometric graphs (DESIGN.md §2.9).
//
// Sensor deployments fail three ways that matter to the sparse-topology
// claims: individual nodes crash (battery death, arXiv:cs/0411040's
// lifetime horizon), whole regions black out (weather, jamming, a crushed
// corridor), and individual links fade below usability while both
// endpoints stay up (the quasi-unit-disk-graph concern: a link inside the
// radio range need not be usable). A
// `FaultPlan` describes one such failure scenario; a `FaultInjector`
// evaluates it as a *pure function* of the plan — every draw comes from a
// dedicated per-entity rng stream (seed, kind, id), never from a shared
// sequence, so the verdict for node 17 does not depend on how many other
// nodes were asked first, on the iteration order, or on `--threads`
// (the §2.3 determinism contract extended to failures).
//
// `apply_faults` materializes the scenario: the induced subgraph on the
// surviving nodes, minus the individually failed links, relabeled dense
// with the order-preserving survivor map. The oracle contract (same
// discipline as §2.7's DynamicHng) is edge-for-edge equality with a fresh
// rebuild over the survivors:
//
//   apply_faults(geo, inj).geo.graph == relabel(filter(geo.graph.edge_list()))
//
// asserted by tests/test_fault.cpp at --threads 1/2/8 (`fault` ctest
// label). Extraction is the two-pass count-then-fill builder
// (graph/flat_adjacency.hpp), so it is chunk-parallel and bit-identical
// at any worker count.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sens/geograph/geo_graph.hpp"
#include "sens/geometry/box.hpp"
#include "sens/rng/rng.hpp"

namespace sens {

/// One failure scenario. Fractions are per-entity Bernoulli probabilities;
/// blackout boxes kill geometrically (half-open containment, box.hpp).
struct FaultPlan {
  double node_crash = 0.0;        ///< P(node dies), per-node stream draw
  double link_failure = 0.0;      ///< P(edge dies | both endpoints alive)
  std::vector<Box> blackouts;     ///< regions whose interior nodes all die
  std::uint64_t seed = 0xfa17ULL;
};

/// Pure per-entity evaluation of a FaultPlan. All predicates are const and
/// stateless; concurrent calls are safe and order-independent.
class FaultInjector {
 public:
  /// Throws std::invalid_argument unless both probabilities are finite
  /// and in [0, 1] and every blackout box has finite corners with
  /// lo <= hi on both axes (a NaN or inverted box would black out nothing).
  explicit FaultInjector(FaultPlan plan);

  /// Bernoulli crash draw of node `id` — stream (seed, kCrash, id).
  [[nodiscard]] bool node_crashes(std::uint32_t id) const {
    if (plan_.node_crash <= 0.0) return false;
    return Rng::stream(plan_.seed, kCrashStream, id).bernoulli(plan_.node_crash);
  }

  /// Geometric blackout test (no randomness).
  [[nodiscard]] bool node_blacked_out(Vec2 p) const {
    for (const Box& b : plan_.blackouts) {
      if (b.contains(p)) return true;
    }
    return false;
  }

  /// Node `id` at position `p` fails (crash draw or blackout).
  [[nodiscard]] bool node_fails(std::uint32_t id, Vec2 p) const {
    return node_crashes(id) || node_blacked_out(p);
  }

  /// Bernoulli link-failure draw of edge {u, v} — stream
  /// (seed, kLink, min, max), so both arc directions agree by construction.
  [[nodiscard]] bool link_fails(std::uint32_t u, std::uint32_t v) const {
    if (plan_.link_failure <= 0.0) return false;
    const std::uint32_t lo = u < v ? u : v;
    const std::uint32_t hi = u < v ? v : u;
    return Rng::stream(plan_.seed, kLinkStream, lo, hi).bernoulli(plan_.link_failure);
  }

  /// Liveness mask over `points` (1 = survives), chunk-parallel; entry i is
  /// a pure function of (plan, i, points[i]).
  [[nodiscard]] std::vector<std::uint8_t> alive_mask(std::span<const Vec2> points) const;

 private:
  // Rng stream tags of the fault draws (one tag per consumer, rng.hpp).
  static constexpr std::uint64_t kCrashStream = 0xfa17c0ffULL;
  static constexpr std::uint64_t kLinkStream = 0xfa171177ULL;

  FaultPlan plan_;
};

/// The materialized scenario: survivors relabeled dense (order-preserving,
/// so survivor ids ascend with the original ids) plus both id maps and the
/// loss accounting.
struct FaultedGraph {
  /// Sentinel in `new_id` for nodes that failed.
  static constexpr std::uint32_t kDead = 0xffffffffu;

  GeoGraph geo;                           ///< surviving subgraph, dense ids
  std::vector<std::uint32_t> survivor;    ///< new id -> original id (ascending)
  std::vector<std::uint32_t> new_id;      ///< original id -> new id, or kDead
  std::size_t nodes_failed = 0;
  std::size_t edges_lost_endpoint = 0;    ///< edges dropped with a dead endpoint
  std::size_t edges_lost_link = 0;        ///< surviving-endpoint edges that drew failure
};

/// Apply the plan to an embedded graph: induced subgraph on the survivors
/// minus the failed links, relabeled dense. Bit-identical at any --threads
/// and edge-for-edge equal to a fresh rebuild over the survivors (header
/// comment; the full-rebuild oracle is asserted in tests/test_fault.cpp).
[[nodiscard]] FaultedGraph apply_faults(const GeoGraph& geo, const FaultInjector& injector);

}  // namespace sens
