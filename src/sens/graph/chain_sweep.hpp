// Single-source costs that heap-order only a sparse graph's branch nodes.
//
// A SENS overlay is a subdivided mesh (arXiv:0805.4060, P1): leaders of
// degree <= 4 joined by relay chains, with trees hanging off the mesh.
// Three quarters of its nodes have degree <= 2, yet plain Dijkstra pushes
// every one of them through the heap. `ChainIndex` splits a CSR graph into its
// hanging trees (peeled leaf by leaf) and its 2-core, and the 2-core into
// branch nodes (core degree >= 3, plus one pseudo-branch per pure cycle)
// joined by directed super arcs: the chain of degree-2 interiors between
// two branches, with interior node and arc ids in walk order.
//
// `chain_costs_into` returns the doubles of `dijkstra_costs_into`, bit for
// bit (DESIGN.md §2.4). It seeds the source's tree up-path or its chain's
// two walks, then pops branch nodes only. Each pop sums its super arcs one
// arc at a time from the popped cost (never pre-summed), writing the
// minimum into every interior and relaxing the end branch, and a last pass
// fills the hanging trees parent-first. `LandmarkOracle` uses it when
// `chains_dominate` holds (DESIGN.md §2.6).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sens/graph/csr.hpp"
#include "sens/graph/dijkstra.hpp"

namespace sens {

/// Tree/chain decomposition of one CsrGraph, built in O(n + m) from the
/// CSR alone and valid for that graph only. Interior and arc arrays hold
/// at most the graph's arc count, so 32-bit offsets suffice (DESIGN.md §2.8).
class ChainIndex {
 public:
  explicit ChainIndex(const CsrGraph& g);

 private:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  /// Where a vertex lies: in a hanging tree, or on the 2-core as a branch
  /// or a chain interior.
  enum class Kind : std::uint8_t { kTree, kBranch, kInterior };

  /// One hanging-tree arc, parent -> node.
  struct TreeArc {
    std::uint32_t node;
    std::uint32_t parent;
    std::uint32_t arc;
  };

  friend void chain_costs_into(const CsrGraph& g, const ChainIndex& chains, std::uint32_t source,
                               std::span<const double> arc_weights, DijkstraScratch& scratch,
                               std::span<double> out);
  friend void chain_many_into(const CsrGraph& g, const ChainIndex& chains,
                              std::span<const std::uint32_t> sources,
                              std::span<const double> arc_weights, std::span<double> out);

  /// Throws std::invalid_argument (message prefixed with `who`) unless
  /// this index was built on a graph of g's shape.
  void check_graph(const CsrGraph& g, const char* who) const;

  /// The super arc that runs super arc j backwards.
  [[nodiscard]] std::uint32_t twin(std::uint32_t j) const;

  std::size_t num_vertices_ = 0;
  std::size_t num_arcs_ = 0;
  std::vector<Kind> kind_;  ///< per vertex
  /// Per vertex, by kind: the arc to its tree parent (kNone at the root of
  /// a tree component), its branch id, or its first index in interior_.
  std::vector<std::uint32_t> place_;
  std::vector<TreeArc> fill_;  ///< tree arcs, parent before child
  std::vector<std::uint32_t> branch_vertex_;  ///< per branch: vertex id
  std::vector<std::uint32_t> super_begin_;    ///< per branch: first super arc (B + 1)
  std::vector<std::uint32_t> head_;           ///< per super arc: end branch
  /// Super arc j's interiors are interior_[seg_[j], seg_[j + 1]); its
  /// arcs, one more, start at arcs_[seg_[j] + j].
  std::vector<std::uint32_t> seg_;
  std::vector<std::uint32_t> interior_;
  std::vector<std::uint32_t> arcs_;
};

/// The dispatch rule of the landmark label sweeps (DESIGN.md §2.6): at
/// least half the vertices have degree <= 2.
[[nodiscard]] bool chains_dominate(const CsrGraph& g);

/// `dijkstra_costs_into` through `chains` (built on `g`): the same doubles,
/// bit for bit, with only branch nodes in the scratch's heap. Throws
/// std::invalid_argument when `out` is not n long, `arc_weights` does not
/// match the arcs or `chains` belongs to another graph, and
/// std::out_of_range when `source` >= n.
void chain_costs_into(const CsrGraph& g, const ChainIndex& chains, std::uint32_t source,
                      std::span<const double> arc_weights, DijkstraScratch& scratch,
                      std::span<double> out);

/// `dijkstra_many_into` through `chains`: same contract, same rows, each
/// participant of the parallel call reusing its own scratch.
void chain_many_into(const CsrGraph& g, const ChainIndex& chains,
                     std::span<const std::uint32_t> sources, std::span<const double> arc_weights,
                     std::span<double> out);

}  // namespace sens
