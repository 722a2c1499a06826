// The SENS overlay: the subnetwork of representatives and relays built on a
// classified tile window. This is the object the paper calls
// UDG-SENS(2, lambda) / NN-SENS(2, k) (strictly: their largest connected
// component, exposed through `comps`).
//
// An overlay couples three views of the same structure:
//   * a geometric graph (`geo`, `base_index`) over the elected nodes,
//   * the site-percolation configuration (`sites`) the tiles induce,
//   * a per-tile node table in the TileLeaders slot layout of tile
//     classification, from which a tile-level mesh hop is realized as a
//     node path (rep -> exit chain -> boundary), used by SensRouter.
//
// Both models assemble it in one code path (DESIGN.md §1.1):
// `overlay_skeleton` numbers the elected nodes into the node table and
// lists the prescribed edges; the model's link test marks which of them
// the base graph realizes; `finish_overlay` builds the graph. Edges are
// inserted only when realized; `edges_missing` counts the claim violations.
// Exit chains are never stored: `exit_slots` (sens/tiles/classify.hpp)
// derives them from the table.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sens/geograph/geo_graph.hpp"
#include "sens/graph/components.hpp"
#include "sens/perc/site_grid.hpp"
#include "sens/tiles/classify.hpp"
#include "sens/tiles/tiling.hpp"

namespace sens {

struct Overlay {
  /// Overlay nodes (subset of base points, re-indexed) and overlay edges.
  GeoGraph geo;
  /// Overlay node id -> index into the base point set.
  std::vector<std::uint32_t> base_index;

  /// Tile window and side used to build the overlay.
  TileWindow window;
  double tile_side = 0.0;
  /// Goodness configuration: site open <=> tile good.
  SiteGrid sites;

  /// Per tile (window.index order), in the TileLeaders slot layout: entry
  /// [t][s] is the overlay node of leader slot s of good tile t, kNoNode
  /// for bad tiles and empty slots. Slot 0 is the representative; the
  /// chain toward dir is `exit_slots(tile_nodes[t], dir)`.
  std::vector<TileLeaders> tile_nodes;

  /// Connected components of the overlay graph; the SENS subgraph proper is
  /// the largest one.
  Components comps;

  /// Edge realization accounting (DESIGN.md §1.1).
  std::size_t edges_expected = 0;
  std::size_t edges_missing = 0;

  // --- convenience ---

  [[nodiscard]] std::size_t tile_index(Site s) const {
    return static_cast<std::size_t>(s.y) * static_cast<std::size_t>(window.width) +
           static_cast<std::size_t>(s.x);
  }
  [[nodiscard]] std::uint32_t rep_of(Site s) const { return tile_nodes[tile_index(s)][0]; }

  /// True if the tile's rep exists and belongs to the largest overlay
  /// component (i.e. the tile participates in the SENS subgraph).
  [[nodiscard]] bool rep_in_giant(Site s) const {
    const std::uint32_t r = rep_of(s);
    return r != kNoNode && comps.in_largest(r);
  }

  /// Sites whose representatives lie in the largest overlay component.
  [[nodiscard]] std::vector<Site> giant_rep_sites() const;

  /// Overlay nodes of the largest component.
  [[nodiscard]] std::size_t giant_size() const { return comps.largest_size(); }

  /// Append the prescribed node path of the hop between lattice-adjacent
  /// good tiles `from` -> `to`: rep(from), from's exit chain toward `to`,
  /// to's facing exit chain reversed, rep(to). A node equal to the path's
  /// last node is skipped (one point may hold two consecutive roles), so
  /// appending successive hops yields one repeat-free route.
  void append_tile_hop(Site from, Site to, std::vector<std::uint32_t>& path) const;
};

/// One prescribed overlay edge in overlay node ids — an in-tile chain link
/// or a facing-relay handshake — with the model's verdict on whether the
/// base graph realizes it.
struct PrescribedEdge {
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  bool linked = false;
};

/// An overlay with its nodes and node table in place and its prescribed
/// edges not yet realized.
struct OverlaySkeleton {
  Overlay overlay;
  std::vector<PrescribedEdge> edges;
};

/// Walk the good tiles of `cls` in window order and number their leaders
/// into `tile_nodes`, first use first: slot 0, then for each dir the slots
/// of `exit_slots(leaders, dir)` (UDG {dir+1}, NN {dir+5, dir+1}). A point
/// holding several slots of its tile gets one node; the dedupe stays inside
/// the tile because `tile_roles` gives each point one tile. Prescribe
/// rep -> chain links inside each tile, then the facing-relay pair of every
/// adjacent good pair (+x, +y). Pairs of one node with itself are not
/// prescribed.
/// Throws std::invalid_argument if a leader indexes past `num_points`, the
/// size of the point set the link test will read — so a classification
/// built on more points than it is given fails here, before any link test
/// runs (`UdgSens.OverlayRejectsLeaderOutOfRange`,
/// `NnLinkTest.OverlayRejectsLeaderOutOfRange`).
[[nodiscard]] OverlaySkeleton overlay_skeleton(const TileClassification& cls,
                                               std::size_t num_points, double tile_side);

/// Count and insert the linked edges, attach the node points and label
/// components.
[[nodiscard]] Overlay finish_overlay(OverlaySkeleton skeleton, std::span<const Vec2> points);

}  // namespace sens
