// Distributed execution of the network-formation algorithm (Figure 7).
//
// Every node knows only its own coordinates (the paper's GPS assumption)
// and can exchange messages with its base-graph neighbors. Each node's tile
// and region memberships come from the role pass shared with centralized
// classification (`tile_roles`, sens/tiles/classify.hpp). The protocol
// runs in four phases, each driven to quiescence: the radio delivers in
// send order until no message is left (sens/runtime/radio.hpp), an
// idealization of the timeout a deployment would use. Phases 3 and 4 share
// one drain, since the handshakes start as the chains connect:
//
//   1. ELECT    — flood-min leader election per (tile, region): members
//                 broadcast the smallest id heard so far, restricted to
//                 region members (Singh-style election on the region).
//   2. LEADER   — final leaders announce themselves; in the NN construction
//                 the E relays forward the announcements of their C relays
//                 toward the tile center (C disks are 4a from the rep and
//                 not necessarily its direct neighbors).
//   3. CONNECT  — the representative locally determines tile goodness (all
//                 regions announced a leader; property P4) and connects the
//                 relay chains: rep -> relay (UDG) or rep -> E -> C (NN).
//                 Each hop's slot comes from `exit_slots` over the leaders
//                 the node has heard, the rule the centralized overlay
//                 reads from its node table.
//   4. XHELLO / XACK — boundary relays of connected (= good) tiles shake
//                 hands with their counterparts across the tile border.
//
// Every hop is a real message through sens/runtime/radio.hpp, so message
// and energy budgets are measured, and a handshake silently fails when the
// base graph lacks the needed link — exactly mirroring `edges_missing` of
// the centralized builder. The integration tests assert that, for specs
// with the worst-case guarantee (UdgTileSpec::strict()), the protocol
// reproduces the centralized overlay bit for bit.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "sens/geograph/geo_graph.hpp"
#include "sens/tiles/classify.hpp"
#include "sens/tiles/nn_tile.hpp"
#include "sens/tiles/tiling.hpp"
#include "sens/tiles/udg_tile.hpp"

namespace sens {

struct ConstructOutcome {
  /// Tile goodness as decided by the representatives (P4, local rule).
  std::vector<std::uint8_t> tile_good;
  /// Elected leaders per tile, in the TileLeaders slot layout of tile
  /// classification (sens/tiles/classify.hpp).
  std::vector<TileLeaders> leaders;
  /// Overlay edges as base-node id pairs (u < v, sorted, deduplicated).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;

  std::size_t election_messages = 0;
  std::size_t control_messages = 0;  ///< LEADER/FORWARD/CONNECT/XHELLO/XACK
  std::size_t failed_connects = 0;   ///< required link absent from base graph
  double energy = 0.0;               ///< total transmit energy (beta = 2)

  [[nodiscard]] std::size_t good_count() const;
};

/// Run Figure 7 on a unit-disk network. `udg` must be the UDG over the
/// sampled points; tiles outside `window` are ignored.
[[nodiscard]] ConstructOutcome run_udg_construction(const GeoGraph& udg, const UdgTileSpec& spec,
                                                    TileWindow window);

/// Run the NN-SENS variant on a k-NN network.
[[nodiscard]] ConstructOutcome run_nn_construction(const GeoGraph& knn, const NnTileSpec& spec,
                                                   TileWindow window);

}  // namespace sens
