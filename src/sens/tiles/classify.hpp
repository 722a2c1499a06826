// Classification of a point set into good/bad tiles with per-region leader
// election, materializing the coupling phi of Section 2: the output of
// classification *is* a site-percolation configuration (SiteGrid), and the
// elected representatives/relays are the overlay nodes.
//
// UDG-SENS and NN-SENS share one pipeline (DESIGN.md §1.1). The role pass
// (`tile_roles`) maps every point to its window tile and region mask;
// classification folds those roles in point order, electing the smallest
// point index per (tile, slot) — the centralized equivalent of the
// distributed flood-min protocol in sens/runtime, which consumes the same
// role pass. The runtime integration test asserts the two agree.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "sens/perc/site_grid.hpp"
#include "sens/tiles/nn_tile.hpp"
#include "sens/tiles/tiling.hpp"
#include "sens/tiles/udg_tile.hpp"

namespace sens {

inline constexpr std::uint32_t kNoNode = 0xffffffffu;

/// Elected base point per region slot of one tile (kNoNode: region empty).
/// Slot s is bit s of `udg_region_mask` / `NnTileSpec::region_mask`:
///   0     representative (C0);
///   1..4  boundary relay toward dir 0..3 (UDG relay / NN C relay);
///   5..8  NN E relay toward dir 0..3 (always empty for UDG).
using TileLeaders = std::array<std::uint32_t, 9>;

inline constexpr TileLeaders kNoLeaders{kNoNode, kNoNode, kNoNode, kNoNode, kNoNode,
                                        kNoNode, kNoNode, kNoNode, kNoNode};

/// Slots of a tile's exit chain toward `dir` (0..3), from the rep outward.
struct ExitSlots {
  std::array<std::uint8_t, 2> slot{};
  std::uint8_t size = 0;

  [[nodiscard]] const std::uint8_t* begin() const { return slot.data(); }
  [[nodiscard]] const std::uint8_t* end() const { return slot.data() + size; }
};

/// The Figure 7 chain rule, stated once for the overlay, its tile-hop paths
/// and the construction protocol: the E relay slot dir + 5 when `t` fills
/// it, then the boundary relay slot dir + 1. UDG masks never set slots
/// 5..8, so a UDG chain is {dir + 1} (rep -> relay); a good NN tile fills
/// all nine, so its chain is {dir + 5, dir + 1} (rep -> E -> C). `t` is any
/// table in this layout: elected leaders, overlay nodes, or the leaders one
/// protocol node has heard.
[[nodiscard]] constexpr ExitSlots exit_slots(const TileLeaders& t, int dir) {
  const auto relay = static_cast<std::uint8_t>(dir + 1);
  const auto e_relay = static_cast<std::uint8_t>(dir + 5);
  if (t[e_relay] == kNoNode) return {{relay, 0}, 1};
  return {{e_relay, relay}, 2};
}

/// One point's role: its window tile index (kNoNode outside the window) and
/// its region mask within that tile.
struct TileRole {
  std::uint32_t tile = kNoNode;
  unsigned mask = 0;
};

/// The role pass, one entry per point (parallel over points; identical at
/// any thread count). Throws std::invalid_argument on a NaN or infinite
/// coordinate, or one too large for a tile index.
[[nodiscard]] std::vector<TileRole> tile_roles(const UdgTileSpec& spec,
                                               std::span<const Vec2> points, TileWindow window);
[[nodiscard]] std::vector<TileRole> tile_roles(const NnTileSpec& spec,
                                               std::span<const Vec2> points, TileWindow window);

/// Per-tile outcome shared by both models, all vectors in window.index
/// order. Leaders are elected in every tile, good or bad.
struct TileClassification {
  TileWindow window;
  std::vector<std::uint8_t> good;
  std::vector<TileLeaders> leaders;
  std::vector<std::uint32_t> occupancy;  ///< points per tile

  [[nodiscard]] SiteGrid site_grid() const;
  [[nodiscard]] std::size_t good_count() const;
};

/// Good = all five regions occupied.
struct UdgClassification : TileClassification {
  UdgTileSpec spec;
};

/// Good = all nine regions occupied and at most k/2 points in the tile.
struct NnClassification : TileClassification {
  double a = 0.0;
  std::size_t k = 0;
};

/// Classify `points` over the tile window. Points outside the window are
/// ignored (they belong to the buffer). Both throw like `tile_roles`.
[[nodiscard]] UdgClassification classify_udg(const UdgTileSpec& spec, std::span<const Vec2> points,
                                             TileWindow window);

[[nodiscard]] NnClassification classify_nn(const NnTileSpec& spec, std::span<const Vec2> points,
                                           TileWindow window);

}  // namespace sens
