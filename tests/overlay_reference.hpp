// Test-local reference for SENS overlay node numbering, shared by the UDG
// and NN core tests. It numbers nodes the direct way: one global
// std::map from base point to overlay node, first use first, walking good
// tiles in window order with the chain rule spelled out per model (rep ->
// relay for UDG, rep -> E relay -> C relay for NN). `expect_overlay_matches`
// checks the overlay's node table, its derived exit chains and the
// prescribed edge list against it.
#pragma once

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "sens/core/overlay.hpp"
#include "sens/tiles/classify.hpp"

namespace sens::testing_ref {

struct ReferenceOverlay {
  std::vector<std::uint32_t> base_index;
  std::vector<std::uint32_t> rep;  ///< per tile, kNoNode for bad tiles
  /// Per tile and direction: nodes after the rep, out to the boundary.
  std::vector<std::array<std::vector<std::uint32_t>, 4>> chain;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;  ///< prescribed, in order
};

inline ReferenceOverlay reference_overlay(const TileClassification& cls, bool e_relays) {
  ReferenceOverlay ref;
  const std::size_t tiles = cls.window.tile_count();
  ref.rep.assign(tiles, kNoNode);
  ref.chain.assign(tiles, {});
  std::map<std::uint32_t, std::uint32_t> node_of_point;
  auto node = [&](std::uint32_t p) {
    const auto [it, inserted] =
        node_of_point.try_emplace(p, static_cast<std::uint32_t>(ref.base_index.size()));
    if (inserted) ref.base_index.push_back(p);
    return it->second;
  };
  auto prescribe = [&](std::uint32_t a, std::uint32_t b) {
    if (a != b) ref.edges.emplace_back(a, b);
  };
  for (std::size_t t = 0; t < tiles; ++t) {
    if (!cls.good[t]) continue;
    const TileLeaders& leaders = cls.leaders[t];
    ref.rep[t] = node(leaders[0]);
    for (std::size_t dir = 0; dir < 4; ++dir) {
      std::vector<std::uint32_t>& chain = ref.chain[t][dir];
      if (e_relays) chain.push_back(node(leaders[dir + 5]));
      chain.push_back(node(leaders[dir + 1]));
      std::uint32_t prev = ref.rep[t];
      for (const std::uint32_t n : chain) {
        prescribe(prev, n);
        prev = n;
      }
    }
  }
  const auto w = static_cast<std::size_t>(cls.window.width);
  const auto h = static_cast<std::size_t>(cls.window.height);
  for (std::size_t y = 0; y < h; ++y) {
    for (std::size_t x = 0; x < w; ++x) {
      const std::size_t t = y * w + x;
      if (!cls.good[t]) continue;
      if (x + 1 < w && cls.good[t + 1]) {
        prescribe(ref.chain[t][0].back(), ref.chain[t + 1][1].back());
      }
      if (y + 1 < h && cls.good[t + w]) {
        prescribe(ref.chain[t][2].back(), ref.chain[t + w][3].back());
      }
    }
  }
  return ref;
}

/// Good tiles where one point holds two or more of the slots the overlay
/// numbers (slot 0 and the exit-chain slots).
inline std::size_t shared_point_tiles(const TileClassification& cls, bool e_relays) {
  std::size_t count = 0;
  for (std::size_t t = 0; t < cls.good.size(); ++t) {
    if (!cls.good[t]) continue;
    std::map<std::uint32_t, int> uses;
    for (std::size_t s = 0; s < (e_relays ? 9u : 5u); ++s) ++uses[cls.leaders[t][s]];
    for (const auto& [point, n] : uses) {
      if (n > 1) {
        ++count;
        break;
      }
    }
  }
  return count;
}

/// The skeleton's nodes, node table, derived chains and prescribed edges
/// equal the reference's.
inline void expect_overlay_matches(const TileClassification& cls, const OverlaySkeleton& skeleton,
                                   bool e_relays) {
  const ReferenceOverlay ref = reference_overlay(cls, e_relays);
  const Overlay& ov = skeleton.overlay;
  EXPECT_EQ(ov.base_index, ref.base_index);
  ASSERT_EQ(ov.tile_nodes.size(), ref.rep.size());
  for (std::size_t t = 0; t < ref.rep.size(); ++t) {
    const TileLeaders& nodes = ov.tile_nodes[t];
    EXPECT_EQ(ov.rep_of(ov.sites.site_at(t)), ref.rep[t]) << "tile " << t;
    if (ref.rep[t] == kNoNode) {
      EXPECT_EQ(nodes, kNoLeaders) << "bad tile " << t;
      continue;
    }
    for (int dir = 0; dir < 4; ++dir) {
      std::vector<std::uint32_t> derived;
      for (const std::uint8_t s : exit_slots(nodes, dir)) derived.push_back(nodes[s]);
      EXPECT_EQ(derived, ref.chain[t][static_cast<std::size_t>(dir)])
          << "tile " << t << " dir " << dir;
    }
  }
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (const PrescribedEdge& e : skeleton.edges) edges.emplace_back(e.a, e.b);
  EXPECT_EQ(edges, ref.edges);
}

}  // namespace sens::testing_ref
