#include "sens/runtime/construct.hpp"

#include <algorithm>

#include "sens/runtime/radio.hpp"

namespace sens {

namespace {

enum MsgKind : std::uint32_t {
  kElect = 1,    // a = tile, b = slot, c = best id seen
  kLeader = 2,   // a = tile, b = slot, c = leader id
  kForward = 3,  // a = tile, b = slot, c = leader id (E relay -> rep, NN only)
  kConnect = 4,  // a = tile, b = slot of the receiver, c = dir
  kXHello = 5,   // a = sender's tile, b = sender's outgoing direction
  kXAck = 6,     // a = sender's tile, b = sender's outgoing direction
  kPresent = 7,  // a = tile (NN occupancy counting)
};

/// Per-node protocol state. A point holds roles only in the one tile
/// `tile_roles` assigns it, so every per-role field is indexed by slot.
struct NodeState {
  std::uint32_t tile = kNoNode;     // window tile index (or kNoNode)
  std::uint16_t slot_mask = 0;      // bit s: holds region slot s of `tile`
  TileLeaders best = kNoLeaders;    // election best per held slot
  TileLeaders heard = kNoLeaders;   // leader per slot of own tile
  std::uint32_t present_heard = 0;  // same-tile PRESENT count
  std::uint8_t armed_dirs = 0;      // boundary relay: bitmask of directions

  [[nodiscard]] bool holds(std::size_t slot) const { return (slot_mask >> slot) & 1u; }
};

class ConstructEngine {
 public:
  ConstructEngine(const GeoGraph& net, TileWindow window, bool nn_mode,
                  std::size_t required_slots, std::size_t occupancy_cap)
      : net_(&net),
        window_(window),
        nn_mode_(nn_mode),
        required_slots_(required_slots),
        occupancy_cap_(occupancy_cap),
        radio_(net) {}

  void set_roles(const std::vector<TileRole>& roles) {
    state_.assign(net_->size(), NodeState{});
    for (std::uint32_t v = 0; v < net_->size(); ++v) {
      const auto [tile, mask] = roles[v];
      NodeState& st = state_[v];
      st.tile = tile;
      if (tile == kNoNode) continue;
      st.slot_mask = static_cast<std::uint16_t>(mask);
      for (std::uint8_t slot = 0; slot < 9; ++slot) {
        if (st.holds(slot)) st.best[slot] = v;
      }
    }
  }

  ConstructOutcome run() {
    ConstructOutcome result;
    outcome_ = &result;
    result.leaders.assign(window_.tile_count(), kNoLeaders);
    result.tile_good.assign(window_.tile_count(), 0);

    // --- Phase 1: elections (and PRESENT counting for the NN cap) ---
    for (std::uint32_t v = 0; v < net_->size(); ++v) {
      const NodeState& st = state_[v];
      if (st.tile == kNoNode) continue;
      if (nn_mode_) radio_.broadcast({v, 0, kPresent, st.tile, 0, 0, 0});
      for (std::uint8_t slot = 0; slot < 9; ++slot) {
        if (st.holds(slot)) radio_.broadcast({v, 0, kElect, st.tile, slot, v, 0});
      }
    }
    drain();
    result.election_messages = radio_.messages_sent();

    // --- Phase 2: leaders announce; NN E relays forward C announcements ---
    for (std::uint32_t v = 0; v < net_->size(); ++v) {
      NodeState& st = state_[v];
      for (std::uint8_t slot = 0; slot < 9; ++slot) {
        if (st.best[slot] == v) {
          result.leaders[st.tile][slot] = v;
          st.heard[slot] = v;
          radio_.broadcast({v, 0, kLeader, st.tile, slot, v, 0});
        }
      }
    }
    drain();

    // --- Phase 3: reps decide goodness locally (P4) and connect chains ---
    for (std::size_t tile = 0; tile < window_.tile_count(); ++tile) {
      const std::uint32_t rep = result.leaders[tile][0];
      if (rep == kNoNode) continue;
      NodeState& rs = state_[rep];
      bool good = true;
      for (std::size_t slot = 0; slot < required_slots_; ++slot) {
        if (rs.heard[slot] == kNoNode) good = false;
      }
      if (nn_mode_ && rs.present_heard + 1 > occupancy_cap_) good = false;
      if (!good) continue;
      result.tile_good[tile] = 1;
      for (std::uint8_t dir = 0; dir < 4; ++dir) {
        const std::uint8_t first_slot = exit_slots(rs.heard, dir).slot[0];
        send_connect(rep, static_cast<std::uint32_t>(tile), first_slot, dir,
                     rs.heard[first_slot]);
      }
    }
    // XHELLO/XACK handshakes complete inside the same drain.
    drain();

    result.control_messages = radio_.messages_sent() - result.election_messages;
    result.energy = radio_.total_energy();
    std::sort(result.edges.begin(), result.edges.end());
    result.edges.erase(std::unique(result.edges.begin(), result.edges.end()),
                       result.edges.end());
    outcome_ = nullptr;
    return result;
  }

 private:
  /// Deliver until quiescent: the end of a phase.
  void drain() {
    radio_.run([this](const Message& m) { on_receive(m); });
  }

  void record_edge(std::uint32_t a, std::uint32_t b) {
    if (a == b) return;
    if (a > b) std::swap(a, b);
    outcome_->edges.emplace_back(a, b);
  }

  /// Issue a CONNECT from `from` to leader `target` for (tile, slot, dir);
  /// handles the same-node shortcut and counts unreachable targets.
  void send_connect(std::uint32_t from, std::uint32_t tile, std::uint8_t slot, std::uint8_t dir,
                    std::uint32_t target) {
    if (target == kNoNode) return;
    if (target == from) {
      on_connect(target, tile, slot, dir);
      return;
    }
    if (!net_->graph.has_edge(from, target)) {
      ++outcome_->failed_connects;
      return;
    }
    radio_.unicast({from, target, kConnect, tile, slot, dir, 0});
    record_edge(from, target);
  }

  /// CONNECT arrived at `v` for (tile, slot): pass it to the next slot of
  /// the exit chain (NN E relay) or, at the chain's end, arm the boundary
  /// handshake (UDG relay / NN C relay). A node can relay for two adjacent
  /// directions (overlapping lenses), so arming is tracked per direction.
  void on_connect(std::uint32_t v, std::uint32_t tile, std::uint8_t slot, std::uint8_t dir) {
    NodeState& st = state_[v];
    const ExitSlots chain = exit_slots(st.heard, dir);
    const std::uint8_t* at = std::find(chain.begin(), chain.end(), slot);
    if (at != chain.end() && at + 1 != chain.end()) {
      send_connect(v, tile, at[1], dir, st.heard[at[1]]);
      return;
    }
    if (st.armed_dirs & (1u << dir)) return;  // duplicate CONNECT
    st.armed_dirs = static_cast<std::uint8_t>(st.armed_dirs | (1u << dir));
    radio_.broadcast({v, 0, kXHello, tile, dir, 0, 0});
  }

  /// True when tile_b is tile_a's lattice neighbor in direction dir_a and
  /// dir_b points back.
  [[nodiscard]] bool facing(std::uint32_t tile_a, std::uint8_t dir_a, std::uint32_t tile_b,
                            std::uint8_t dir_b) const {
    if (dir_b != static_cast<std::uint8_t>(opposite_dir(dir_a))) return false;
    const auto w = static_cast<std::int64_t>(window_.width);
    const std::int64_t ax = tile_a % w;
    const std::int64_t ay = tile_a / w;
    const std::int64_t bx = tile_b % w;
    const std::int64_t by = tile_b / w;
    const std::int64_t dx = static_cast<std::int64_t>(kDirVec[dir_a].x);
    const std::int64_t dy = static_cast<std::int64_t>(kDirVec[dir_a].y);
    return bx == ax + dx && by == ay + dy;
  }

  void on_receive(const Message& m) {
    NodeState& st = state_[m.to];
    switch (m.kind) {
      case kPresent: {
        if (st.tile != kNoNode && st.tile == static_cast<std::uint32_t>(m.a)) ++st.present_heard;
        return;
      }
      case kElect: {
        const auto slot = static_cast<std::size_t>(m.b);
        // Not a member of this region.
        if (st.tile != static_cast<std::uint32_t>(m.a) || !st.holds(slot)) return;
        if (static_cast<std::uint32_t>(m.c) < st.best[slot]) {
          st.best[slot] = static_cast<std::uint32_t>(m.c);
          radio_.broadcast({m.to, 0, kElect, m.a, m.b, m.c, 0});
        }
        return;
      }
      case kLeader:
      case kForward: {
        if (st.tile != static_cast<std::uint32_t>(m.a)) return;
        const auto slot = static_cast<std::size_t>(m.b);
        if (st.heard[slot] != kNoNode) return;
        st.heard[slot] = static_cast<std::uint32_t>(m.c);
        if (nn_mode_ && m.kind == kLeader && slot >= 1 && slot <= 4) {
          // An E relay of the same direction forwards the C announcement
          // toward the representative (C disks are out of the rep's reach).
          if (st.holds(slot + 4)) radio_.broadcast({m.to, 0, kForward, m.a, m.b, m.c, 0});
        }
        return;
      }
      case kConnect: {
        on_connect(m.to, static_cast<std::uint32_t>(m.a), static_cast<std::uint8_t>(m.b),
                   static_cast<std::uint8_t>(m.c));
        return;
      }
      case kXHello: {
        // Both endpoints broadcast XHELLO on arming, so whichever arms last
        // finds the other ready; no pending queue is needed.
        if (st.armed_dirs == 0 || st.tile == kNoNode) return;
        const auto want = static_cast<std::uint8_t>(opposite_dir(static_cast<int>(m.b)));
        if (!(st.armed_dirs & (1u << want))) return;
        if (!facing(static_cast<std::uint32_t>(m.a), static_cast<std::uint8_t>(m.b), st.tile,
                    want))
          return;
        record_edge(m.to, m.from);
        radio_.unicast({m.to, m.from, kXAck, st.tile, want, 0, 0});
        return;
      }
      case kXAck: {
        record_edge(m.to, m.from);
        return;
      }
      default:
        return;
    }
  }

  const GeoGraph* net_;
  TileWindow window_;
  bool nn_mode_;
  std::size_t required_slots_;
  std::size_t occupancy_cap_;
  Radio radio_;
  std::vector<NodeState> state_;
  ConstructOutcome* outcome_ = nullptr;
};

}  // namespace

std::size_t ConstructOutcome::good_count() const {
  return static_cast<std::size_t>(
      std::count(tile_good.begin(), tile_good.end(), std::uint8_t{1}));
}

ConstructOutcome run_udg_construction(const GeoGraph& udg, const UdgTileSpec& spec,
                                      TileWindow window) {
  ConstructEngine engine(udg, window, /*nn_mode=*/false, /*required_slots=*/5,
                         /*occupancy_cap=*/0);
  // Role assignment is the shared role pass of tile classification; the
  // protocol itself stays sequential (one FIFO of radio sends).
  engine.set_roles(tile_roles(spec, udg.points, window));
  return engine.run();
}

ConstructOutcome run_nn_construction(const GeoGraph& knn, const NnTileSpec& spec,
                                     TileWindow window) {
  ConstructEngine engine(knn, window, /*nn_mode=*/true, /*required_slots=*/9,
                         spec.max_occupancy());
  engine.set_roles(tile_roles(spec, knn.points, window));
  return engine.run();
}

}  // namespace sens
