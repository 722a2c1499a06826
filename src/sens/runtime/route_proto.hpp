// Packet routing on the SENS overlay through the overlay radio
// (Figure 9 made concrete).
//
// Route *decisions* come from sens/core/sens_router.hpp — the faithful
// implementation of the Angel et al. algorithm including its probe
// accounting. This layer executes a decided route as real traffic on the
// overlay radio: one DATA unicast per overlay edge of the node path, plus a
// PROBE/PROBE_ACK message pair per mesh-router openness query (the "ask the
// relevant relay whether it has a neighbour in the target tile" exchange of
// Section 4.2), so message counts and per-node energy reflect what a
// deployment would pay end to end.
#pragma once

#include <cstdint>

#include "sens/core/overlay.hpp"
#include "sens/core/sens_router.hpp"
#include "sens/runtime/radio.hpp"

namespace sens {

struct RouteTrafficReport {
  bool success = false;
  std::size_t data_messages = 0;
  std::size_t probe_messages = 0;
  std::size_t total_messages = 0;
  double energy = 0.0;        ///< transmit energy, beta from the radio
  std::size_t node_hops = 0;
  std::size_t tile_hops = 0;
  std::size_t probes = 0;     ///< mesh-router openness queries
};

class RoutingProtocol {
 public:
  /// `overlay` must outlive the protocol. beta is the radio power exponent.
  explicit RoutingProtocol(const Overlay& overlay, double beta = 2.0);

  /// Route one packet between the representatives of two good tiles and
  /// account every message it generates.
  [[nodiscard]] RouteTrafficReport send_packet(Site src, Site dst);

  [[nodiscard]] double total_energy() const { return radio_.total_energy(); }
  [[nodiscard]] std::size_t messages_sent() const { return radio_.messages_sent(); }

 private:
  const Overlay* overlay_;
  SensRouter router_;
  Radio radio_;
};

}  // namespace sens
