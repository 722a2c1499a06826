#include "sens/runtime/route_proto.hpp"

namespace sens {

namespace {
enum MsgKind : std::uint32_t {
  kData = 1,
  kProbe = 2,
  kProbeAck = 3,
};
}  // namespace

RoutingProtocol::RoutingProtocol(const Overlay& overlay, double beta)
    : overlay_(&overlay), router_(overlay), radio_(overlay.geo, beta) {}

RouteTrafficReport RoutingProtocol::send_packet(Site src, Site dst) {
  RouteTrafficReport report;
  const std::size_t messages_before = radio_.messages_sent();
  const double energy_before = radio_.total_energy();

  const SensRoute route = router_.route(src, dst);
  report.probes = route.probes;
  report.tile_hops = route.tile_hops;
  if (!route.success) return report;
  report.node_hops = route.node_hops();

  // A relay chain can be unrealizable when the tile spec lacks the
  // worst-case guarantee (paper preset, DESIGN.md §1.1): the packet is then
  // undeliverable over the radio and the route fails here rather than
  // pretending.
  for (std::size_t i = 1; i < route.node_path.size(); ++i) {
    if (!overlay_->geo.graph.has_edge(route.node_path[i - 1], route.node_path[i])) return report;
  }

  // Openness queries: the packet holder asks its boundary relay, which
  // answers after its cross-tile handshake state — one request + one reply
  // per probe, charged on the current tile's relay pair. We bill them as a
  // pair of messages at nominal relay range (the overlay edge adjacent to
  // the probing hop when available, else the first overlay edge).
  for (std::size_t p = 0; p < route.probes; ++p) {
    const std::size_t i = std::min(p, route.node_path.size() >= 2
                                          ? route.node_path.size() - 2
                                          : std::size_t{0});
    if (route.node_path.size() >= 2) {
      radio_.unicast({route.node_path[i], route.node_path[i + 1], kProbe, 0, 0, 0, 0});
      radio_.unicast({route.node_path[i + 1], route.node_path[i], kProbeAck, 0, 0, 0, 0});
      report.probe_messages += 2;
    }
  }

  // The data packet itself.
  for (std::size_t i = 1; i < route.node_path.size(); ++i) {
    radio_.unicast({route.node_path[i - 1], route.node_path[i], kData,
                    static_cast<std::int64_t>(i), 0, 0, 0});
    ++report.data_messages;
  }
  radio_.run([](const Message&) { /* deliveries are fire-and-forget */ });

  report.success = true;
  report.total_messages = radio_.messages_sent() - messages_before;
  report.energy = radio_.total_energy() - energy_before;
  return report;
}

}  // namespace sens
