// Tests for the discrete-event runtime: simulator, radio, the Figure-7
// construction protocol (including bit-exact equivalence with the
// centralized builder under the strict spec) and the Figure-9 routing
// traffic accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "sens/core/udg_sens.hpp"
#include "sens/core/nn_sens.hpp"
#include "sens/geograph/knn.hpp"
#include "sens/geograph/udg.hpp"
#include "sens/runtime/construct.hpp"
#include "sens/runtime/radio.hpp"
#include "sens/runtime/route_proto.hpp"
#include "sens/runtime/sim.hpp"

namespace sens {
namespace {

TEST(SimulatorTest, OrdersByTimeThenSequence) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(2.0, [&] { order.push_back(2); });
  sim.schedule(1.0, [&] { order.push_back(1); });
  sim.schedule(1.0, [&] { order.push_back(11); });  // same time: insertion order
  sim.schedule(0.5, [&] { order.push_back(0); });
  EXPECT_EQ(sim.run(), 4u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 11, 2}));
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  EXPECT_TRUE(sim.idle());
}

TEST(SimulatorTest, NestedScheduling) {
  Simulator sim;
  int fired = 0;
  sim.schedule(1.0, [&] {
    ++fired;
    sim.schedule(1.0, [&] { ++fired; });
  });
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
  EXPECT_THROW(sim.schedule(-1.0, [] {}), std::invalid_argument);
}

TEST(SimulatorTest, MaxEventsGuard) {
  Simulator sim;
  std::function<void()> loop = [&] { sim.schedule(1.0, loop); };
  sim.schedule(0.0, loop);
  EXPECT_EQ(sim.run(100), 100u);
}

GeoGraph line_graph() {
  GeoGraph g;
  g.points = {{0.0, 0.0}, {1.0, 0.0}, {1.0, 2.0}};
  g.graph = CsrGraph::from_edges(3, {{0, 1}, {1, 2}});
  return g;
}

TEST(RadioTest, UnicastDeliversAndCharges) {
  const GeoGraph net = line_graph();
  Simulator sim;
  Radio radio(net, sim, 2.0);
  std::vector<Message> inbox;
  radio.set_receiver([&](const Message& m) { inbox.push_back(m); });
  radio.unicast({0, 1, 42, 7, 0, 0, 0});
  sim.run();
  ASSERT_EQ(inbox.size(), 1u);
  EXPECT_EQ(inbox[0].kind, 42u);
  EXPECT_EQ(inbox[0].a, 7);
  EXPECT_EQ(radio.messages_sent(), 1u);
  EXPECT_DOUBLE_EQ(radio.node_energy(0), 1.0);  // d = 1, beta = 2
  EXPECT_DOUBLE_EQ(radio.node_energy(1), 0.0);
  EXPECT_DOUBLE_EQ(radio.total_energy(), 1.0);
}

TEST(RadioTest, UnicastRequiresLink) {
  const GeoGraph net = line_graph();
  Simulator sim;
  Radio radio(net, sim);
  EXPECT_THROW(radio.unicast({0, 2, 1, 0, 0, 0, 0}), std::logic_error);
}

TEST(RadioTest, BroadcastReachesAllNeighborsAtMaxRange) {
  const GeoGraph net = line_graph();
  Simulator sim;
  Radio radio(net, sim, 2.0);
  int received = 0;
  radio.set_receiver([&](const Message& m) {
    ++received;
    EXPECT_EQ(m.from, 1u);
  });
  radio.broadcast({1, 0, 5, 0, 0, 0, 0});
  sim.run();
  EXPECT_EQ(received, 2);
  EXPECT_EQ(radio.messages_sent(), 1u);        // one transmission
  EXPECT_DOUBLE_EQ(radio.node_energy(1), 4.0); // farthest neighbor at d = 2
}

TEST(RadioTest, BetaExponentRespected) {
  const GeoGraph net = line_graph();
  Simulator sim;
  Radio radio(net, sim, 4.0);
  radio.unicast({1, 2, 1, 0, 0, 0, 0});
  EXPECT_DOUBLE_EQ(radio.node_energy(1), 16.0);  // 2^4
}

// --- Figure 7 protocol ---

class ConstructEquivalenceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConstructEquivalenceTest, UdgStrictProtocolMatchesCentralized) {
  const UdgTileSpec spec = UdgTileSpec::strict();
  const UdgSensResult central = build_udg_sens(spec, 25.0, 8, 8, GetParam());
  const GeoGraph udg =
      build_udg(central.points.points, central.points.window, spec.link_radius);
  const ConstructOutcome proto =
      run_udg_construction(udg, spec, central.classification.window);

  // Goodness decisions agree tile by tile (P4 holds for the strict spec).
  ASSERT_EQ(proto.tile_good.size(), central.classification.good.size());
  for (std::size_t i = 0; i < proto.tile_good.size(); ++i)
    EXPECT_EQ(proto.tile_good[i], central.classification.good[i]) << "tile " << i;

  // Elected leaders agree on good tiles, all nine slots (flood-min == min
  // index; the NN-only slots stay empty on both sides).
  for (std::size_t i = 0; i < proto.tile_good.size(); ++i) {
    if (!proto.tile_good[i]) continue;
    EXPECT_EQ(proto.leaders[i], central.classification.leaders[i]) << "tile " << i;
  }

  // Overlay edges agree exactly (compared in base-point ids).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> central_edges;
  for (const auto& [u, v] : central.overlay.geo.graph.edge_list()) {
    auto a = central.overlay.base_index[u];
    auto b = central.overlay.base_index[v];
    if (a > b) std::swap(a, b);
    central_edges.emplace_back(a, b);
  }
  std::sort(central_edges.begin(), central_edges.end());
  EXPECT_EQ(proto.edges, central_edges);
  EXPECT_EQ(proto.failed_connects, 0u);
  EXPECT_GT(proto.total_messages(), 0u);
  EXPECT_GT(proto.energy, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConstructEquivalenceTest, ::testing::Range<std::uint64_t>(1, 6));

TEST(ConstructProtocol, MessageCostScalesWithNodes) {
  const UdgTileSpec spec = UdgTileSpec::strict();
  const UdgSensResult small = build_udg_sens(spec, 25.0, 5, 5, 3);
  const UdgSensResult large = build_udg_sens(spec, 25.0, 10, 10, 3);
  const GeoGraph udg_s = build_udg(small.points.points, small.points.window, 1.0);
  const GeoGraph udg_l = build_udg(large.points.points, large.points.window, 1.0);
  const auto proto_s = run_udg_construction(udg_s, spec, small.classification.window);
  const auto proto_l = run_udg_construction(udg_l, spec, large.classification.window);
  // Messages grow with network size but stay locally bounded: the per-node
  // budget is O(region size), not O(network size).
  const double per_node_s =
      static_cast<double>(proto_s.total_messages()) / static_cast<double>(udg_s.size());
  const double per_node_l =
      static_cast<double>(proto_l.total_messages()) / static_cast<double>(udg_l.size());
  EXPECT_GT(proto_l.total_messages(), proto_s.total_messages());
  EXPECT_LT(per_node_l, per_node_s * 2.5);
}

TEST(ConstructProtocol, NnProtocolAgreesOnMostTiles) {
  // The NN goodness rule needs an occupancy count, which the rep estimates
  // from 1-hop PRESENT messages; rare undercounts make this a measured
  // agreement, not an identity (see DESIGN.md).
  const NnTileSpec spec = NnTileSpec::paper();
  const NnSensResult central = build_nn_sens(spec, 6, 6, 11);
  const GeoGraph knn = build_knn_graph(central.points.points, spec.k());
  const ConstructOutcome proto = run_nn_construction(knn, spec, central.classification.window);
  ASSERT_EQ(proto.tile_good.size(), central.classification.good.size());
  std::size_t agree = 0;
  for (std::size_t i = 0; i < proto.tile_good.size(); ++i)
    agree += proto.tile_good[i] == central.classification.good[i];
  EXPECT_GE(static_cast<double>(agree) / static_cast<double>(proto.tile_good.size()), 0.9);
  EXPECT_GT(proto.good_count(), 0u);
}

// --- Figure 9 traffic ---

TEST(RoutingProtocolTest, AccountsTraffic) {
  const UdgSensResult r = build_udg_sens(UdgTileSpec::strict(), 25.0, 16, 16, 5);
  const auto reps = r.overlay.giant_rep_sites();
  ASSERT_GE(reps.size(), 2u);
  RoutingProtocol proto(r.overlay, 2.0);
  const RouteTrafficReport report = proto.send_packet(reps.front(), reps.back());
  ASSERT_TRUE(report.success);
  EXPECT_EQ(report.data_messages, report.node_hops);
  EXPECT_EQ(report.total_messages, report.data_messages + report.probe_messages);
  EXPECT_GT(report.energy, 0.0);
  EXPECT_GE(report.probes, report.tile_hops);
  EXPECT_DOUBLE_EQ(proto.total_energy(), report.energy);
}

TEST(RoutingProtocolTest, EnergyAccumulatesAcrossPackets) {
  const UdgSensResult r = build_udg_sens(UdgTileSpec::strict(), 25.0, 16, 16, 6);
  const auto reps = r.overlay.giant_rep_sites();
  ASSERT_GE(reps.size(), 3u);
  RoutingProtocol proto(r.overlay);
  const auto r1 = proto.send_packet(reps.front(), reps.back());
  const auto r2 = proto.send_packet(reps[1], reps.back());
  ASSERT_TRUE(r1.success);
  ASSERT_TRUE(r2.success);
  EXPECT_NEAR(proto.total_energy(), r1.energy + r2.energy, 1e-9);
  EXPECT_EQ(proto.messages_sent(), r1.total_messages + r2.total_messages);
}

TEST(RoutingProtocolTest, SameTileRouteIsTrivial) {
  const UdgSensResult r = build_udg_sens(UdgTileSpec::strict(), 25.0, 12, 12, 7);
  const auto reps = r.overlay.giant_rep_sites();
  ASSERT_GE(reps.size(), 1u);
  RoutingProtocol proto(r.overlay);
  const auto report = proto.send_packet(reps.front(), reps.front());
  EXPECT_TRUE(report.success);
  EXPECT_EQ(report.node_hops, 0u);
  EXPECT_EQ(report.data_messages, 0u);
}

}  // namespace
}  // namespace sens
