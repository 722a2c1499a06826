// Tests for the runtime layer: the radio's send-order delivery and its
// accounting, the Figure-7 construction protocol (including bit-exact
// equivalence with the centralized builder under the strict spec, up to a
// ~10^5-node window) and the Figure-9 routing traffic accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sens/core/udg_sens.hpp"
#include "sens/core/nn_sens.hpp"
#include "sens/geograph/knn.hpp"
#include "sens/geograph/udg.hpp"
#include "sens/runtime/construct.hpp"
#include "sens/runtime/radio.hpp"
#include "sens/runtime/route_proto.hpp"

namespace sens {
namespace {

GeoGraph line_graph() {
  GeoGraph g;
  g.points = {{0.0, 0.0}, {1.0, 0.0}, {1.0, 2.0}};
  g.graph = CsrGraph::from_edges(3, {{0, 1}, {1, 2}});
  return g;
}

/// Node 0 with three neighbors, plus the link 1-2.
GeoGraph star_graph() {
  GeoGraph g;
  g.points = {{0.0, 0.0}, {1.0, 0.0}, {0.0, 1.0}, {-1.0, 0.0}};
  g.graph = CsrGraph::from_edges(4, {{0, 3}, {1, 2}, {0, 1}, {0, 2}});
  return g;
}

/// (from, to) of each delivery, in delivery order.
using Trace = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

TEST(RadioTest, UnicastDeliversAndCharges) {
  const GeoGraph net = line_graph();
  Radio radio(net, 2.0);
  std::vector<Message> inbox;
  radio.unicast({0, 1, 42, 7, 0, 0, 0});
  radio.run([&](const Message& m) { inbox.push_back(m); });
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
  Radio radio(net);
  EXPECT_THROW(radio.unicast({0, 2, 1, 0, 0, 0, 0}), std::logic_error);
}

TEST(RadioTest, BroadcastReachesAllNeighborsAtMaxRange) {
  const GeoGraph net = line_graph();
  Radio radio(net, 2.0);
  int received = 0;
  radio.broadcast({1, 0, 5, 0, 0, 0, 0});
  radio.run([&](const Message& m) {
    ++received;
    EXPECT_EQ(m.from, 1u);
  });
  EXPECT_EQ(received, 2);
  EXPECT_EQ(radio.messages_sent(), 1u);        // one transmission
  EXPECT_DOUBLE_EQ(radio.node_energy(1), 4.0); // farthest neighbor at d = 2
}

TEST(RadioTest, BetaExponentRespected) {
  const GeoGraph net = line_graph();
  Radio radio(net, 4.0);
  radio.unicast({1, 2, 1, 0, 0, 0, 0});
  EXPECT_DOUBLE_EQ(radio.node_energy(1), 16.0);  // 2^4
}

// The order below is the one a (time, sequence) event queue gives when
// every send has the same latency; the Figure-7 protocol's outcome
// depends on it.

TEST(RadioTest, BroadcastDeliversInCsrOrder) {
  const GeoGraph net = star_graph();
  Radio radio(net);
  Trace trace;
  radio.broadcast({0, 0, 1, 0, 0, 0, 0});
  radio.run([&](const Message& m) { trace.emplace_back(m.from, m.to); });
  Trace want;
  for (const std::uint32_t v : net.graph.neighbors(0)) want.emplace_back(0, v);
  ASSERT_EQ(want.size(), 3u);
  EXPECT_EQ(trace, want);
}

TEST(RadioTest, ReplyQueuesBehindEarlierSends) {
  const GeoGraph net = star_graph();
  Radio radio(net);
  constexpr std::uint32_t kPing = 1;
  constexpr std::uint32_t kQuiet = 2;
  Trace trace;
  radio.broadcast({0, 0, kPing, 0, 0, 0, 0});
  radio.unicast({1, 2, kQuiet, 0, 0, 0, 0});
  radio.run([&](const Message& m) {
    trace.emplace_back(m.from, m.to);
    if (m.kind == kPing) radio.unicast({m.to, m.from, kQuiet, 0, 0, 0, 0});
  });
  // Replies queue behind the rest of the broadcast and behind the unicast
  // sent before the run.
  EXPECT_EQ(trace, (Trace{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 0}, {2, 0}, {3, 0}}));
  EXPECT_EQ(radio.messages_sent(), 5u);
}

TEST(RadioTest, UnicastsAndBroadcastsInterleaveInSendOrder) {
  const GeoGraph net = star_graph();
  Radio radio(net);
  Trace trace;
  radio.unicast({1, 2, 1, 0, 0, 0, 0});
  radio.broadcast({3, 0, 1, 0, 0, 0, 0});
  radio.unicast({0, 1, 1, 0, 0, 0, 0});
  radio.broadcast({2, 0, 1, 0, 0, 0, 0});
  radio.run([&](const Message& m) { trace.emplace_back(m.from, m.to); });
  EXPECT_EQ(trace, (Trace{{1, 2}, {3, 0}, {0, 1}, {2, 0}, {2, 1}}));
}

TEST(RadioTest, RunThrowsPastMaxSends) {
  const GeoGraph net = line_graph();
  Radio radio(net);
  std::size_t delivered = 0;
  radio.unicast({0, 1, 1, 0, 0, 0, 0});
  // Ping-pong never quiesces: the guard must throw, not return.
  EXPECT_THROW(radio.run(
                   [&](const Message& m) {
                     ++delivered;
                     radio.unicast({m.to, m.from, m.kind, 0, 0, 0, 0});
                   },
                   10),
               std::runtime_error);
  EXPECT_EQ(delivered, 10u);
}

/// The centralized overlay's edges as sorted base-point id pairs (u < v),
/// the form ConstructOutcome::edges uses.
std::vector<std::pair<std::uint32_t, std::uint32_t>> base_edges(const Overlay& overlay) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (const auto& [u, v] : overlay.geo.graph.edge_list()) {
    auto a = overlay.base_index[u];
    auto b = overlay.base_index[v];
    if (a > b) std::swap(a, b);
    edges.emplace_back(a, b);
  }
  std::sort(edges.begin(), edges.end());
  return edges;
}

/// Every message the protocol sent: election plus control.
std::size_t total_messages(const ConstructOutcome& o) {
  return o.election_messages + o.control_messages;
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
  EXPECT_EQ(proto.edges, base_edges(central.overlay));
  EXPECT_EQ(proto.failed_connects, 0u);
  EXPECT_GT(total_messages(proto), 0u);
  EXPECT_GT(proto.energy, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConstructEquivalenceTest, ::testing::Range<std::uint64_t>(1, 6));

TEST(ConstructProtocol, StrictUdgMatchesCentralizedAt100kNodes) {
  // P4 at scale: a 76 x 76 tile window holds ~1.0e5 nodes at lambda = 25.
  const UdgTileSpec spec = UdgTileSpec::strict();
  const UdgSensResult central = build_udg_sens(spec, 25.0, 76, 76, 1);
  ASSERT_GE(central.points.points.size(), 100'000u);
  const GeoGraph udg =
      build_udg(central.points.points, central.points.window, spec.link_radius);
  const ConstructOutcome proto =
      run_udg_construction(udg, spec, central.classification.window);

  EXPECT_EQ(proto.tile_good, central.classification.good);
  std::size_t leader_mismatches = 0;
  for (std::size_t i = 0; i < proto.tile_good.size(); ++i) {
    if (!proto.tile_good[i]) continue;
    leader_mismatches += proto.leaders[i] != central.classification.leaders[i];
  }
  EXPECT_EQ(leader_mismatches, 0u);
  EXPECT_GT(proto.good_count(), 0u);
  EXPECT_EQ(proto.edges, base_edges(central.overlay));
  EXPECT_EQ(proto.failed_connects, 0u);
}

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
      static_cast<double>(total_messages(proto_s)) / static_cast<double>(udg_s.size());
  const double per_node_l =
      static_cast<double>(total_messages(proto_l)) / static_cast<double>(udg_l.size());
  EXPECT_GT(total_messages(proto_l), total_messages(proto_s));
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
