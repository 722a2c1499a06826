// E14 — Figure 9 as traffic: per-packet message and energy budgets of
// routing on the SENS overlay through the runtime's overlay radio.
#include "bench_common.hpp"
#include "sens/core/udg_sens.hpp"
#include "sens/rng/rng.hpp"
#include "sens/runtime/route_proto.hpp"
#include "sens/support/stats.hpp"

using namespace sens;
using namespace sens::bench;

int main(int argc, char** argv) {
  BenchEnv env = BenchEnv::parse(argc, argv);
  env.header("E14 / Figure 9 (routing protocol traffic)",
             "per-packet cost = data hops + probe exchanges; energy = sum d^beta");

  const int tiles = env.scale > 1 ? 64 : 40;
  const UdgSensResult r = build_udg_sens(UdgTileSpec::strict(), 25.0, tiles, tiles, env.seed);
  const auto reps = r.overlay.giant_rep_sites();

  RoutingProtocol proto(r.overlay, 2.0);
  Rng pick = Rng::stream(env.seed, 0xf19);
  RunningStats data_msgs, probe_msgs, energy, node_hops, per_tile;
  std::size_t failures = 0;
  const std::size_t packets = 50 * env.scale;
  for (std::size_t i = 0; i < packets; ++i) {
    const Site a = reps[pick.uniform_index(reps.size())];
    const Site b = reps[pick.uniform_index(reps.size())];
    if (lattice_distance(a, b) < 4) continue;
    const RouteTrafficReport rep = proto.send_packet(a, b);
    if (!rep.success) {
      ++failures;
      continue;
    }
    data_msgs.add(static_cast<double>(rep.data_messages));
    probe_msgs.add(static_cast<double>(rep.probe_messages));
    energy.add(rep.energy);
    node_hops.add(static_cast<double>(rep.node_hops));
    per_tile.add(static_cast<double>(rep.total_messages) /
                 static_cast<double>(std::max<std::size_t>(1, rep.tile_hops)));
  }

  Table t({"metric", "mean", "min", "max"});
  auto row = [&](const std::string& name, const RunningStats& s) {
    t.add_row({name, Table::fmt(s.mean(), 4), Table::fmt(s.min(), 4), Table::fmt(s.max(), 4)});
  };
  row("data messages / packet", data_msgs);
  row("probe messages / packet", probe_msgs);
  row("transmit energy / packet (beta=2)", energy);
  row("node hops / packet", node_hops);
  row("total messages per tile hop", per_tile);
  env.emit("per-packet traffic over " + Table::fmt_int(static_cast<long long>(data_msgs.count())) +
               " delivered packets (failures: " + Table::fmt_int(static_cast<long long>(failures)) + ")",
           t);

  std::cout << "cumulative network energy: " << Table::fmt(proto.total_energy(), 5)
            << " (messages: " << proto.messages_sent() << ")\n\n";
  env.footer();
  return 0;
}
