// Ablation A4: ERR in its native habitat — wormhole switches where
// downstream congestion decouples occupancy time from packet length.
//
// Panel 1 (single switch): two saturated inputs, one sending 12-flit
// packets and one sending 3-flit packets, through an output that stalls
// randomly (downstream congestion).  Cycle-charging ERR equalizes
// *occupancy*; flit-charging ERR equalizes flits (and therefore lets the
// long-packet input hold the output longer); RR and FCFS do neither.
//
// Panel 2 (4x4 mesh, hot ejection port): every node floods node 0; odd
// sources use 16-flit packets, even sources 4-flit packets.  Fairness of
// delivered flits across the 15 sources (Jain index) under each VA
// arbiter, plus mean packet latency.
#include <cmath>
#include <cstdio>
#include <iostream>
#include <vector>

#include "common/cli.hpp"
#include "common/csv.hpp"
#include "common/table.hpp"
#include "metrics/jain.hpp"
#include "wormhole/network.hpp"
#include "wormhole/switch.hpp"

using namespace wormsched;
using namespace wormsched::wormhole;
using metrics::jain_index;

namespace {

void single_switch_panel(Cycle cycles, AsciiTable& table, CsvWriter& csv) {
  for (const char* arbiter : {"err-cycles", "err-flits", "rr", "fcfs"}) {
    SwitchConfig config;
    config.num_inputs = 2;
    config.arbiter = arbiter;
    // Input 0's packets head towards a congested downstream path: while
    // one of them owns the output it stalls 50% of the cycles.  Input 1's
    // path is clear.  Packet lengths are equal (4 flits), so any
    // difference between cycle- and flit-charging is purely the stalls.
    config.per_input_stall = {0.5, 0.0};
    config.seed = 11;
    WormholeSwitch sw(config);
    // Saturate both inputs with interleaved arrivals.
    const int packets = static_cast<int>(cycles / 4) + 1;
    for (int k = 0; k < packets; ++k) {
      sw.inject(0, FlowId(0), 4);
      sw.inject(0, FlowId(1), 4);
    }
    for (Cycle t = 0; t < cycles; ++t) sw.tick(t);

    const auto occ0 = static_cast<double>(sw.occupancy_cycles(FlowId(0)));
    const auto occ1 = static_cast<double>(sw.occupancy_cycles(FlowId(1)));
    const auto fl0 = static_cast<double>(sw.forwarded_flits(FlowId(0)));
    const auto fl1 = static_cast<double>(sw.forwarded_flits(FlowId(1)));
    table.add_row(arbiter, fixed(occ0 / (occ0 + occ1), 3),
                  fixed(fl0 / (fl0 + fl1), 3), fixed(occ0 / occ1, 2),
                  fixed(fl0 / fl1, 2));
    csv.row("switch", arbiter, occ0 / (occ0 + occ1), fl0 / (fl0 + fl1));
  }
}

void mesh_panel(Cycle cycles, AsciiTable& table, CsvWriter& csv) {
  for (const char* arbiter : {"err-cycles", "err-flits", "rr", "fcfs"}) {
    NetworkConfig config;
    config.topo = TopologySpec::mesh(4, 4);
    config.router.arbiter = arbiter;
    config.router.buffer_depth = 8;
    Network net(config);
    Rng rng(13);
    PacketId::rep_type id = 0;
    const Cycle inject_until = cycles * 3 / 4;
    for (Cycle t = 0; t < cycles; ++t) {
      if (t < inject_until) {
        for (std::uint32_t n = 1; n < 16; ++n) {
          // Hot ejection port at node 0; rate well past its capacity so
          // the VA arbiters along the tree decide the shares.
          if (!rng.bernoulli(0.08)) continue;
          PacketDescriptor pkt;
          pkt.id = PacketId(id++);
          pkt.flow = FlowId(n);
          pkt.source = NodeId(n);
          pkt.dest = NodeId(0);
          pkt.length = (n % 2 == 1) ? 16 : 4;
          pkt.created = t;
          net.inject(t, pkt);
        }
      }
      net.tick(t);
    }
    const auto flits = net.delivered_flits_by_flow(16);
    std::vector<double> shares;
    for (std::uint32_t n = 1; n < 16; ++n)
      shares.push_back(static_cast<double>(flits[n]));
    double odd = 0.0;
    double even = 0.0;
    for (std::uint32_t n = 1; n < 16; ++n)
      (n % 2 == 1 ? odd : even) += static_cast<double>(flits[n]);
    table.add_row(arbiter, fixed(jain_index(shares), 4),
                  fixed(odd / even, 2),
                  fixed(net.latency_overall().mean(), 1),
                  static_cast<long long>(net.delivered().size()));
    csv.row("mesh", arbiter, jain_index(shares), odd / even);
  }
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("Ablation A4: ERR arbitration inside wormhole switches");
  cli.add_option("switch-cycles", "single-switch run length", "200000");
  cli.add_option("mesh-cycles", "mesh run length", "100000");
  cli.add_option("csv", "output CSV path", "wormhole_network.csv");
  cli.parse(argc, argv);

  CsvWriter csv(cli.get("csv"));
  csv.header({"panel", "arbiter", "metric1", "metric2"});

  AsciiTable sw_table(
      "A4 panel 1: single wormhole switch; input 0's downstream path "
      "stalls 50% of cycles,\ninput 1's never; equal 4-flit packets, both "
      "inputs saturated");
  sw_table.set_header({"arbiter", "occupancy share in0", "flit share in0",
                       "occ in0/in1", "flits in0/in1"});
  single_switch_panel(cli.get_uint("switch-cycles"), sw_table, csv);
  sw_table.print(std::cout);
  std::cout
      << "(err-cycles: occupancy shares equalize at 0.5, so the stalled "
         "flow pays for its\n congestion with fewer flits; err-flits / rr / "
         "fcfs: flit shares equalize at 0.5,\n letting the stalled flow "
         "consume ~2/3 of the output's time — the unfairness the\n paper's "
         "occupancy argument (Sec. 1) is about)\n\n";

  AsciiTable mesh_table(
      "A4 panel 2: 4x4 mesh, all nodes flooding node 0\n"
      "odd sources: 16-flit packets, even sources: 4-flit packets");
  mesh_table.set_header({"arbiter", "Jain(delivered flits)", "odd/even flits",
                         "mean latency", "packets"});
  mesh_panel(cli.get_uint("mesh-cycles"), mesh_table, csv);
  mesh_table.print(std::cout);
  std::printf("wrote %s\n", cli.get("csv").c_str());
  return 0;
}
