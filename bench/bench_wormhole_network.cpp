// Ablation A4: ERR in its native habitat — wormhole switches where
// downstream congestion decouples occupancy time from packet length.
//
// Panel 1 (one router's output): two saturated inputs of equal 4-flit
// packets contend for the east output of one production Router, whose
// downstream withholds credits while input 0's worm owns the output
// (input 0's path is congested further on).  Cycle-charging ERR
// equalizes *occupancy*; flit-charging ERR, RR and FCFS equalize flits
// and so let the stalled input hold the output longer.
//
// Panel 2 (4x4 mesh, hot ejection port): every node floods node 0; odd
// sources use 16-flit packets, even sources 4-flit packets.  Fairness of
// delivered flits across the 15 sources (Jain index) under each VA
// arbiter, plus mean packet latency.
#include <array>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <vector>

#include "common/cli.hpp"
#include "common/csv.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "metrics/jain.hpp"
#include "wormhole/network.hpp"
#include "wormhole/router.hpp"

using namespace wormsched;
using namespace wormsched::wormhole;
using metrics::jain_index;

namespace {

/// Panel 1's surroundings of one router.  Input 0 arrives on the west
/// link and input 1 from the local NIC; both are kept full of 4-flit
/// packets, and every packet leaves east.  The east output's downstream
/// frees one of the flits it holds per cycle and returns its credit,
/// except that while input 0's worm owns the output it withholds the
/// credit with probability 0.5.  A flit's packet slot names its input.
class StalledOutputEnv final : public RouterEnv {
 public:
  static constexpr Flits kPacketFlits = 4;
  static constexpr std::array<Direction, 2> kInputs = {Direction::kWest,
                                                       Direction::kLocal};

  void send_flit(NodeId, Direction, const Flit& flit) {
    ++flits[flit.slot];
    // The tail's tick ends the hold the cycle count below leaves open.
    if (is_tail(flit.type)) ++occupancy[flit.slot];
  }
  void eject(NodeId, const Flit&, Cycle) {}
  void send_credit(NodeId, Direction, std::uint32_t) {}
  RouteDecision route(NodeId, const Flit&, Direction, std::uint32_t) {
    return RouteDecision{Direction::kEast, 0, false};
  }

  /// One cycle: refill both inputs, let the downstream return a credit,
  /// tick the router, and charge the output's owner for the cycle.  A
  /// packet holds the output from its grant tick through the tick its
  /// tail leaves, as the router charges it.
  void cycle(Router& router, Cycle now) {
    for (std::uint32_t i = 0; i < kInputs.size(); ++i) {
      while (router.input_buffer_size(kInputs[i], 0) <
             router.config().buffer_depth) {
        const auto k = static_cast<std::uint32_t>(fed_[i]++ % kPacketFlits);
        Flit flit;
        flit.slot = i;
        flit.index = k;
        flit.type = k == 0                  ? FlitType::kHead
                    : k + 1 == kPacketFlits ? FlitType::kTail
                                            : FlitType::kBody;
        router.accept_flit(kInputs[i], 0, flit);
      }
    }
    const PortArbiter& output = router.arbiter(Direction::kEast, 0);
    const bool stalled = output.bound() && input_of(router) == 0 &&
                         rng_.bernoulli(0.5);
    if (!stalled &&
        router.output_credits(Direction::kEast, 0) <
            router.config().buffer_depth)
      router.accept_credit(Direction::kEast, 0);
    router.tick(now, *this);
    if (output.bound()) ++occupancy[input_of(router)];
  }

  std::array<std::uint64_t, 2> flits{};
  std::array<std::uint64_t, 2> occupancy{};

 private:
  /// The input whose worm owns the east output.
  static std::uint32_t input_of(const Router& router) {
    const FlowId owner = router.arbiter(Direction::kEast, 0).owner();
    return router.unit_direction(owner.value()) == kInputs[0] ? 0 : 1;
  }

  Rng rng_{11};
  std::array<std::uint64_t, 2> fed_{};
};

void stalled_output_panel(Cycle cycles, AsciiTable& table, CsvWriter& csv) {
  for (const char* arbiter : {"err-cycles", "err-flits", "rr", "fcfs"}) {
    RouterConfig config;
    config.num_vcs = 1;
    config.arbiter = arbiter;
    Router router(NodeId(0), config, 1);
    StalledOutputEnv env;
    for (Cycle t = 0; t < cycles; ++t) env.cycle(router, t);

    const auto occ0 = static_cast<double>(env.occupancy[0]);
    const auto occ1 = static_cast<double>(env.occupancy[1]);
    const auto fl0 = static_cast<double>(env.flits[0]);
    const auto fl1 = static_cast<double>(env.flits[1]);
    table.add_row(arbiter, fixed(occ0 / (occ0 + occ1), 3),
                  fixed(fl0 / (fl0 + fl1), 3), fixed(occ0 / occ1, 2),
                  fixed(fl0 / fl1, 2));
    csv.row("router", arbiter, occ0 / (occ0 + occ1), fl0 / (fl0 + fl1));
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
  cli.add_option("router-cycles", "stalled-output run length", "200000");
  cli.add_option("mesh-cycles", "mesh run length", "100000");
  cli.add_option("csv", "output CSV path", "wormhole_network.csv");
  cli.parse(argc, argv);

  CsvWriter csv(cli.get("csv"));
  csv.header({"panel", "arbiter", "metric1", "metric2"});

  AsciiTable router_table(
      "A4 panel 1: one router's east output; while input 0's worm owns it "
      "the downstream\nwithholds each credit with probability 0.5; equal "
      "4-flit packets, both inputs saturated");
  router_table.set_header({"arbiter", "occupancy share in0", "flit share in0",
                           "occ in0/in1", "flits in0/in1"});
  stalled_output_panel(cli.get_uint("router-cycles"), router_table, csv);
  router_table.print(std::cout);
  std::cout
      << "(err-cycles: occupancy shares equalize at 0.5, so the stalled "
         "input pays for its\n congestion with fewer flits; err-flits / rr / "
         "fcfs: flit shares equalize at 0.5,\n letting the stalled input "
         "hold the output 7/11 of the time: its head rides a banked\n "
         "credit and each later flit waits 2 cycles on average, 1 + 3x2 = 7 "
         "cycles against\n input 1's 4 — the unfairness the paper's "
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
