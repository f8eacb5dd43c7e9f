// Wormhole switch demo: why ERR charges occupancy, not length.
//
//   ./build/examples/wormhole_switch [--cycles N] [--stall P]
//
// Four input queues contend for one output whose downstream stalls
// randomly (a congested next-hop switch).  Because wormhole switching
// forbids interleaving, a stalled worm blocks everyone (paper Sec. 1) —
// and a packet's output occupancy can far exceed its flit count.  The
// demo runs the same traffic through every arbiter and shows how only the
// cycle-charging ERR equalizes occupancy.
#include <cstdio>
#include <iostream>

#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "wormhole/switch.hpp"

using namespace wormsched;
using namespace wormsched::wormhole;

int main(int argc, char** argv) {
  CliParser cli("wormhole switch arbitration demo");
  cli.add_option("cycles", "simulated cycles", "100000");
  cli.add_option("stall", "downstream stall probability", "0.3");
  cli.parse(argc, argv);
  const Cycle cycles = cli.get_uint("cycles");

  // Input 0 sends long worms (16 flits), inputs 1-3 short ones (2-4).
  const Flits lengths[4] = {16, 4, 3, 2};

  AsciiTable table("4-input wormhole switch, stall probability " +
                   cli.get("stall"));
  table.set_header({"arbiter", "occ share in0", "occ share in1",
                    "occ share in2", "occ share in3", "flits in0",
                    "mean delay in3"});
  for (const char* arbiter : {"err-cycles", "err-flits", "rr", "fcfs"}) {
    SwitchConfig config;
    config.num_inputs = 4;
    config.arbiter = arbiter;
    config.stall_probability = cli.get_double("stall");
    config.seed = 3;
    WormholeSwitch sw(config);
    // Saturate every input for the whole run.
    for (std::uint32_t f = 0; f < 4; ++f) {
      const auto count = static_cast<int>(
          cycles / static_cast<Cycle>(lengths[f]) + 1);
      for (int k = 0; k < count; ++k) sw.inject(0, FlowId(f), lengths[f]);
    }
    for (Cycle t = 0; t < cycles; ++t) sw.tick(t);

    double total_occ = 0;
    for (std::uint32_t f = 0; f < 4; ++f)
      total_occ += static_cast<double>(sw.occupancy_cycles(FlowId(f)));
    const auto share = [&](std::uint32_t f) {
      return fixed(
          static_cast<double>(sw.occupancy_cycles(FlowId(f))) / total_occ, 3);
    };
    table.add_row(arbiter, share(0), share(1), share(2), share(3),
                  static_cast<long long>(sw.forwarded_flits(FlowId(0))),
                  fixed(sw.delay(FlowId(3)).mean(), 1));
  }
  table.print(std::cout);
  std::cout <<
      "\nWhat to look for:\n"
      "  err-cycles: occupancy shares ~0.25 each — the output *time* is\n"
      "              divided fairly even though packet costs are unknown\n"
      "              in advance and inflated unpredictably by stalls.\n"
      "  err-flits:  flit counts equalize instead, so input 0 (long worms)\n"
      "              holds the output proportionally longer.\n"
      "  rr:         one packet per visit — input 0 gets ~16/25 of the\n"
      "              occupancy, the PBRR unfairness of paper Fig. 4(a).\n"
      "  fcfs:       shares follow injection order, not fairness.\n";
  return 0;
}
