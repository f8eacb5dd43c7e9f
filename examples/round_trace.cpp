// Round trace: reproduces the paper's Figure 3 — a cycle-by-round view of
// ERR's allowances, surplus counts and MaxSC over three flows with
// scripted packet sizes.
//
//   ./build/examples/round_trace [--rounds N]
//
// The same numbers are locked in by tests/core/err_trace_test.cpp; this
// executable renders them as the paper's figure does.
#include <iostream>
#include <vector>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/err.hpp"

using namespace wormsched;

int main(int argc, char** argv) {
  CliParser cli("ERR round trace (paper Fig. 3)");
  cli.add_option("rounds", "rounds to display", "3");
  cli.parse(argc, argv);
  const std::size_t rounds = cli.get_uint("rounds");

  core::ErrScheduler scheduler(core::ErrConfig{3});
  std::vector<core::ErrOpportunity> log;
  scheduler.policy().set_opportunity_listener(
      [&](const core::ErrOpportunity& r) { log.push_back(r); });

  // The scripted queues (flits per packet).  Every flow stays backlogged
  // through round 3; the trailing 1-flit packets keep the queues nonempty.
  const std::vector<std::vector<Flits>> queues = {
      {32, 16, 8, 1},
      {24, 8, 8, 8, 8, 1},
      {12, 20, 4, 6, 6, 6, 1},
  };
  PacketId::rep_type next_id = 0;
  for (std::uint32_t f = 0; f < queues.size(); ++f)
    for (const Flits len : queues[f])
      scheduler.enqueue(0, core::Packet{.id = PacketId(next_id++),
                                        .flow = FlowId(f),
                                        .length = len,
                                        .arrival = 0});

  Cycle now = 0;
  while (!scheduler.idle() &&
         (log.empty() || log.back().round <= rounds)) {
    (void)scheduler.pull_flit(now);
    ++now;
  }

  AsciiTable table("ERR execution trace (three flows, scripted packets)");
  table.set_header({"round", "flow", "allowance A_i", "Sent_i",
                    "SC_i = Sent - A", "MaxSC so far"});
  std::size_t last_round = 1;
  for (const auto& r : log) {
    if (r.round > rounds) break;
    if (r.round != last_round) {
      table.add_rule();
      last_round = r.round;
    }
    table.add_row(r.round, r.flow.value(), fixed(r.allowance, 0),
                  fixed(r.sent, 0), fixed(r.surplus_count, 0),
                  fixed(r.max_sc_so_far, 0));
  }
  table.print(std::cout);
  std::cout <<
      "\nReading the table (paper Sec. 3):\n"
      "  round 1: every allowance is 1, so each flow sends exactly one\n"
      "           packet and records its overshoot in SC.\n"
      "  round 2: A_i = 1 + MaxSC(prev) - SC_i — flows that got little\n"
      "           service receive proportionately more opportunity.\n"
      "  the flow holding the round's MaxSC always restarts at A = 1.\n";
  return 0;
}
