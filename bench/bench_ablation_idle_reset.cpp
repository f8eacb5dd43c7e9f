// Ablation A2: the idle-state wart of the IPDPS-2000 pseudo-code
// (DESIGN.md design decision 4).
//
// Scenario: a flow transmits one maximum-size packet (surplus count m-1),
// then the whole system idles.  In the paper-faithful algorithm MaxSC
// survives the gap, so when traffic resumes the first flow served inherits
// an allowance of ~m and may burst a whole allowance worth of small
// packets while its competitor waits.  The reset_on_idle variant clears
// round state when the ActiveList empties.
//
// Metric: the largest single-opportunity Sent observed after an idle gap
// ("post-idle burst") and the worst FM across the resumption window,
// averaged over many gap episodes.
#include <cstdio>
#include <iostream>

#include "common/cli.hpp"
#include "common/csv.hpp"
#include "common/table.hpp"
#include "core/err.hpp"

using namespace wormsched;
using core::ErrConfig;
using core::ErrOpportunity;
using core::ErrScheduler;

namespace {

struct EpisodeResult {
  double max_post_idle_sent = 0.0;
  double worst_service_gap = 0.0;  // |served_0 - served_1| after resumption
};

EpisodeResult run_variant(bool reset_on_idle, int episodes, Flits big) {
  ErrScheduler s(ErrConfig{2, reset_on_idle});
  EpisodeResult out;
  bool in_resumption = false;
  double max_sent = 0.0;
  s.policy().set_opportunity_listener([&](const ErrOpportunity& r) {
    if (in_resumption) max_sent = std::max(max_sent, r.sent);
  });

  PacketId::rep_type id = 0;
  Cycle t = 0;
  const auto enqueue = [&](std::uint32_t flow, Flits len) {
    s.enqueue(t, core::Packet{.id = PacketId(id++), .flow = FlowId(flow),
                              .length = len, .arrival = t});
  };
  const auto pump = [&](Cycle cycles) {
    for (Cycle k = 0; k < cycles; ++k) (void)s.pull_flit(t++);
  };

  for (int e = 0; e < episodes; ++e) {
    // Busy period: flow 0 sends one huge packet and drains -> SC ~ big-1.
    in_resumption = false;
    enqueue(0, big);
    pump(static_cast<Cycle>(big) + 4);  // drain fully; system idles
    t += 100;                           // idle gap

    // Resumption: both flows offer many small packets.
    in_resumption = true;
    max_sent = 0.0;
    const int small_packets = static_cast<int>(big);
    for (int k = 0; k < small_packets; ++k) {
      enqueue(0, 2);
      enqueue(1, 2);
    }
    Flits served0 = 0;
    Flits served1 = 0;
    double worst_gap = 0.0;
    for (Cycle k = 0; k < static_cast<Cycle>(2 * big); ++k) {
      const auto flit = s.pull_flit(t++);
      if (!flit) break;
      (flit->flow == FlowId(0) ? served0 : served1) += 1;
      worst_gap = std::max(
          worst_gap, static_cast<double>(std::abs(served0 - served1)));
    }
    pump(static_cast<Cycle>(4 * big));  // drain the episode completely
    t += 100;
    out.max_post_idle_sent = std::max(out.max_post_idle_sent, max_sent);
    out.worst_service_gap = std::max(out.worst_service_gap, worst_gap);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("Ablation A2: effect of resetting ERR round state on idle");
  cli.add_option("episodes", "idle/resume episodes per variant", "50");
  cli.add_option("csv", "output CSV path", "ablation_idle_reset.csv");
  cli.parse(argc, argv);

  const int episodes = static_cast<int>(cli.get_int("episodes"));

  AsciiTable table("A2: post-idle burst and worst service gap (flits)");
  table.set_header({"big packet m", "variant", "max opportunity Sent",
                    "worst |served0-served1|"});
  CsvWriter csv(cli.get("csv"));
  csv.header({"m", "variant", "max_post_idle_sent", "worst_gap"});
  for (const Flits big : {32, 64, 128, 256}) {
    for (const bool reset : {false, true}) {
      const auto r = run_variant(reset, episodes, big);
      const char* variant = reset ? "reset-on-idle" : "paper-faithful";
      table.add_row(big, variant, fixed(r.max_post_idle_sent, 0),
                    fixed(r.worst_service_gap, 0));
      csv.row(big, variant, r.max_post_idle_sent, r.worst_service_gap);
    }
    table.add_rule();
  }
  table.print(std::cout);
  std::cout << "(paper-faithful: the stale MaxSC from before the gap inflates "
               "the first post-idle allowance;\n reset-on-idle: resumption "
               "starts from allowance 1)\n";
  std::printf("wrote %s\n", cli.get("csv").c_str());
  return 0;
}
