// Regenerates the paper's Table 1: fairness measure and work complexity of
// the fair-queuing family — the analytic table, plus two empirical panels:
//
//   1. per-flit scheduling cost vs number of flows n (flat for the O(1)
//      disciplines: ERR/DRR/PBRR/FBRR/FCFS; growing ~log n for the
//      timestamp disciplines: SCFQ/VC/WFQ/WF2Q+),
//   2. measured relative fairness on the Fig. 4 workload next to each
//      discipline's analytic bound.
#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/csv.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/registry.hpp"
#include "harness/paper_workloads.hpp"
#include "harness/scenario.hpp"
#include "metrics/fairness.hpp"

using namespace wormsched;

namespace {

/// Nanoseconds per pull_flit with `n` permanently saturated flows.
double cost_per_flit_ns(std::string_view name, std::size_t n, Flits pulls) {
  core::SchedulerParams params;
  params.num_flows = n;
  // Quantum == packet size: DRR also makes one full decision per packet
  // (a larger quantum would amortize its rotation over several packets
  // and hide cost the other disciplines are paying).
  params.drr_quantum = 1;
  auto s = core::make_scheduler(name, params);
  PacketId::rep_type id = 0;
  // Pre-fill each flow with enough single-flit packets to outlast the
  // run: with 1-flit packets every pull is a full scheduling decision
  // (nothing amortizes over a worm), the worst case Theorem 1 is about.
  const int packets_per_flow =
      static_cast<int>(pulls / static_cast<Flits>(n)) + 2;
  for (std::uint32_t f = 0; f < n; ++f)
    for (int k = 0; k < packets_per_flow; ++k)
      s->enqueue(0, core::Packet{.id = PacketId(id++),
                                 .flow = FlowId(f),
                                 .length = 1,
                                 .arrival = 0});
  const auto start = std::chrono::steady_clock::now();
  for (Flits i = 0; i < pulls; ++i)
    (void)s->pull_flit(static_cast<Cycle>(i));
  const auto stop = std::chrono::steady_clock::now();
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start);
  return static_cast<double>(ns.count()) / static_cast<double>(pulls);
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("Table 1: fairness and work complexity of the FQ family");
  cli.add_option("pulls", "flits pulled per timing measurement", "400000");
  cli.add_option("fairness-cycles", "cycles for the fairness panel", "400000");
  cli.add_option("csv", "output CSV path", "table1_complexity.csv");
  cli.parse(argc, argv);

  // --- Panel 0: the analytic table as printed in the paper. -------------
  AsciiTable analytic("Table 1 (analytic): relative fairness and work complexity");
  analytic.set_header({"scheduling discipline", "fairness", "complexity",
                       "wormhole-capable"});
  analytic.add_row("Packet-Based Round Robin", "unbounded", "O(1)", "yes");
  analytic.add_row("First-Come-First-Served", "unbounded", "O(1)", "yes");
  analytic.add_row("Fair Queuing (WFQ/SCFQ/VC)", "~m", "O(log n)", "no");
  analytic.add_row("Deficit Round Robin", "Max + 2m", "O(1)", "no");
  analytic.add_row("Elastic Round Robin", "3m", "O(1)", "yes");
  analytic.print(std::cout);
  std::cout << "\n";

  // --- Panel 1: measured per-flit cost vs n. ----------------------------
  const Flits pulls = static_cast<Flits>(cli.get_uint("pulls"));
  const std::vector<std::size_t> flow_counts = {2, 16, 128, 1024, 4096};
  AsciiTable cost("Measured scheduling cost (ns per flit) vs number of flows");
  cost.set_header({"scheduler", "n=2", "n=16", "n=128", "n=1024", "n=4096",
                   "growth 16->4096"});
  CsvWriter csv(cli.get("csv"));
  csv.header({"scheduler", "flows", "ns_per_flit"});
  for (const auto name : core::scheduler_names()) {
    std::vector<double> ns;
    for (const auto n : flow_counts) {
      ns.push_back(cost_per_flit_ns(name, n, pulls));
      csv.row(name, n, ns.back());
    }
    cost.add_row(name, fixed(ns[0], 1), fixed(ns[1], 1), fixed(ns[2], 1),
                 fixed(ns[3], 1), fixed(ns[4], 1), fixed(ns[4] / ns[1], 2));
    std::printf("timed %s\n", std::string(name).c_str());
  }
  cost.print(std::cout);
  std::cout
      << "(every discipline touches per-flow state, so very large n adds "
         "cache-miss cost for\n all of them; the timestamp disciplines pay "
         "the additional O(log n) heap work on top,\n which keeps them the "
         "most expensive column-for-column — Theorem 1's comparison)\n\n";

  // --- Panel 2: measured fairness vs analytic bound. --------------------
  const Cycle cycles = cli.get_uint("fairness-cycles");
  const auto workload = harness::fig4_workload();
  const auto trace = traffic::generate_trace(workload, cycles, 3);
  harness::ScenarioConfig config;
  config.horizon = cycles;
  config.sched.drr_quantum = 128;
  AsciiTable fair("Measured relative fairness on the Fig. 4 workload (flits)");
  fair.set_header({"scheduler", "measured FM", "analytic bound"});
  for (const auto name : core::scheduler_names()) {
    const auto result = harness::run_scenario(name, config, trace);
    const Flits fm = metrics::fairness_measure(
        result.service_log, result.activity, cycles / 10, cycles);
    std::string bound = "unbounded";
    const auto m = result.max_served_packet;
    if (name == "ERR" || name == "PERR")
      bound = "3m = " + std::to_string(3 * m);
    if (name == "DRR") bound = "Max+2m = " + std::to_string(128 + 2 * m);
    if (name == "SRR") bound = "~Q+2m = " + std::to_string(128 + 2 * m);
    if (name == "FBRR") bound = "~1 flit";
    if (name == "SCFQ" || name == "STFQ" || name == "WFQ" || name == "VC" ||
        name == "WF2Q+")
      bound = "~m = " + std::to_string(m);
    fair.add_row(name, fm, bound);
  }
  fair.print(std::cout);
  std::printf("wrote %s\n", cli.get("csv").c_str());
  return 0;
}
