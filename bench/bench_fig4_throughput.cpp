// Regenerates the paper's Figure 4 (a)-(d): number of KBytes transmitted
// per flow over a 4M-cycle run during which all 8 flows stay active.
//
//   (a) ERR vs PBRR   — PBRR hands flow 2 (1-128 flit packets) ~2x bytes
//   (b) ERR vs FBRR   — near-identical; ERR within 3*128 flits = 3 KB
//   (c) ERR vs FCFS   — FCFS rewards flow 2 (length) and flow 3 (rate)
//   (d) ERR vs DRR    — comparable for uniformly distributed lengths
//
// Workload (Sec. 5): 8 flows; flow 3 at twice the packet rate; lengths
// U[1,64] flits except flow 2 U[1,128]; flit = 8 bytes; 1 flit/cycle.
#include <cstdio>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/csv.hpp"
#include "common/table.hpp"
#include "harness/paper_workloads.hpp"
#include "harness/scenario.hpp"
#include "metrics/fairness.hpp"

using namespace wormsched;

int main(int argc, char** argv) {
  CliParser cli("Figure 4: per-flow throughput under ERR vs PBRR/FBRR/FCFS/DRR");
  cli.add_option("cycles", "simulated cycles", "4000000");
  cli.add_option("seed", "workload seed", "1");
  cli.add_option("overload", "aggregate offered load / capacity", "1.5");
  cli.add_option("csv", "output CSV path", "fig4_throughput.csv");
  cli.parse(argc, argv);

  const Cycle cycles = cli.get_uint("cycles");
  const auto workload =
      harness::fig4_workload(8, cli.get_double("overload"));
  const auto trace =
      traffic::generate_trace(workload, cycles, cli.get_uint("seed"));

  harness::ScenarioConfig config;
  config.horizon = cycles;
  config.seed = cli.get_uint("seed");
  config.sched.drr_quantum = 128;  // Max for this workload (DRR O(1) regime)

  const std::vector<std::string> schedulers = {"ERR", "PBRR", "FBRR", "FCFS",
                                               "DRR"};
  std::map<std::string, std::vector<double>> kbytes;
  std::map<std::string, Flits> fm;
  for (const auto& name : schedulers) {
    const auto result = harness::run_scenario(name, config, trace);
    auto& row = kbytes[name];
    for (std::uint32_t f = 0; f < 8; ++f)
      row.push_back(static_cast<double>(
                        result.service_log.total_bytes(FlowId(f))) /
                    1024.0);
    fm[name] = metrics::fairness_measure(result.service_log, result.activity,
                                         cycles / 10, cycles);
    std::printf("ran %-5s  m=%lld  FM[0.4M,4M)=%lld flits\n", name.c_str(),
                static_cast<long long>(result.max_served_packet),
                static_cast<long long>(fm[name]));
  }

  const auto panel = [&](const char* label, const std::string& rival) {
    AsciiTable t(std::string("Figure 4") + label + ": KBytes transmitted per flow (" +
                 std::to_string(cycles) + " cycles)");
    t.set_header({"flow", "ERR", rival});
    for (std::uint32_t f = 0; f < 8; ++f)
      t.add_row(f, fixed(kbytes["ERR"][f], 1), fixed(kbytes[rival][f], 1));
    t.print(std::cout);
    std::cout << "\n";
  };

  panel("(a)", "PBRR");
  panel("(b)", "FBRR");
  panel("(c)", "FCFS");
  panel("(d)", "DRR");

  CsvWriter csv(cli.get("csv"));
  csv.header({"flow", "ERR", "PBRR", "FBRR", "FCFS", "DRR"});
  for (std::uint32_t f = 0; f < 8; ++f)
    csv.row(f, kbytes["ERR"][f], kbytes["PBRR"][f], kbytes["FBRR"][f],
            kbytes["FCFS"][f], kbytes["DRR"][f]);
  std::printf("wrote %s\n", cli.get("csv").c_str());
  return 0;
}
