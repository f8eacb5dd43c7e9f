// Ablation A6: adaptive allowances (ERR) vs fixed quanta (SRR, DRR).
//
// ERR's allowance tracks the surpluses that actually occurred, so its
// unfairness scales with m — the largest packet that actually arrives.
// SRR and DRR take the quantum as configuration; sized for a worst case
// (Max) that rarely materializes, they let a flow run a whole quantum
// ahead per round.  This bench fixes the workload (truncated-exponential
// lengths on [1,64], so m is effectively ~30-40 for most intervals) and
// sweeps the configured quantum, measuring relative fairness and mean
// delay.  ERR has no quantum knob — its row is the flat reference line.
#include <cstdio>
#include <iostream>

#include "common/cli.hpp"
#include "common/csv.hpp"
#include "common/table.hpp"
#include "harness/paper_workloads.hpp"
#include "harness/scenario.hpp"
#include "metrics/fairness.hpp"

using namespace wormsched;

int main(int argc, char** argv) {
  CliParser cli("Ablation A6: ERR's elastic allowance vs quantum-based SRR/DRR");
  cli.add_option("cycles", "simulated cycles", "400000");
  cli.add_option("intervals", "random intervals for avg relative fairness",
                 "4000");
  cli.add_option("csv", "output CSV path", "ablation_elasticity.csv");
  cli.parse(argc, argv);

  const Cycle cycles = cli.get_uint("cycles");
  const std::size_t intervals = cli.get_uint("intervals");

  const auto workload = harness::fig6_workload(6);
  const auto trace = traffic::generate_trace(workload, cycles, 31);

  AsciiTable table(
      "A6: avg relative fairness (flits) and mean delay, TruncExp lengths");
  table.set_header({"scheduler", "quantum", "avg rel fairness",
                    "FM[10%,end)", "mean delay"});
  CsvWriter csv(cli.get("csv"));
  csv.header({"scheduler", "quantum", "avg_rel_fairness", "fm", "mean_delay"});

  const auto run_one = [&](const char* name, Flits quantum) {
    harness::ScenarioConfig config;
    config.horizon = cycles;
    config.sched.drr_quantum = quantum;
    const auto result = harness::run_scenario(name, config, trace);
    Rng rng(55);
    const double arf = metrics::average_relative_fairness(
        result.service_log, result.activity, cycles, intervals, rng);
    const Flits fm = metrics::fairness_measure(
        result.service_log, result.activity, cycles / 10, cycles);
    table.add_row(name, quantum, fixed(arf, 1), fm,
                  fixed(result.delays.overall().mean(), 1));
    csv.row(name, quantum, arf, fm, result.delays.overall().mean());
  };

  run_one("ERR", 0);  // quantum ignored: adaptive
  table.add_rule();
  for (const Flits q : {16, 64, 256}) run_one("SRR", q);
  table.add_rule();
  for (const Flits q : {64, 256}) run_one("DRR", q);  // DRR needs q >= Max
  table.print(std::cout);
  std::cout << "(SRR/DRR unfairness grows with the configured quantum; "
               "ERR's adapts to the\n traffic with no knob to mis-set — the "
               "practical content of the 3m-vs-Max+2m gap)\n";
  std::printf("wrote %s\n", cli.get("csv").c_str());
  return 0;
}
