// Ablation A3: weighted service differentiation.
//
// The weighted ERR extension (A_i = w_i*(1 + MaxSC) - SC_i) against the
// weighted forms of DRR (quantum scaling) and the timestamp disciplines:
// four saturated flows with target weights 1:2:4:8; report each
// discipline's achieved share and its maximum relative error.
#include <cmath>
#include <cstdio>
#include <iostream>
#include <vector>

#include "common/cli.hpp"
#include "common/csv.hpp"
#include "common/table.hpp"
#include "harness/scenario.hpp"
#include "traffic/workload.hpp"

using namespace wormsched;

int main(int argc, char** argv) {
  CliParser cli("Ablation A3: weighted ERR vs weighted DRR/SCFQ/WFQ/WF2Q+");
  cli.add_option("cycles", "simulated cycles", "400000");
  cli.add_option("csv", "output CSV path", "ablation_weighted.csv");
  cli.parse(argc, argv);

  const Cycle cycles = cli.get_uint("cycles");
  const std::vector<double> weights = {1.0, 2.0, 4.0, 8.0};
  const double weight_sum = 15.0;

  // Saturating symmetric workload; weights do the differentiation.
  traffic::WorkloadSpec workload;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    traffic::FlowSpec f;
    f.length = traffic::LengthSpec::uniform(1, 32);
    // 0.75 flits/cycle offered per flow: every flow, including the w=8
    // one (target share 8/15 = 0.533), demands more than its share.
    f.arrival = traffic::ArrivalSpec::bernoulli(3.0 / (4.0 * 16.5));
    workload.flows.push_back(f);
  }
  const auto trace = traffic::generate_trace(workload, cycles, 9);

  AsciiTable table("A3: achieved service shares for target weights 1:2:4:8");
  table.set_header({"scheduler", "share w=1", "share w=2", "share w=4",
                    "share w=8", "max rel. error"});
  CsvWriter csv(cli.get("csv"));
  csv.header({"scheduler", "flow", "weight", "share", "target"});

  for (const char* name :
       {"ERR", "PERR", "DRR", "SRR", "WRR", "SCFQ", "STFQ", "VC", "WFQ",
        "WF2Q+"}) {
    harness::ScenarioConfig config;
    config.horizon = cycles;
    config.weights = weights;
    config.sched.drr_quantum = 32;
    const auto result = harness::run_scenario(name, config, trace);
    Flits total = 0;
    for (std::uint32_t f = 0; f < 4; ++f)
      total += result.service_log.total(FlowId(f));
    std::vector<double> shares;
    double max_err = 0.0;
    for (std::uint32_t f = 0; f < 4; ++f) {
      const double share =
          static_cast<double>(result.service_log.total(FlowId(f))) /
          static_cast<double>(total);
      const double target = weights[f] / weight_sum;
      shares.push_back(share);
      max_err = std::max(max_err, std::abs(share - target) / target);
      csv.row(name, f, weights[f], share, target);
    }
    table.add_row(name, fixed(shares[0], 4), fixed(shares[1], 4),
                  fixed(shares[2], 4), fixed(shares[3], 4),
                  fixed(100.0 * max_err, 2) + "%");
  }
  table.add_rule();
  table.add_row("target", fixed(1.0 / 15, 4), fixed(2.0 / 15, 4),
                fixed(4.0 / 15, 4), fixed(8.0 / 15, 4), "-");
  table.print(std::cout);
  std::printf("wrote %s\n", cli.get("csv").c_str());
  return 0;
}
