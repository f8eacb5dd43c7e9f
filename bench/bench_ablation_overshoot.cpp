// Ablation A1: the cost of elasticity.
//
// ERR lets the final packet of an opportunity overshoot the allowance,
// which is why its fairness degrades linearly with the largest packet m.
// This bench sweeps the maximum packet size and shows the measured
// relative fairness tracking the 3m bound — and staying insensitive to
// everything else (flow count held constant, load held constant).
#include <cstdio>
#include <iostream>

#include "common/cli.hpp"
#include "common/csv.hpp"
#include "common/table.hpp"
#include "harness/scenario.hpp"
#include "metrics/fairness.hpp"

using namespace wormsched;

int main(int argc, char** argv) {
  CliParser cli("Ablation A1: ERR fairness vs maximum packet size m");
  cli.add_option("cycles", "simulated cycles per point", "400000");
  cli.add_option("flows", "number of flows", "4");
  cli.add_option("csv", "output CSV path", "ablation_overshoot.csv");
  cli.parse(argc, argv);

  const Cycle cycles = cli.get_uint("cycles");
  const std::size_t flows = cli.get_uint("flows");

  AsciiTable table("A1: measured ERR relative fairness vs max packet size");
  table.set_header({"max packet (flits)", "measured FM", "3m bound",
                    "FM / 3m"});
  CsvWriter csv(cli.get("csv"));
  csv.header({"max_packet", "measured_fm", "bound"});

  for (const Flits max_len : {4, 8, 16, 32, 64, 128, 256}) {
    traffic::WorkloadSpec workload;
    for (std::size_t i = 0; i < flows; ++i) {
      traffic::FlowSpec f;
      f.length = traffic::LengthSpec::uniform(1, max_len);
      // Offered load 1.5/n per flow regardless of m.
      f.arrival = traffic::ArrivalSpec::bernoulli(
          1.5 / (static_cast<double>(flows) * f.length.mean_length()));
      workload.flows.push_back(f);
    }
    const auto trace = traffic::generate_trace(workload, cycles, 5);
    harness::ScenarioConfig config;
    config.horizon = cycles;
    const auto result = harness::run_scenario("err", config, trace);
    const Flits fm = metrics::fairness_measure(
        result.service_log, result.activity, cycles / 10, cycles);
    const Flits bound = 3 * result.max_served_packet;
    table.add_row(max_len, fm, bound,
                  fixed(static_cast<double>(fm) / static_cast<double>(bound),
                        3));
    csv.row(max_len, fm, bound);
  }
  table.print(std::cout);
  std::printf("wrote %s\n", cli.get("csv").c_str());
  return 0;
}
