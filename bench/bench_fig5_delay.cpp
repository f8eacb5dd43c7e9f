// Regenerates the paper's Figure 5 (a), (b): average packet delay under a
// transient congestion of configurable intensity.
//
// Methodology (Sec. 5): 4 flows with the Fig. 4 asymmetries inject for
// 10,000 cycles at an aggregate rate of `ratio` times the output rate;
// injection then halts and the simulation continues until every queue is
// empty.  Delay = cycles from enqueue to the dequeue of the last flit.
//
//   (a) ERR vs FCFS — ERR's mean delay is lower; the gain is paid by the
//       over-demanding flows (flow 2: long packets, flow 3: double rate).
//   (b) ERR vs PBRR — ERR is far lower; PBRR favours long packets, which
//       inflates everyone else's queueing time.
#include <cstdio>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/csv.hpp"
#include "common/plot.hpp"
#include "common/table.hpp"
#include "harness/paper_workloads.hpp"
#include "harness/scenario.hpp"

using namespace wormsched;

int main(int argc, char** argv) {
  CliParser cli("Figure 5: mean packet delay vs transient congestion ratio");
  cli.add_option("congestion-cycles", "transient congestion window", "10000");
  cli.add_option("ratio-min", "lowest input/output rate ratio", "1.0");
  cli.add_option("ratio-max", "highest input/output rate ratio", "1.3");
  cli.add_option("ratio-step", "sweep step", "0.05");
  cli.add_option("seeds", "averaging runs per point", "5");
  cli.add_option("csv", "output CSV path", "fig5_delay.csv");
  cli.parse(argc, argv);

  const Cycle window = cli.get_uint("congestion-cycles");
  const double lo = cli.get_double("ratio-min");
  const double hi = cli.get_double("ratio-max");
  const double step = cli.get_double("ratio-step");
  const std::uint64_t seeds = cli.get_uint("seeds");

  const std::vector<std::string> schedulers = {"ERR", "FCFS", "PBRR", "DRR",
                                               "FBRR"};
  // Primary metric: the per-flow mean delays averaged across flows, which
  // weighs every *flow* equally ("the average delay of packets in all of
  // the flows", Sec. 5).  A packet-weighted mean would double-count flow 3
  // (it injects twice the packets) and hide exactly the effect the paper
  // describes: ERR's gain comes from delaying the over-demanding flows.
  AsciiTable table("Figure 5: per-flow-averaged mean packet delay (cycles) "
                   "after a " + std::to_string(window) +
                   "-cycle congestion transient");
  table.set_header({"ratio", "ERR", "FCFS", "PBRR", "DRR", "FBRR",
                    "ERR flow2", "ERR flow3"});
  AsciiTable pkt_table(
      "Figure 5 (alternative averaging): packet-weighted mean delay");
  pkt_table.set_header({"ratio", "ERR", "FCFS", "PBRR", "DRR", "FBRR"});
  CsvWriter csv(cli.get("csv"));
  csv.header({"ratio", "ERR", "FCFS", "PBRR", "DRR", "FBRR", "err_pkt_mean",
              "fcfs_pkt_mean", "err_flow2", "err_flow3"});

  std::map<std::string, std::vector<double>> curve;
  std::vector<double> ratios;
  for (double ratio = lo; ratio <= hi + 1e-9; ratio += step) {
    std::map<std::string, double> flow_mean;
    std::map<std::string, double> packet_mean;
    double err_flow2 = 0.0;
    double err_flow3 = 0.0;
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
      const auto workload = harness::fig5_workload(ratio, window);
      const auto trace = traffic::generate_trace(workload, window, seed);
      harness::ScenarioConfig config;
      config.horizon = window;
      config.drain = true;
      config.seed = seed;
      config.sched.drr_quantum = 128;
      for (const auto& name : schedulers) {
        const auto result = harness::run_scenario(name, config, trace);
        double sum = 0.0;
        for (std::uint32_t f = 0; f < 4; ++f)
          sum += result.delays.flow(FlowId(f)).mean();
        flow_mean[name] += sum / 4.0;
        packet_mean[name] += result.delays.overall().mean();
        if (name == "ERR") {
          err_flow2 += result.delays.flow(FlowId(2)).mean();
          err_flow3 += result.delays.flow(FlowId(3)).mean();
        }
      }
    }
    const auto avg = [&](auto& map, const std::string& name) {
      return map[name] / static_cast<double>(seeds);
    };
    table.add_row(
        fixed(ratio, 2), fixed(avg(flow_mean, "ERR"), 1),
        fixed(avg(flow_mean, "FCFS"), 1), fixed(avg(flow_mean, "PBRR"), 1),
        fixed(avg(flow_mean, "DRR"), 1), fixed(avg(flow_mean, "FBRR"), 1),
        fixed(err_flow2 / static_cast<double>(seeds), 1),
        fixed(err_flow3 / static_cast<double>(seeds), 1));
    pkt_table.add_row(
        fixed(ratio, 2), fixed(avg(packet_mean, "ERR"), 1),
        fixed(avg(packet_mean, "FCFS"), 1), fixed(avg(packet_mean, "PBRR"), 1),
        fixed(avg(packet_mean, "DRR"), 1), fixed(avg(packet_mean, "FBRR"), 1));
    ratios.push_back(ratio);
    for (const auto& name : schedulers)
      curve[name].push_back(avg(flow_mean, name));
    csv.row(ratio, avg(flow_mean, "ERR"), avg(flow_mean, "FCFS"),
            avg(flow_mean, "PBRR"), avg(flow_mean, "DRR"),
            avg(flow_mean, "FBRR"), avg(packet_mean, "ERR"),
            avg(packet_mean, "FCFS"),
            err_flow2 / static_cast<double>(seeds),
            err_flow3 / static_cast<double>(seeds));
  }
  table.print(std::cout);
  std::cout << "(well-behaved flows 0/1 gain under ERR; the over-demanding "
               "flows 2 and 3 pay — the conservation-law trade the paper "
               "quotes from Kleinrock)\n\n";
  pkt_table.print(std::cout);
  std::cout << "\n";

  AsciiChart chart("Figure 5 shape: mean delay vs congestion ratio");
  chart.set_x_label("total input rate / output rate");
  chart.set_y_label("mean packet delay (cycles)");
  for (const auto& name : {"ERR", "FCFS", "PBRR"})
    chart.add_series(name, ratios, curve[name]);
  chart.print(std::cout);
  std::printf("wrote %s\n", cli.get("csv").c_str());
  return 0;
}
