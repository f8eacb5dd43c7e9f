// Priority classes with PERR: latency isolation for control traffic.
//
//   ./build/examples/priority_classes [--cycles N]
//
// A switch port carries two kinds of traffic:
//   class 0 (high): short control/ack packets from two flows
//   class 1 (low):  saturating bulk transfers from four flows, two of
//                   them misbehaving (oversized packets / double rate)
// PERR gives the control class strict priority at packet boundaries
// while ERR keeps the bulk class fair *internally*.  Compare with plain
// ERR (control mixed into the same round robin) and FCFS.
#include <cstdio>
#include <iostream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/perr.hpp"
#include "core/registry.hpp"
#include "harness/scenario.hpp"
#include "traffic/workload.hpp"

using namespace wormsched;

namespace {

traffic::WorkloadSpec build_workload() {
  traffic::WorkloadSpec spec;
  // Flows 0-1: control (high class): sparse, tiny packets.
  for (int i = 0; i < 2; ++i) {
    traffic::FlowSpec control;
    control.arrival = traffic::ArrivalSpec::poisson(0.01);
    control.length = traffic::LengthSpec::uniform(1, 4);
    spec.flows.push_back(control);
  }
  // Flows 2-3: well-behaved bulk.
  for (int i = 0; i < 2; ++i) {
    traffic::FlowSpec bulk;
    bulk.arrival = traffic::ArrivalSpec::bernoulli(0.012);
    bulk.length = traffic::LengthSpec::uniform(16, 48);
    spec.flows.push_back(bulk);
  }
  // Flow 4: oversized packets; flow 5: double rate.
  traffic::FlowSpec big;
  big.arrival = traffic::ArrivalSpec::bernoulli(0.012);
  big.length = traffic::LengthSpec::uniform(64, 128);
  spec.flows.push_back(big);
  traffic::FlowSpec fast;
  fast.arrival = traffic::ArrivalSpec::bernoulli(0.024);
  fast.length = traffic::LengthSpec::uniform(16, 48);
  spec.flows.push_back(fast);
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("PERR priority-class isolation demo");
  cli.add_option("cycles", "simulated cycles", "300000");
  cli.parse(argc, argv);
  const Cycle cycles = cli.get_uint("cycles");

  const auto workload = build_workload();
  const auto trace = traffic::generate_trace(workload, cycles, 17);
  std::printf("offered load: %.2f flits/cycle (bulk saturates the port)\n\n",
              workload.offered_load());

  AsciiTable table("mean / p99 delay (cycles) per flow");
  table.set_header({"scheduler", "ctrl-0 mean", "ctrl-0 p99", "bulk-2 mean",
                    "big-4 mean", "fast-5 mean"});
  const auto report = [&](const harness::ScenarioResult& r) {
    table.add_row(r.scheduler_name,
                  fixed(r.delays.flow(FlowId(0)).mean(), 1),
                  fixed(r.delays.flow_quantile(FlowId(0), 0.99), 1),
                  fixed(r.delays.flow(FlowId(2)).mean(), 1),
                  fixed(r.delays.flow(FlowId(4)).mean(), 1),
                  fixed(r.delays.flow(FlowId(5)).mean(), 1));
  };

  harness::ScenarioConfig config;
  config.horizon = cycles;
  // PERR: flows 0-1 in class 0, the rest in class 1.
  config.sched.perr_priorities = {0, 0, 1, 1, 1, 1};
  report(harness::run_scenario("perr", config, trace));
  config.sched.perr_priorities.clear();
  report(harness::run_scenario("err", config, trace));
  report(harness::run_scenario("fcfs", config, trace));
  table.print(std::cout);

  std::cout <<
      "\nWhat to look for:\n"
      "  PERR: control packets wait at most for one in-flight bulk packet\n"
      "        (mean delay tens of cycles; p99 bounded by the largest bulk\n"
      "        packet), regardless of how deep the bulk backlog grows.\n"
      "  ERR:  control is fair but not prioritized — it waits a full round\n"
      "        of bulk opportunities, so its delay tracks the bulk packet\n"
      "        sizes.\n"
      "  FCFS: control queues behind the entire arrival backlog.\n"
      "  In every case ERR machinery keeps the *bulk* class fair: flow 4's\n"
      "  oversized packets and flow 5's double rate pay for themselves.\n";
  return 0;
}
