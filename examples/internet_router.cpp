// Internet router demo: ERR as a datagram scheduler.
//
//   ./build/examples/internet_router [--scheduler err] [--cycles N]
//
// The paper notes (Secs. 1, 6) that ERR "may also be implemented in
// Internet routers for fair scheduling of various flows of traffic with
// each flow corresponding to a source-destination pair".  This demo
// models an output port shared by:
//   flow 0  a well-behaved video stream   (steady rate, mid packets, w=2)
//   flow 1  a bulk transfer               (saturating, large packets)
//   flow 2  a bursty web/misc aggregate   (on-off, small packets)
//   flow 3  a misbehaving UDP blast       (2x its fair rate)
// and reports goodput and delay per flow under a chosen discipline.
#include <cstdio>
#include <iostream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "harness/scenario.hpp"
#include "traffic/workload.hpp"

using namespace wormsched;

int main(int argc, char** argv) {
  CliParser cli("differentiated-services router port demo");
  cli.add_option("scheduler", "err|drr|pbrr|fbrr|fcfs|scfq|vc|wfq|wf2q+",
                 "err");
  cli.add_option("cycles", "simulated cycles", "200000");
  cli.add_flag("compare", "run all schedulers and summarize");
  cli.parse(argc, argv);
  const Cycle cycles = cli.get_uint("cycles");

  traffic::WorkloadSpec workload;
  {
    traffic::FlowSpec video;
    video.arrival = traffic::ArrivalSpec::periodic(0.02);
    video.length = traffic::LengthSpec::constant(12);
    traffic::FlowSpec bulk;
    bulk.arrival = traffic::ArrivalSpec::bernoulli(0.02);
    bulk.length = traffic::LengthSpec::uniform(32, 64);
    traffic::FlowSpec web;
    web.arrival = traffic::ArrivalSpec::on_off(0.15, 400, 600);
    web.length = traffic::LengthSpec::truncated_exponential(0.3, 1, 16);
    traffic::FlowSpec blast;
    blast.arrival = traffic::ArrivalSpec::bernoulli(0.1);
    blast.length = traffic::LengthSpec::constant(8);
    workload.flows = {video, bulk, web, blast};
  }
  const auto trace = traffic::generate_trace(workload, cycles, 7);

  const auto run = [&](std::string_view name) {
    harness::ScenarioConfig config;
    config.horizon = cycles;
    config.weights = {2.0, 1.0, 1.0, 1.0};  // video gets a premium class
    config.sched.drr_quantum = 64;
    return harness::run_scenario(name, config, trace);
  };

  const auto offered = [&](std::uint32_t f) {
    return static_cast<double>(trace.flow_flits(FlowId(f)));
  };

  if (cli.get_flag("compare")) {
    AsciiTable table("mean delay (cycles) per flow, all disciplines");
    table.set_header({"scheduler", "video (w=2)", "bulk", "web burst",
                      "udp blast"});
    for (const auto name : core::scheduler_names()) {
      const auto r = run(name);
      table.add_row(name, fixed(r.delays.flow(FlowId(0)).mean(), 1),
                    fixed(r.delays.flow(FlowId(1)).mean(), 1),
                    fixed(r.delays.flow(FlowId(2)).mean(), 1),
                    fixed(r.delays.flow(FlowId(3)).mean(), 1));
    }
    table.print(std::cout);
    return 0;
  }

  const auto result = run(cli.get("scheduler"));
  std::printf("scheduler: %s, %llu cycles, offered load %.2f flits/cycle\n\n",
              result.scheduler_name.c_str(),
              static_cast<unsigned long long>(cycles),
              workload.offered_load());
  AsciiTable table("per-flow goodput and delay");
  table.set_header({"flow", "offered flits", "served flits", "served %",
                    "mean delay", "p99 delay"});
  const char* names[4] = {"video (w=2)", "bulk", "web burst", "udp blast"};
  for (std::uint32_t f = 0; f < 4; ++f) {
    const auto served =
        static_cast<double>(result.service_log.total(FlowId(f)));
    table.add_row(names[f], fixed(offered(f), 0), fixed(served, 0),
                  fixed(100.0 * served / offered(f), 1),
                  fixed(result.delays.flow(FlowId(f)).mean(), 1),
                  fixed(result.delays.flow_quantile(FlowId(f), 0.99), 1));
  }
  table.print(std::cout);
  std::cout <<
      "\nUnder ERR the UDP blast cannot push the video stream's delay up:\n"
      "flows demanding less than their fair share are served at their\n"
      "demand, and the blast absorbs the queueing (try --scheduler fcfs\n"
      "or --compare to see the difference).\n";
  return 0;
}
