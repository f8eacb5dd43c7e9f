// Trace record & replay: archive a workload, then compare disciplines on
// the byte-identical arrival sequence.
//
//   ./build/examples/trace_replay                  # generate + compare
//   ./build/examples/trace_replay --trace my.csv   # reuse a saved trace
//
// This is the experimental-methodology example: scheduler comparisons in
// this repository never re-sample traffic per discipline — every figure
// replays one trace into each scheduler, so differences are attributable
// to the algorithm alone.  The CSV trace format ('cycle,flow,length') can
// be produced by any external tool.
#include <cstdio>
#include <filesystem>
#include <iostream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "harness/scenario.hpp"
#include "metrics/fairness.hpp"
#include "traffic/trace_io.hpp"

using namespace wormsched;

int main(int argc, char** argv) {
  CliParser cli("record/replay scheduler comparison");
  cli.add_option("trace", "trace CSV to replay (generated if absent)",
                 "trace_replay_demo.csv");
  cli.add_option("cycles", "horizon when generating", "100000");
  cli.add_option("seed", "generation seed", "42");
  cli.parse(argc, argv);

  const std::string path = cli.get("trace");
  const Cycle cycles = cli.get_uint("cycles");

  if (!std::filesystem::exists(path)) {
    // Three flows with deliberately mismatched behaviour.
    traffic::WorkloadSpec spec;
    traffic::FlowSpec small_steady;
    small_steady.arrival = traffic::ArrivalSpec::bernoulli(0.05);
    small_steady.length = traffic::LengthSpec::uniform(1, 8);
    traffic::FlowSpec large_steady;
    large_steady.arrival = traffic::ArrivalSpec::bernoulli(0.012);
    large_steady.length = traffic::LengthSpec::uniform(16, 48);
    traffic::FlowSpec bursty;
    bursty.arrival = traffic::ArrivalSpec::on_off(0.3, 300, 700);
    bursty.length = traffic::LengthSpec::uniform(1, 16);
    spec.flows = {small_steady, large_steady, bursty};
    const auto trace =
        traffic::generate_trace(spec, cycles, cli.get_uint("seed"));
    traffic::save_trace_file(path, trace);
    std::printf("generated %zu arrivals -> %s\n", trace.entries.size(),
                path.c_str());
  }

  const traffic::Trace trace = traffic::load_trace_file(path);
  std::printf("replaying %s: %zu packets, %lld flits, %zu flows\n\n",
              path.c_str(), trace.entries.size(),
              static_cast<long long>(trace.total_flits()), trace.num_flows);

  const Cycle horizon =
      trace.entries.empty() ? 1 : trace.entries.back().cycle + 1;
  AsciiTable table("same trace, every discipline");
  table.set_header({"scheduler", "mean delay", "p95 delay",
                    "FM over [10%, end) (flits)"});
  for (const auto name : core::scheduler_names()) {
    harness::ScenarioConfig config;
    config.horizon = horizon;
    config.drain = true;
    config.sched.drr_quantum = 64;
    const auto result = harness::run_scenario(name, config, trace);
    const Flits fm = metrics::fairness_measure(
        result.service_log, result.activity, horizon / 10, horizon);
    table.add_row(name, fixed(result.delays.overall().mean(), 1),
                  fixed(result.delays.quantile(0.95), 1), fm);
  }
  table.print(std::cout);
  std::cout << "\nDelete " << path << " to regenerate a fresh workload.\n";
  return 0;
}
