// Flow-count scaling of the scenario runner.
//
// run_scenario's per-cycle work must not grow with the number of flows
// that merely exist: 200k flows over 50k cycles is 10^10 flow-cycles, far
// beyond the ctest TIMEOUT this suite carries if any per-cycle step
// visited every flow.
#include <gtest/gtest.h>

#include "harness/scenario.hpp"
#include "traffic/trace_synth.hpp"

namespace wormsched::harness {
namespace {

TEST(ScenarioScale, TwoHundredThousandFlowsFiftyThousandCycles) {
  traffic::SynthSpec spec;
  spec.num_flows = 200'000;
  spec.horizon = 50'000;
  spec.load = 0.9;
  const traffic::Trace trace = traffic::synthesize_trace(spec, 11);
  ASSERT_EQ(trace.num_flows, spec.num_flows);

  ScenarioConfig config;
  config.horizon = spec.horizon;
  const ScenarioResult result = run_scenario("err", config, trace);
  EXPECT_EQ(result.end_cycle, spec.horizon);
  EXPECT_EQ(result.service_log.grand_total() + result.residual_backlog,
            trace.total_flits());
  EXPECT_GT(result.service_log.grand_total(), 0);
}

}  // namespace
}  // namespace wormsched::harness
