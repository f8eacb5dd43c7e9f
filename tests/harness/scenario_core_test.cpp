// O(touched) activity tracking against a full per-flow sweep.
//
// The shared scenario core re-records only the flows a cycle touched (an
// arrival, or the flow that sent the pulled flit).  Each case here drives
// the core cycle by cycle and feeds a second ActivityTracker the full
// sweep itself — every flow, every cycle — then requires the two
// trackers' snapshot bytes to be identical.  The corpus covers every
// registered discipline x 40 seeds over weighted and unweighted, drained
// and non-drained, light and overloaded workloads; the light mix includes
// single-flit packets that arrive and leave in the same cycle.  A
// ScenarioRun checkpoint split at a seed-dependent cycle must land on the
// same bytes.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/archive.hpp"
#include "common/snapshot.hpp"
#include "core/registry.hpp"
#include "harness/checkpoint.hpp"
#include "harness/scenario_core.hpp"
#include "harness/workload_parse.hpp"
#include "metrics/activity.hpp"

namespace wormsched::harness {
namespace {

constexpr std::uint64_t kSeeds = 40;

std::vector<std::uint8_t> tracker_bytes(const metrics::ActivityTracker& t) {
  SnapshotWriter w;
  save_fields(w, t);
  return w.bytes();
}

/// Seed-varied case: bit 0 picks drain, bit 1 weights, bit 2 overload.
ScenarioSpec case_spec(std::string_view scheduler, std::uint64_t seed) {
  const bool weighted = (seed & 2) != 0;
  const bool overloaded = (seed & 4) != 0;
  ScenarioSpec spec;
  spec.scheduler = std::string(scheduler);
  const std::string w = weighted ? ":3" : "";
  spec.workload_text =
      overloaded ? "bern:0.3:c1;bern:0.1:u1-8" + w + "*2;bern:0.03:u1-32"
                 : "bern:0.1:c1;bern:0.02:u1-8" + w + "*2;bern:0.005:u1-32";
  spec.config.horizon = 600;
  spec.config.drain = (seed & 1) != 0;
  spec.config.seed = seed;
  const std::optional<WorkloadParse> parsed = parse_workload(spec.workload_text);
  EXPECT_TRUE(parsed.has_value());
  if (parsed) spec.config.weights = parsed->weights;
  return spec;
}

/// Runs `spec` through the core with the full-sweep oracle beside it;
/// returns the oracle's bytes after checking the core's against them.
std::vector<std::uint8_t> run_against_oracle(const ScenarioSpec& spec,
                                             const std::string& label) {
  const std::optional<WorkloadParse> parsed = parse_workload(spec.workload_text);
  const traffic::Trace trace = traffic::generate_trace(
      parsed->spec, spec.config.horizon, spec.config.seed);
  ScenarioCore core(spec.scheduler, spec.config, trace);
  metrics::ActivityTracker oracle(trace.num_flows);
  while (!core.done()) {
    const Cycle t = core.now();
    core.step();
    for (std::size_t i = 0; i < trace.num_flows; ++i) {
      const FlowId flow(static_cast<FlowId::rep_type>(i));
      oracle.record(t, flow, core.scheduler().queue_length(flow) > 0);
    }
  }
  oracle.finish(core.now());
  const ScenarioResult result = core.finish();
  EXPECT_EQ(tracker_bytes(result.activity), tracker_bytes(oracle)) << label;
  return tracker_bytes(oracle);
}

TEST(ScenarioCoreDifferential, TouchedUpdateMatchesFullSweep) {
  for (const std::string_view name : core::scheduler_names()) {
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
      (void)run_against_oracle(case_spec(name, seed),
                               std::string(name) + " seed " +
                                   std::to_string(seed));
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(ScenarioCoreDifferential, CheckpointSplitMatchesFullSweep) {
  for (const std::string_view name : core::scheduler_names()) {
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
      const ScenarioSpec spec = case_spec(name, seed);
      const std::string label =
          std::string(name) + " seed " + std::to_string(seed);
      const std::vector<std::uint8_t> expected =
          run_against_oracle(spec, label);

      SnapshotFile file;
      {
        ScenarioRun run(spec);
        run.advance_to(50 + (seed * 37) % 700);
        file = run.make_snapshot_file();
      }
      ScenarioRun resumed(spec, file);
      resumed.run_to_completion();
      EXPECT_EQ(tracker_bytes(resumed.finish().activity), expected) << label;
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(ScenarioCoreDifferential, SameCycleSingleFlitPacketNeverOpensAWindow) {
  // One single-flit packet into an idle scheduler arrives and departs in
  // cycle 3: its flow's queue is empty at every cycle boundary, so
  // neither tracker may record any activity.
  traffic::Trace trace;
  trace.num_flows = 2;
  trace.entries.push_back(traffic::TraceEntry{3, FlowId(1), 1});
  ScenarioConfig config;
  config.horizon = 10;
  ScenarioCore core("err", config, trace);
  core.run_to_completion();
  const ScenarioResult result = core.finish();
  EXPECT_EQ(result.service_log.total(FlowId(1)), 1);
  metrics::ActivityTracker idle(2);
  idle.finish(10);
  EXPECT_EQ(tracker_bytes(result.activity), tracker_bytes(idle));
}

}  // namespace
}  // namespace wormsched::harness
