// Golden scenario checkpoint: the committed
// tests/data/golden_scenario_v2.wsnp pins the scenario-state (SSTA) bytes
// of format v2 — the scheduler, the service log, the activity tracker and
// the delay statistics — the way golden_v2.wsnp pins the fabric sections.
//
// The golden file was written by
//   WORMSCHED_GIT_SHA=golden-scenario-v2 wormsched run --scheduler err
//     --workload 'bern:0.08:u1-16*6;bern:0.003:u1-8*3;bern:0:c1*3'
//     --cycles 600 --checkpoint golden_scenario_v2.wsnp
// It holds flows 0-6 backlogged at the save, flows 7-8 that sent and went
// idle, and flows 9-11 that never sent.  The metrics tables keep rows only
// for flows that carried traffic, yet must write every configured flow,
// so a restore followed by a save must give back the golden byte for
// byte (compatibility policy in docs/TESTING.md).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/snapshot.hpp"
#include "harness/checkpoint.hpp"

namespace wormsched::harness {
namespace {

constexpr std::size_t kFlows = 12;

SnapshotFile golden() { return read_snapshot_file(WS_GOLDEN_SCENARIO); }

TEST(ScenarioGolden, LoadsAndCarriesProvenance) {
  const SnapshotFile file = golden();
  EXPECT_EQ(file.version, kSnapshotFormatVersion);
  const CheckpointProvenance prov = read_checkpoint_provenance(file);
  EXPECT_EQ(prov.kind, "scenario");
  EXPECT_EQ(prov.original_seed, 1u);
  EXPECT_EQ(prov.saved_git_sha, "golden-scenario-v2");
  EXPECT_EQ(prov.restore_count, 0u);
  EXPECT_EQ(prov.saved_cycle, 600u);
}

TEST(ScenarioGolden, ResaveReproducesThePayload) {
  // The resave names the same writing build, so the only byte that may
  // differ is META's restore count, one higher.  META is tag u32 | length
  // u64 | kind string | original seed u64 | build string | restore count
  // u32 | saved cycle u64; a string is a u64 length and its bytes.
  const SnapshotFile file = golden();
  const std::string sha = read_checkpoint_provenance(file).saved_git_sha;
  ASSERT_EQ(::setenv("WORMSCHED_GIT_SHA", sha.c_str(), 1), 0);
  const ScenarioRun run(ScenarioSpec{}, file);
  std::vector<std::uint8_t> expected = file.payload;
  const std::size_t restore_count_at =
      4 + 8 + (8 + std::string("scenario").size()) + 8 + (8 + sha.size());
  ASSERT_EQ(expected[restore_count_at], 0u);
  expected[restore_count_at] = 1;
  EXPECT_TRUE(run.checkpoint_payload() == expected);
}

TEST(ScenarioGolden, RestoredRunKeepsPerFlowOutputs) {
  // The golden run's own outputs, pinned when the golden was written.
  struct FlowOutputs {
    Flits served;
    std::size_t packets;
    double delay_sum;
    double delay_max;
    double delay_median;
    Cycle active_cycles;
    bool active_at_save;
  };
  constexpr std::array<FlowOutputs, kFlows> kExpected = {{
      {89, 10, 2297, 415, 255, 579, true},
      {79, 9, 2371, 463, 231, 582, true},
      {88, 15, 3130, 377, 231, 590, true},
      {103, 10, 2623, 479, 300, 583, true},
      {88, 8, 2048, 453, 303, 590, true},
      {98, 12, 1986, 372, 181, 585, true},
      {14, 3, 139, 59, 50, 117, true},
      {11, 2, 89, 54, 54, 59, false},
      {21, 5, 288, 66, 62, 288, false},
      {0, 0, 0, 0, 0, 0, false},
      {0, 0, 0, 0, 0, 0, false},
      {0, 0, 0, 0, 0, 0, false},
  }};
  ScenarioRun run(ScenarioSpec{}, golden());
  ASSERT_TRUE(run.done());
  const ScenarioResult result = run.finish();
  ASSERT_EQ(result.num_flows(), kFlows);
  EXPECT_EQ(result.end_cycle, 600u);
  EXPECT_EQ(result.service_log.grand_total(), 591);
  EXPECT_EQ(result.residual_backlog, 1'878);
  EXPECT_EQ(result.max_served_packet, 16);
  EXPECT_EQ(result.service_starts.size(), 74u);
  EXPECT_EQ(result.delays.packets(), 74u);
  for (std::size_t f = 0; f < kFlows; ++f) {
    const FlowId flow(static_cast<FlowId::rep_type>(f));
    const FlowOutputs& want = kExpected[f];
    EXPECT_EQ(result.service_log.total(flow), want.served) << f;
    EXPECT_EQ(result.delays.flow(flow).count(), want.packets) << f;
    EXPECT_EQ(result.delays.flow(flow).sum(), want.delay_sum) << f;
    EXPECT_EQ(result.delays.flow(flow).max(), want.delay_max) << f;
    EXPECT_EQ(result.delays.flow_quantile(flow, 0.5), want.delay_median)
        << f;
    EXPECT_EQ(result.activity.active_throughout(flow, 599, 600),
              want.active_at_save)
        << f;
    Cycle active_cycles = 0;
    for (Cycle t = 0; t < result.end_cycle; ++t)
      if (result.activity.active_throughout(flow, t, t + 1)) ++active_cycles;
    EXPECT_EQ(active_cycles, want.active_cycles) << f;
  }
}

}  // namespace
}  // namespace wormsched::harness
