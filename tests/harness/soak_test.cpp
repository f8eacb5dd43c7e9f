// Soak-mode tests: checkpointed segment chains must reproduce the
// straight run's windowed steady-state metrics bit-exactly
// (docs/TESTING.md).
//
// The load-bearing property is the observe cadence: drive_soak stops at
// every window boundary regardless of where a segment started, so the
// boundary schedule — and therefore the SteadyStateTracker's entire
// state — depends only on (window, cycles), never on checkpoint
// placement.  These tests split soaks at awkward points (mid-window,
// multiple chained segments) and require exact-double equality against
// the uninterrupted run.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/archive.hpp"
#include "common/snapshot.hpp"
#include "harness/checkpoint.hpp"
#include "harness/network_sweep.hpp"
#include "harness/soak.hpp"
#include "metrics/windowed.hpp"
#include "wormhole/network.hpp"

namespace wormsched::harness {
namespace {

NetworkScenarioConfig soak_point() {
  NetworkScenarioConfig config;
  config.network.topo = wormhole::TopologySpec::mesh(4, 4);
  config.traffic.packets_per_node_per_cycle = 0.02;
  config.traffic.lengths = traffic::LengthSpec::uniform(1, 8);
  config.traffic.inject_until = 200'000;  // horizon: outlives every segment
  return config;
}

SoakOptions options_for(Cycle cycles, const std::string& checkpoint = "") {
  SoakOptions options;
  options.cycles = cycles;
  options.checkpoint_path = checkpoint;
  options.window.window = 2'000;
  options.window.stable_windows = 3;
  return options;
}

void expect_identical(const SoakSummary& a, const SoakSummary& b) {
  EXPECT_EQ(a.end_cycle, b.end_cycle);
  EXPECT_EQ(a.generated_packets, b.generated_packets);
  EXPECT_EQ(a.delivered_packets, b.delivered_packets);
  EXPECT_EQ(a.delivered_flits, b.delivered_flits);
  EXPECT_EQ(a.warmed_up, b.warmed_up);
  EXPECT_EQ(a.warmup_end, b.warmup_end);
  EXPECT_EQ(a.windows_closed, b.windows_closed);
  // Bit-exact doubles: the tracker state travels in the checkpoint.
  EXPECT_EQ(a.steady_mean_delay, b.steady_mean_delay);
  EXPECT_EQ(a.steady_throughput, b.steady_throughput);
  EXPECT_EQ(a.window_mean_stddev, b.window_mean_stddev);
  EXPECT_EQ(a.audit_violations, b.audit_violations);
  // restore_count / checkpoints_written legitimately differ.
}

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "soak_test_" + name + ".wsnp";
}

TEST(Soak, SplitSegmentMatchesStraightRunExactly) {
  const NetworkScenarioConfig config = soak_point();
  const SoakSummary straight = run_soak(config, 11, options_for(40'000));

  const std::string path = temp_path("split");
  // Segment 1 stops at 15,500 — deliberately inside a 2,000-cycle window,
  // so the restored segment must finish the partially-elapsed window.
  const SoakSummary first = run_soak(config, 11, options_for(15'500, path));
  EXPECT_EQ(first.end_cycle, 15'500u);
  const SoakSummary resumed =
      resume_soak(config, read_snapshot_file(path), options_for(40'000));
  EXPECT_EQ(resumed.restore_count, 1u);
  expect_identical(straight, resumed);
  std::remove(path.c_str());
}

TEST(Soak, ThreeSegmentChainMatchesStraightRunExactly) {
  const NetworkScenarioConfig config = soak_point();
  const SoakSummary straight = run_soak(config, 23, options_for(36'000));

  const std::string path = temp_path("chain");
  (void)run_soak(config, 23, options_for(9'300, path));
  (void)resume_soak(config, read_snapshot_file(path),
                    options_for(21'700, path));
  const SoakSummary last =
      resume_soak(config, read_snapshot_file(path), options_for(36'000));
  EXPECT_EQ(last.restore_count, 2u);
  expect_identical(straight, last);
  std::remove(path.c_str());
}

TEST(Soak, PeriodicCheckpointsDoNotPerturbTheRun) {
  // Writing checkpoints every N cycles must not change any metric: the
  // save path is const over the run state.
  const NetworkScenarioConfig config = soak_point();
  const SoakSummary quiet = run_soak(config, 31, options_for(30'000));
  const std::string path = temp_path("periodic");
  SoakOptions noisy = options_for(30'000, path);
  noisy.checkpoint_every = 7'000;  // off-window-boundary cadence
  const SoakSummary checkpointed = run_soak(config, 31, noisy);
  EXPECT_GE(checkpointed.checkpoints_written, 5u);  // 4 periodic + final
  expect_identical(quiet, checkpointed);

  // And the last periodic checkpoint resumes onto the straight path.
  const SoakSummary extended =
      resume_soak(config, read_snapshot_file(path), options_for(44'000));
  const SoakSummary straight44 = run_soak(config, 31, options_for(44'000));
  expect_identical(straight44, extended);
  std::remove(path.c_str());
}

TEST(Soak, ResumesFromNetworkCheckpointWithoutSoakSection) {
  // A checkpoint written by `wormsched network --checkpoint` has no SOAK
  // trailer; resume_soak starts a fresh tracker instead of failing.
  const NetworkScenarioConfig config = soak_point();
  SnapshotFile file;
  {
    NetworkRun run(config, 41);
    run.advance_to(10'000);
    file = run.make_snapshot_file();  // no SOAK section
  }
  const SoakSummary resumed = resume_soak(config, file, options_for(24'000));
  EXPECT_EQ(resumed.restore_count, 1u);
  EXPECT_EQ(resumed.end_cycle, 24'000u);
  EXPECT_GT(resumed.delivered_packets, 0u);
  EXPECT_GT(resumed.windows_closed, 0u);
}

TEST(Soak, ForcesO1DeliveryAccounting) {
  // Soak mode must run with the per-packet delivery log off while still
  // reporting full delivery counts from the O(1) accumulators.
  const NetworkScenarioConfig config = soak_point();  // record_delivered on
  const SoakSummary summary = run_soak(config, 51, options_for(20'000));
  EXPECT_GT(summary.delivered_packets, 0u);
  EXPECT_GT(summary.delivered_flits, summary.delivered_packets);
}

TEST(Soak, WarmupDetectionConvergesAndReportsSteadyStats) {
  const NetworkScenarioConfig config = soak_point();
  const SoakSummary summary = run_soak(config, 61, options_for(40'000));
  EXPECT_TRUE(summary.warmed_up);
  EXPECT_GT(summary.warmup_end, 0u);
  EXPECT_LT(summary.warmup_end, 40'000u);
  EXPECT_GT(summary.steady_mean_delay, 0.0);
  EXPECT_GT(summary.steady_throughput, 0.0);
  EXPECT_EQ(summary.windows_closed, 20u);  // 40,000 / 2,000
}

TEST(Soak, TrackerStateRoundTripsBitExactly) {
  // Unit-level: a mid-run tracker serialized and restored reports the
  // identical statistics and keeps closing windows identically.
  metrics::WindowedConfig wconfig;
  wconfig.window = 100;
  wconfig.stable_windows = 2;
  metrics::SteadyStateTracker a(wconfig);
  RunningStat cumulative;
  std::uint64_t flits = 0;
  for (Cycle t = 100; t <= 1'500; t += 100) {
    for (int i = 0; i < 20; ++i) cumulative.add(10.0 + 0.001 * i);
    flits += 160;
    a.observe(t, cumulative, flits);
  }

  SnapshotWriter w;
  save_fields(w, a);
  metrics::SteadyStateTracker b(wconfig);
  SnapshotReader r(w.bytes());
  restore_fields(r, b);
  EXPECT_EQ(a.warmed_up(), b.warmed_up());
  EXPECT_EQ(a.warmup_end(), b.warmup_end());
  EXPECT_EQ(a.windows_closed(), b.windows_closed());
  EXPECT_EQ(a.steady_mean_delay(), b.steady_mean_delay());
  EXPECT_EQ(a.steady_throughput(), b.steady_throughput());

  for (Cycle t = 1'600; t <= 2'000; t += 100) {
    for (int i = 0; i < 20; ++i) cumulative.add(11.0);
    flits += 160;
    a.observe(t, cumulative, flits);
    b.observe(t, cumulative, flits);
  }
  EXPECT_EQ(a.windows_closed(), b.windows_closed());
  EXPECT_EQ(a.steady_mean_delay(), b.steady_mean_delay());
  EXPECT_EQ(a.steady_throughput(), b.steady_throughput());
}

}  // namespace
}  // namespace wormsched::harness
