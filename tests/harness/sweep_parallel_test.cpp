// The parallel-sweep determinism contract (docs/PERFORMANCE.md): seeds
// fan across workers but fold in seed order, so every aggregate is
// byte-identical for any --jobs value.  These tests pin exact equality —
// EXPECT_EQ on doubles, not near — between jobs=1 and jobs=4 for both
// the standalone and the network sweep paths.
#include <gtest/gtest.h>

#include "harness/network_sweep.hpp"
#include "harness/sweep.hpp"

namespace wormsched::harness {
namespace {

traffic::WorkloadSpec light_workload() {
  traffic::WorkloadSpec spec;
  traffic::FlowSpec f;
  f.arrival = traffic::ArrivalSpec::bernoulli(0.02);
  f.length = traffic::LengthSpec::uniform(1, 8);
  spec.flows = {f, f, f};
  return spec;
}

MetricExtractor standalone_extractor() {
  return [](const ScenarioResult& r, SweepResult& out) {
    out.add("mean_delay", r.delays.overall().mean());
    out.add("served", static_cast<double>(r.service_log.grand_total()));
    out.add("end_cycle", static_cast<double>(r.end_cycle));
  };
}

void expect_identical(const SweepResult& a, const SweepResult& b) {
  const auto names = a.metrics();
  ASSERT_EQ(names, b.metrics());
  for (const auto& name : names) {
    const RunningStat& sa = a.stat(name);
    const RunningStat& sb = b.stat(name);
    EXPECT_EQ(sa.count(), sb.count()) << name;
    // Exact bit equality, not EXPECT_DOUBLE_EQ: the fold order is the
    // contract, and identical order means identical rounding.
    EXPECT_EQ(sa.mean(), sb.mean()) << name;
    EXPECT_EQ(sa.stddev(), sb.stddev()) << name;
    EXPECT_EQ(sa.min(), sb.min()) << name;
    EXPECT_EQ(sa.max(), sb.max()) << name;
  }
}

TEST(SweepParallel, StandaloneJobs4MatchesJobs1Exactly) {
  ScenarioConfig config;
  config.horizon = 4000;
  config.drain = true;
  SweepOptions serial;
  serial.base_seed = 11;
  serial.seeds = 6;
  serial.jobs = 1;
  SweepOptions parallel = serial;
  parallel.jobs = 4;
  const SweepResult a = sweep_scenario("err", config, light_workload(),
                                       serial, standalone_extractor());
  const SweepResult b = sweep_scenario("err", config, light_workload(),
                                       parallel, standalone_extractor());
  ASSERT_EQ(a.stat("served").count(), 6u);
  expect_identical(a, b);
}

TEST(SweepParallel, LegacyOverloadMatchesOptionsOverload) {
  ScenarioConfig config;
  config.horizon = 4000;
  config.drain = true;
  SweepOptions options;
  options.base_seed = 3;
  options.seeds = 4;
  options.jobs = 1;
  const SweepResult a = sweep_scenario("drr", config, light_workload(),
                                       options, standalone_extractor());
  const SweepResult b = sweep_scenario("drr", config, light_workload(),
                                       /*base_seed=*/3, /*seeds=*/4,
                                       standalone_extractor());
  expect_identical(a, b);
}

NetworkScenarioConfig small_network_point() {
  NetworkScenarioConfig point;
  point.network.topo = wormhole::TopologySpec::mesh(4, 4);
  point.traffic.packets_per_node_per_cycle = 0.02;
  point.traffic.inject_until = 2000;
  point.traffic.lengths = traffic::LengthSpec::uniform(1, 8);
  return point;
}

NetworkMetricExtractor network_extractor() {
  return [](const NetworkScenarioResult& r, SweepResult& out) {
    out.add("delivered", static_cast<double>(r.delivered_packets));
    out.add("flits", static_cast<double>(r.delivered_flits));
    out.add("mean_latency", r.latency.mean());
    out.add("p99_latency", r.p99_latency);
    out.add("end_cycle", static_cast<double>(r.end_cycle));
  };
}

TEST(SweepParallel, PoolIsNoLargerThanTheSeedCount) {
  // `network --seeds 2 --jobs 6` used to start six workers for two seeds.
  const auto workers = [](std::size_t seeds, std::size_t jobs) {
    SweepOptions options;
    options.seeds = seeds;
    options.jobs = jobs;
    return sweep_workers(options);
  };
  EXPECT_EQ(workers(2, 6), 2u);
  EXPECT_EQ(workers(6, 2), 2u);
  EXPECT_EQ(workers(3, 3), 3u);
  EXPECT_EQ(workers(1, 4), 1u);
  // 0 means one worker per hardware thread, resolved before the cap.
  EXPECT_EQ(workers(1, 0), 1u);
  EXPECT_GE(workers(1000, 0), 1u);
  EXPECT_LE(workers(1000, 0), 1000u);
}

TEST(SweepParallel, NetworkJobs4MatchesJobs1Exactly) {
  SweepOptions serial;
  serial.base_seed = 21;
  serial.seeds = 5;
  serial.jobs = 1;
  SweepOptions parallel = serial;
  parallel.jobs = 4;
  const SweepResult a =
      sweep_network(small_network_point(), serial, network_extractor());
  const SweepResult b =
      sweep_network(small_network_point(), parallel, network_extractor());
  ASSERT_EQ(a.stat("delivered").count(), 5u);
  EXPECT_GT(a.mean("delivered"), 0.0);
  expect_identical(a, b);
}

TEST(SweepParallel, JobsZeroMeansAllCoresAndStaysIdentical) {
  SweepOptions serial;
  serial.base_seed = 7;
  serial.seeds = 3;
  serial.jobs = 1;
  SweepOptions all_cores = serial;
  all_cores.jobs = 0;
  const SweepResult a =
      sweep_network(small_network_point(), serial, network_extractor());
  const SweepResult b =
      sweep_network(small_network_point(), all_cores, network_extractor());
  expect_identical(a, b);
}

}  // namespace
}  // namespace wormsched::harness
