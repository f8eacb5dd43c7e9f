// The parallel-sweep determinism contract (docs/PERFORMANCE.md): seeds
// fan across workers but fold in seed order, so every aggregate is
// byte-identical for any --jobs value.  These tests pin exact equality —
// EXPECT_EQ on doubles, not near — between jobs=1 and jobs=4 for both
// the standalone and the network sweep paths, and the fan-out itself:
// for_each_seed runs every seed once and hands a seed's error back.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

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

TEST(SweepParallel, ForEachSeedRunsEverySeedExactlyOnce) {
  SweepOptions options;
  options.seeds = 37;
  options.jobs = 4;
  std::vector<std::atomic<int>> calls(options.seeds);
  for_each_seed(options, [&](std::size_t k) { ++calls[k]; });
  for (std::size_t k = 0; k < calls.size(); ++k)
    EXPECT_EQ(calls[k].load(), 1) << "seed " << k;
  options.seeds = 0;
  for_each_seed(options, [](std::size_t) { ADD_FAILURE(); });
}

// A seed's exception reaches the caller as itself, and only once every
// lane has stopped: the seeds after it outlast the failure, so a caller
// that did not wait for them would still see them running.  The failure
// also stops the lanes from starting the rest: draining them would take
// the other three lanes 50 ms of sleeps.
TEST(SweepParallel, ASeedsErrorReachesTheCallerOnceEveryLaneStops) {
  for (const std::size_t jobs : {1u, 4u}) {
    SweepOptions options;
    options.seeds = 37;
    options.jobs = jobs;
    std::atomic<int> running{0};
    std::atomic<std::size_t> started{0};
    std::atomic<bool> thrown{false};
    try {
      for_each_seed(options, [&](std::size_t k) {
        ++started;
        if (k == 5) {
          thrown = true;
          throw std::runtime_error("seed 5");
        }
        ++running;
        if (k > 5) {
          while (!thrown) std::this_thread::yield();
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        --running;
      });
      ADD_FAILURE() << "jobs " << jobs << ": no error reached the caller";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "seed 5") << "jobs " << jobs;
      EXPECT_EQ(running.load(), 0) << "jobs " << jobs;
    }
    EXPECT_LT(started.load(), options.seeds) << "jobs " << jobs;
    // Serially, no seed after the failing one starts.
    if (jobs == 1) {
      EXPECT_EQ(started.load(), 6u);
    }
  }
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
  EXPECT_GE(hardware_workers(), 1u);
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
