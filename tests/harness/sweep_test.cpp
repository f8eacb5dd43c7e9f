#include "harness/sweep.hpp"

#include <gtest/gtest.h>

namespace wormsched::harness {
namespace {

traffic::WorkloadSpec light_workload() {
  traffic::WorkloadSpec spec;
  traffic::FlowSpec f;
  f.arrival = traffic::ArrivalSpec::bernoulli(0.01);
  f.length = traffic::LengthSpec::uniform(1, 8);
  spec.flows = {f, f};
  return spec;
}

MetricExtractor delay_extractor() {
  return [](const ScenarioResult& r, SweepResult& out) {
    out.add("mean_delay", r.delays.overall().mean());
    out.add("packets", static_cast<double>(r.delays.packets()));
  };
}

SweepOptions seeds(std::uint64_t base_seed, std::size_t count) {
  SweepOptions options;
  options.base_seed = base_seed;
  options.seeds = count;
  return options;
}

TEST(Sweep, AggregatesAcrossSeeds) {
  ScenarioConfig config;
  config.horizon = 5000;
  config.drain = true;
  const SweepResult result = sweep_scenario("err", config, light_workload(),
                                            seeds(1, 4), delay_extractor());
  ASSERT_TRUE(result.has("mean_delay"));
  EXPECT_EQ(result.stat("mean_delay").count(), 4u);
  EXPECT_GT(result.mean("mean_delay"), 0.0);
  EXPECT_GT(result.mean("packets"), 10.0);
}

TEST(Sweep, DifferentSeedsProduceVariance) {
  ScenarioConfig config;
  config.horizon = 5000;
  config.drain = true;
  const SweepResult result = sweep_scenario("err", config, light_workload(),
                                            seeds(1, 6), delay_extractor());
  EXPECT_GT(result.stddev("packets"), 0.0);
}

TEST(Sweep, SameBaseSeedReproduces) {
  ScenarioConfig config;
  config.horizon = 5000;
  config.drain = true;
  const SweepResult a = sweep_scenario("drr", config, light_workload(),
                                       seeds(9, 3), delay_extractor());
  const SweepResult b = sweep_scenario("drr", config, light_workload(),
                                       seeds(9, 3), delay_extractor());
  EXPECT_DOUBLE_EQ(a.mean("mean_delay"), b.mean("mean_delay"));
  EXPECT_DOUBLE_EQ(a.stddev("mean_delay"), b.stddev("mean_delay"));
}

TEST(Sweep, SummaryFormatsMeanAndSpread) {
  SweepResult result;
  result.add("x", 1.0);
  result.add("x", 3.0);
  EXPECT_EQ(result.summary("x", 1), "2.0 +/- 1.4");
  result.add("single_only", 5.0);
  EXPECT_EQ(result.summary("single_only", 0), "5");
}

TEST(Sweep, MetricsLists) {
  SweepResult result;
  result.add("b", 1.0);
  result.add("a", 1.0);
  const auto names = result.metrics();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "a");  // map order
  EXPECT_FALSE(result.has("c"));
}

}  // namespace
}  // namespace wormsched::harness
