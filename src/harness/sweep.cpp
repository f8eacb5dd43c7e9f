#include "harness/sweep.hpp"

#include <algorithm>
#include <optional>
#include <sstream>
#include <vector>

#include "common/assert.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"

namespace wormsched::harness {

std::string SweepResult::summary(const std::string& metric, int digits) const {
  const RunningStat& s = stats_.at(metric);
  std::ostringstream os;
  os << fixed(s.mean(), digits);
  if (s.count() > 1) os << " +/- " << fixed(s.stddev(), digits);
  return os.str();
}

std::vector<std::string> SweepResult::metrics() const {
  std::vector<std::string> names;
  names.reserve(stats_.size());
  for (const auto& [name, stat] : stats_) names.push_back(name);
  return names;
}

std::size_t sweep_workers(const SweepOptions& options) {
  const std::size_t jobs =
      options.jobs == 0 ? ThreadPool::hardware_workers() : options.jobs;
  return std::min(jobs, options.seeds);
}

SweepResult sweep_scenario(std::string_view scheduler_name,
                           const ScenarioConfig& config,
                           const traffic::WorkloadSpec& workload,
                           const SweepOptions& options,
                           const MetricExtractor& extract) {
  WS_CHECK(options.seeds > 0);
  // Each seed is an independent deterministic simulation; the buffer is
  // folded in seed order below, so the aggregate cannot depend on worker
  // scheduling.
  std::vector<std::optional<ScenarioResult>> per_seed(options.seeds);
  ThreadPool pool(sweep_workers(options));
  pool.parallel_for(options.seeds, [&](std::size_t k) {
    ScenarioConfig seed_config = config;
    seed_config.seed = options.base_seed + k;
    const traffic::Trace trace = traffic::generate_trace(
        workload, seed_config.horizon, seed_config.seed);
    per_seed[k].emplace(run_scenario(scheduler_name, seed_config, trace));
  });
  SweepResult aggregate;
  for (const auto& result : per_seed) extract(*result, aggregate);
  return aggregate;
}

SweepResult sweep_scenario(std::string_view scheduler_name,
                           ScenarioConfig config,
                           const traffic::WorkloadSpec& workload,
                           std::uint64_t base_seed, std::size_t seeds,
                           const MetricExtractor& extract) {
  SweepOptions options;
  options.base_seed = base_seed;
  options.seeds = seeds;
  return sweep_scenario(scheduler_name, config, workload, options, extract);
}

}  // namespace wormsched::harness
