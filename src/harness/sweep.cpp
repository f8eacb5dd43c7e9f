#include "harness/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "common/assert.hpp"
#include "common/table.hpp"
#include "common/tick_team.hpp"

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

std::size_t hardware_workers() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

std::size_t sweep_workers(const SweepOptions& options) {
  const std::size_t jobs =
      options.jobs == 0 ? hardware_workers() : options.jobs;
  return std::min(jobs, options.seeds);
}

void for_each_seed(const SweepOptions& options,
                   const std::function<void(std::size_t)>& run_seed) {
  const std::size_t lanes = sweep_workers(options);
  WS_CHECK_MSG(lanes <= std::numeric_limits<std::uint32_t>::max(),
               "a sweep's lane count must fit a TickTeam");
  // Seeds cost unevenly, so lanes pull indices instead of owning slices.
  // A failing lane pushes the counter past the end: the sweep is lost,
  // and no lane should start another seed for it.
  std::atomic<std::size_t> next{0};
  TickTeam team(static_cast<std::uint32_t>(lanes));
  team.run([&](std::uint32_t /*lane*/) {
    try {
      for (std::size_t k = next++; k < options.seeds; k = next++) run_seed(k);
    } catch (...) {
      next = options.seeds;
      throw;
    }
  });
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
  for_each_seed(options, [&](std::size_t k) {
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

}  // namespace wormsched::harness
