// Multi-seed sweeps with summary statistics.
//
// Single-run numbers from a stochastic workload are noisy; the benches
// that report deltas between schedulers (Fig. 5, ablations) average over
// seeds.  SweepResult aggregates any named scalar metric across repeats
// and exposes mean / stddev / extremes, so benches can print confidence
// information instead of point estimates.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "harness/scenario.hpp"

namespace wormsched::harness {

/// Aggregated metrics from repeating one scenario across seeds.
class SweepResult {
 public:
  void add(const std::string& metric, double value) {
    stats_[metric].add(value);
  }

  [[nodiscard]] bool has(const std::string& metric) const {
    return stats_.count(metric) != 0;
  }
  [[nodiscard]] const RunningStat& stat(const std::string& metric) const {
    return stats_.at(metric);
  }
  [[nodiscard]] double mean(const std::string& metric) const {
    return stats_.at(metric).mean();
  }
  [[nodiscard]] double stddev(const std::string& metric) const {
    return stats_.at(metric).stddev();
  }
  /// Mean +/- one standard deviation, formatted for tables.
  [[nodiscard]] std::string summary(const std::string& metric,
                                    int digits = 1) const;

  [[nodiscard]] std::vector<std::string> metrics() const;

 private:
  std::map<std::string, RunningStat> stats_;
};

/// Extracts named metrics from one finished run.
using MetricExtractor =
    std::function<void(const ScenarioResult&, SweepResult&)>;

/// How a multi-seed sweep runs.  Seeds are independent simulations, so
/// they fan out across `jobs` workers; the per-seed results are collected
/// into an index-ordered buffer and folded serially, which makes the
/// aggregate byte-identical for every jobs value (the determinism
/// contract docs/PERFORMANCE.md spells out).
struct SweepOptions {
  std::uint64_t base_seed = 1;
  std::size_t seeds = 1;
  std::size_t jobs = 1;  // worker threads; 0 = one per hardware thread
};

/// The machine's hardware thread count (>= 1).
[[nodiscard]] std::size_t hardware_workers();

/// The worker count a sweep gets: `jobs` (0 resolved to one per hardware
/// thread first), capped at the seed count, since a worker without a
/// seed would only idle.
[[nodiscard]] std::size_t sweep_workers(const SweepOptions& options);

/// Calls run_seed(k) once for every k in [0, options.seeds), on a
/// TickTeam of sweep_workers(options) lanes that take indices from one
/// shared counter; one lane runs inline on the caller.  A seed that
/// throws stops every lane from starting another, and the first error is
/// rethrown here once all lanes have stopped.
void for_each_seed(const SweepOptions& options,
                   const std::function<void(std::size_t)>& run_seed);

/// Runs `scheduler_name` over `options.seeds` independently generated
/// instances of `workload` (seed k uses base_seed + k) and aggregates the
/// extracted metrics.  The per-seed trace generation matches
/// run_scenario's convention, so two sweeps with the same base seed see
/// identical traffic.
[[nodiscard]] SweepResult sweep_scenario(std::string_view scheduler_name,
                                         const ScenarioConfig& config,
                                         const traffic::WorkloadSpec& workload,
                                         const SweepOptions& options,
                                         const MetricExtractor& extract);

}  // namespace wormsched::harness
