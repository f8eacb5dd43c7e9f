#include "harness/network_sweep.hpp"

#include <optional>
#include <sstream>
#include <vector>

#include "common/assert.hpp"
#include "common/snapshot.hpp"
#include "harness/checkpoint.hpp"
#include "traffic/binary_trace.hpp"
#include "traffic/trace_io.hpp"

namespace wormsched::harness {

std::shared_ptr<const ReplayTrace> load_replay_trace(const std::string& path) {
  auto replay = std::make_shared<ReplayTrace>();
  replay->path = path;
  const std::vector<std::uint8_t> bytes = read_file_bytes(path, "trace");
  replay->crc = snapshot_crc32(bytes.data(), bytes.size());
  if (traffic::is_binary_trace(bytes.data(), bytes.size())) {
    replay->trace = traffic::decode_binary_trace(bytes);
  } else {
    std::istringstream csv(std::string(bytes.begin(), bytes.end()));
    replay->trace = traffic::load_trace(csv);
  }
  return replay;
}

NetworkScenarioResult run_network_scenario(const NetworkScenarioConfig& config,
                                           std::uint64_t seed) {
  // The single-segment special case of the resumable runner: straight
  // runs and checkpoint/restore chains execute the same code, so the
  // restore-equivalence differential holds by construction.
  NetworkRun run(config, seed);
  run.run_to_completion();
  return run.finish();
}

SweepResult sweep_network(const NetworkScenarioConfig& config,
                          const SweepOptions& options,
                          const NetworkMetricExtractor& extract) {
  WS_CHECK(options.seeds > 0);
  std::vector<std::optional<NetworkScenarioResult>> per_seed(options.seeds);
  for_each_seed(options, [&](std::size_t k) {
    NetworkScenarioConfig run_config = config;
    if (run_config.trace.enabled() && options.seeds > 1) {
      // One private trace file set per seed: parallel workers must never
      // share an output path (or a sink).
      if (!run_config.trace.chrome_path.empty())
        run_config.trace.chrome_path =
            obs::with_seed_suffix(run_config.trace.chrome_path, k);
      if (!run_config.trace.timeline_csv.empty())
        run_config.trace.timeline_csv =
            obs::with_seed_suffix(run_config.trace.timeline_csv, k);
    }
    per_seed[k].emplace(
        run_network_scenario(run_config, options.base_seed + k));
  });
  SweepResult aggregate;
  for (const auto& result : per_seed) {
    extract(*result, aggregate);
    if (config.audit)
      aggregate.add("audit_violations",
                    static_cast<double>(result->audit_violations));
  }
  return aggregate;
}

}  // namespace wormsched::harness
