#include "harness/soak.hpp"

#include <algorithm>

#include "harness/checkpoint.hpp"
#include "metrics/windowed.hpp"

namespace wormsched::harness {

namespace {

/// Advances `run` to `options.cycles`, stopping at every window boundary
/// (and checkpoint boundary) to feed the tracker.  The boundary schedule
/// depends only on (window, checkpoint_every, cycles), never on where a
/// previous segment stopped — that is what makes a restored segment's
/// tracker bit-identical to the straight run's.
SoakSummary drive_soak(NetworkRun& run, metrics::SteadyStateTracker& tracker,
                       const SoakOptions& options) {
  const Cycle window = std::max<Cycle>(1, options.window.window);
  std::uint64_t checkpoints_written = 0;
  const auto save_with_tracker = [&](const std::string& path) {
    run.save_checkpoint(path, [&tracker](SnapshotWriter& w) {
      Archive a(w);
      soak_section(a, tracker);
    });
    ++checkpoints_written;
  };

  Cycle next_checkpoint = kCycleMax;
  if (options.checkpoint_every > 0 && !options.checkpoint_path.empty())
    next_checkpoint =
        (run.now() / options.checkpoint_every + 1) * options.checkpoint_every;

  while (!run.done() && run.now() < options.cycles) {
    const Cycle next_boundary = (run.now() / window + 1) * window;
    const Cycle target =
        std::min({next_boundary, next_checkpoint, options.cycles});
    run.advance_to(target);
    tracker.observe(run.now(), run.network().latency_overall(),
                    run.network().delivered_flits());
    if (run.now() >= next_checkpoint) {
      save_with_tracker(options.checkpoint_path);
      next_checkpoint += options.checkpoint_every;
    }
  }

  if (!options.checkpoint_path.empty()) save_with_tracker(options.checkpoint_path);

  SoakSummary summary;
  summary.end_cycle = run.now();
  summary.warmed_up = tracker.warmed_up();
  summary.warmup_end = tracker.warmup_end();
  summary.windows_closed = tracker.windows_closed();
  summary.steady_mean_delay = tracker.steady_mean_delay();
  summary.steady_throughput = tracker.steady_throughput();
  summary.window_mean_stddev = tracker.window_means().stddev();
  summary.checkpoints_written = checkpoints_written;
  summary.restore_count = run.restore_count();
  // finish() last: the audit-flush pass may add tail-window violations.
  const NetworkScenarioResult result = run.finish();
  summary.generated_packets = result.generated_packets;
  summary.delivered_packets = result.delivered_packets;
  summary.delivered_flits = result.delivered_flits;
  summary.audit_violations = result.audit_violations;
  return summary;
}

/// Soak runs never keep the per-packet delivery log: memory must stay
/// O(1) regardless of horizon.
NetworkScenarioConfig soak_config(const NetworkScenarioConfig& config) {
  NetworkScenarioConfig effective = config;
  effective.network.record_delivered = false;
  return effective;
}

}  // namespace

SoakSummary run_soak(const NetworkScenarioConfig& config, std::uint64_t seed,
                     const SoakOptions& options) {
  NetworkRun run(soak_config(config), seed);
  metrics::SteadyStateTracker tracker(options.window);
  return drive_soak(run, tracker, options);
}

SoakSummary resume_soak(const NetworkScenarioConfig& config,
                        const SnapshotFile& file, const SoakOptions& options) {
  NetworkRun run(soak_config(config), file);
  // The tracker travels as a trailing SOAK section the NetworkRun restore
  // deliberately leaves unread; a checkpoint written by `wormsched
  // network` (no SOAK section) resumes with a fresh tracker.
  metrics::SteadyStateTracker tracker(options.window);
  read_soak_section(file, tracker);
  return drive_soak(run, tracker, options);
}

void soak_section(Archive& a, metrics::SteadyStateTracker& tracker) {
  a.section(kCkptSoakTag, "SOAK", [&] { tracker.fields(a); });
}

void read_soak_section(const SnapshotFile& file,
                       metrics::SteadyStateTracker& tracker, FieldMap* map) {
  SnapshotReader r(file.payload);
  while (r.peek_section() != 0 && r.peek_section() != kCkptSoakTag)
    r.skip_section();
  Archive a(r, map);
  if (r.peek_section() == kCkptSoakTag) soak_section(a, tracker);
}

}  // namespace wormsched::harness
