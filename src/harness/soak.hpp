// Soak mode: unbounded-horizon network runs in O(1) memory, chained
// across checkpointed segments.
//
// A soak run advances the fabric window by window, feeding the
// steady-state tracker at every window boundary (the observe cadence is
// part of the determinism contract: straight and restored segments hit
// the same boundaries, so the tracker state is bit-identical either way).
// Per-packet delivery logging is forced off — the only per-delivery costs
// are the O(1) accumulators (RunningStat, reservoir quantiles), which is
// what keeps memory flat over multi-million-cycle horizons.
//
// Chaining: each segment ends by writing a checkpoint whose trailing SOAK
// section carries the tracker, so `wormsched soak --restore` continues
// warm-up detection and steady-state sums exactly where the previous
// segment stopped.
#pragma once

#include <cstdint>
#include <string>

#include "common/archive.hpp"
#include "common/types.hpp"
#include "harness/network_sweep.hpp"
#include "metrics/windowed.hpp"

namespace wormsched::harness {

struct SoakOptions {
  /// Absolute cycle target for this segment (a resumed segment continues
  /// from the checkpoint's cycle toward this target).
  Cycle cycles = 5'000'000;
  /// Periodic checkpoint cadence in cycles; 0 = only the final checkpoint.
  Cycle checkpoint_every = 0;
  /// Checkpoint output path; empty = never write one (pure in-memory
  /// soak, e.g. the flat-memory test).
  std::string checkpoint_path;
  /// Windowed steady-state metrics configuration.
  metrics::WindowedConfig window;
};

struct SoakSummary {
  Cycle end_cycle = 0;
  std::uint64_t generated_packets = 0;
  std::uint64_t delivered_packets = 0;
  std::uint64_t delivered_flits = 0;
  /// Warm-up detection and windowed steady-state metrics.
  bool warmed_up = false;
  Cycle warmup_end = 0;
  std::uint64_t windows_closed = 0;
  double steady_mean_delay = 0.0;
  double steady_throughput = 0.0;
  /// Per-window mean-delay spread (flatness evidence).
  double window_mean_stddev = 0.0;
  std::uint64_t audit_violations = 0;
  std::uint64_t checkpoints_written = 0;
  /// How many restores preceded this segment (0 for a fresh soak).
  std::uint32_t restore_count = 0;
};

/// Runs a fresh soak of `config` (record_delivered is forced off) with
/// `seed` until `options.cycles` or fabric completion.
[[nodiscard]] SoakSummary run_soak(const NetworkScenarioConfig& config,
                                   std::uint64_t seed,
                                   const SoakOptions& options);

/// Resumes a soak from a checkpoint written by a previous segment.  The
/// network/source/tracker state comes from the file; `config` supplies
/// geometry and run-local wiring (audit, shards/threads), exactly as in
/// NetworkRun's restore contract.
[[nodiscard]] SoakSummary resume_soak(const NetworkScenarioConfig& config,
                                      const SnapshotFile& file,
                                      const SoakOptions& options);

/// The trailing SOAK section of a soak checkpoint: the steady-state
/// tracker, declared once for the save, the resume and the describer.
void soak_section(Archive& a, metrics::SteadyStateTracker& tracker);
/// Reads `file`'s SOAK section, when it has one, into `tracker`.
void read_soak_section(const SnapshotFile& file,
                       metrics::SteadyStateTracker& tracker,
                       FieldMap* map = nullptr);

}  // namespace wormsched::harness
