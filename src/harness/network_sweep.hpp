// Multi-seed sweeps over the wormhole network substrate.
//
// The standalone sweep (sweep.hpp) replays traces through one scheduler;
// this is its analogue for whole-fabric runs: one NetworkScenarioConfig
// describes a (topology, router, traffic) point, run_network_scenario
// executes it for one seed, and sweep_network fans seeds across workers
// with the same index-ordered fold — and therefore the same determinism
// contract — as sweep_scenario.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "harness/sweep.hpp"
#include "metrics/perf_counters.hpp"
#include "obs/trace_export.hpp"
#include "traffic/workload.hpp"
#include "validate/faults.hpp"
#include "validate/network_auditor.hpp"
#include "wormhole/network.hpp"
#include "wormhole/patterns.hpp"

namespace wormsched::harness {

/// An arrival trace and the file it came from: a checkpoint records the
/// path and CRC, so that a restore can reload the trace and check it.
struct ReplayTrace {
  std::string path;
  traffic::Trace trace;
  std::uint32_t crc = 0;  // CRC-32 of the file's bytes
};

/// Reads the trace at `path`, binary or CSV (told apart by the binary
/// magic).  Throws on an unreadable or malformed file.
[[nodiscard]] std::shared_ptr<const ReplayTrace> load_replay_trace(
    const std::string& path);

struct NetworkScenarioConfig {
  wormhole::NetworkConfig network;
  /// Traffic for the run; `traffic.seed` is overridden per seed and
  /// `traffic.inject_until` must be finite (it bounds the run).
  wormhole::NetworkTrafficSource::Config traffic;
  /// When set, a TraceTrafficSource replays this trace in place of the
  /// law (with `traffic`'s pattern and seed) until its last arrival, and
  /// `faults` also perturbs the trace as a standalone run's do.
  std::shared_ptr<const ReplayTrace> trace_in;
  /// Drain cap: after injection the run continues until the fabric is
  /// idle or `inject_until * drain_factor` cycles (plus 1,000 for a
  /// trace) have elapsed.
  Cycle drain_factor = 50;
  /// Fault injection: a ScheduledFaults model (seeded with faults.seed +
  /// run seed, sized to the topology) is plugged into the network and the
  /// traffic source for the run's duration.
  validate::FaultSpec faults;
  /// Attach the runtime auditors: the NetworkAuditor observes every
  /// cycle (conservation + active-set), and an ErrAuditor subscribes to
  /// every ERR output arbiter in the fabric (paper bounds per port).
  bool audit = false;
  /// NetworkAuditor tuning when `audit` is set: mode (incremental ledger
  /// updates vs full rescans), check cadence, and the incremental mode's
  /// periodic full-rescan cross-check.
  validate::NetworkAuditorConfig audit_config;
  /// When auditing, also subscribe an ErrAuditor to every ERR output
  /// arbiter (paper bounds per port).  Off isolates the fabric
  /// conservation auditor — the bench times it that way to attribute
  /// audit cost to the network observer alone.
  bool audit_err = true;
  /// Optional external violation sink.  When null and audit is set, the
  /// runner uses a private log and only the counts survive in the result
  /// (Debug builds abort on the first violation either way).  Only
  /// meaningful for single-seed runs — sweep workers would share it
  /// unsynchronised.
  validate::AuditLog* audit_log = nullptr;
  /// Per-stage perf-counter sink attached to the network for the run's
  /// duration (not owned; nullptr = uninstrumented).  Only meaningful for
  /// single-seed runs — sweeps share the sink across workers unsynchronised.
  metrics::PerfCounters* perf_counters = nullptr;
  /// Structured event tracing for the run (docs/OBSERVABILITY.md).  Each
  /// run owns a private TraceSink (sweep workers never share one) and
  /// exports it when the run ends; sweeps rewrite the output paths per
  /// seed (trace.json -> trace.seedK.json).  When the auditor reports a
  /// violation the window around it is additionally dumped to
  /// <chrome_path>.violation.json.  Disabled (the default) the fabric
  /// hot path pays one null-pointer test per site.
  obs::TraceRequest trace;
};

/// Everything the network benches read out of one finished run.
struct NetworkScenarioResult {
  Cycle end_cycle = 0;
  std::uint64_t generated_packets = 0;
  std::uint64_t delivered_packets = 0;
  std::uint64_t delivered_flits = 0;
  RunningStat latency;        // per delivered packet, inject-to-tail
  double p99_latency = 0.0;
  /// Filled when NetworkScenarioConfig::audit ran.
  std::uint64_t audit_checks = 0;
  std::uint64_t audit_full_rescans = 0;
  std::uint64_t audit_violations = 0;
  std::uint64_t audit_opportunities = 0;
  /// Filled when NetworkScenarioConfig::trace was enabled.
  std::uint64_t trace_recorded = 0;
  std::uint64_t trace_dropped = 0;
};

/// Runs one network scenario with `seed` driving the traffic source.
[[nodiscard]] NetworkScenarioResult run_network_scenario(
    const NetworkScenarioConfig& config, std::uint64_t seed);

using NetworkMetricExtractor =
    std::function<void(const NetworkScenarioResult&, SweepResult&)>;

/// Runs `options.seeds` independent instances of `config` (seed k drives
/// the traffic with base_seed + k) across `options.jobs` workers and
/// folds the extracted metrics in seed order — byte-identical for every
/// jobs value.
[[nodiscard]] SweepResult sweep_network(const NetworkScenarioConfig& config,
                                        const SweepOptions& options,
                                        const NetworkMetricExtractor& extract);

}  // namespace wormsched::harness
