// Checkpoint/restore containers and resumable runners.
//
// A checkpoint file is a versioned snapshot container (common/snapshot.hpp)
// whose payload is a sequence of tagged sections:
//
//   META — kind ("network" | "scenario"), provenance (original seed, the
//          saving build's git SHA, restore count, saved cycle);
//   NCFG / SCFG — the generative run configuration (traffic law, fault
//          spec, horizon, workload text, ...), so a restored run rebuilds
//          its inputs without re-supplying them on the command line;
//   NTRC (trace-driven network runs only) — the replayed trace's path,
//          arrival count and file CRC-32, checked when a restore reloads it;
//   NNET + NSRC (network runs) — the full fabric and traffic-source
//          state; SSTA (scenario runs) — scheduler + metrics + replay
//          cursor state;
//   trailing sections (e.g. SOAK, the steady-state tracker) are owned by
//          the caller and skipped by readers that do not know them.
//
// The resumable runners (NetworkRun, ScenarioRun) are the load-bearing
// design point: the straight path and the checkpointed path execute the
// SAME segmented code — run_network_scenario drives a NetworkRun to
// completion, run_scenario the scenario core ScenarioRun is built on — so
// "checkpoint at cycle k, restore, continue" is flit-for-flit identical
// to an uninterrupted run by construction, which is exactly what the
// restore-equivalence differential suite asserts.
//
// Sharding/threading is runner-local, never serialized: a checkpoint
// written by a serial run restores under --threads 4 (and vice versa)
// with bit-identical results.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/archive.hpp"
#include "common/assert.hpp"
#include "common/types.hpp"
#include "harness/network_sweep.hpp"
#include "harness/scenario.hpp"
#include "obs/trace_export.hpp"
#include "obs/trace_sink.hpp"
#include "validate/err_auditor.hpp"
#include "validate/faults.hpp"
#include "validate/network_auditor.hpp"
#include "validate/violation.hpp"
#include "wormhole/network.hpp"
#include "wormhole/patterns.hpp"

namespace wormsched::harness {

/// Checkpoint payload section tags (ASCII, little-endian).
inline constexpr std::uint32_t kCkptMetaTag = 0x4154454Du;     // "META"
inline constexpr std::uint32_t kCkptNetConfigTag = 0x4746434Eu;  // "NCFG"
inline constexpr std::uint32_t kCkptTraceTag = 0x4352544Eu;    // "NTRC"
inline constexpr std::uint32_t kCkptNetworkTag = 0x54454E4Eu;  // "NNET"
inline constexpr std::uint32_t kCkptSourceTag = 0x4352534Eu;   // "NSRC"
inline constexpr std::uint32_t kCkptScenConfigTag = 0x47464353u;  // "SCFG"
inline constexpr std::uint32_t kCkptScenStateTag = 0x41545353u;   // "SSTA"
inline constexpr std::uint32_t kCkptSoakTag = 0x4B414F53u;     // "SOAK"

/// Provenance embedded in (and read back from) every checkpoint.
struct CheckpointProvenance {
  std::string kind;                // "network" or "scenario"
  std::uint64_t original_seed = 0;  // seed that started the run chain
  std::string saved_git_sha;       // build that wrote this snapshot
  std::uint32_t restore_count = 0;  // restores preceding this save
  Cycle saved_cycle = 0;

  /// The META section; a restore rejects an unknown kind.
  void fields(Archive& a);
};

/// Reads a checkpoint's META section (without restoring anything).
[[nodiscard]] CheckpointProvenance read_checkpoint_provenance(
    const SnapshotFile& file);

/// --- Network runs ---------------------------------------------------------

/// `config` with the inputs a network checkpoint fixes in place of its
/// own (`traffic`, `faults` with the run seed added to its seed,
/// `drain_factor`, `trace_in`), read without restoring any state; the
/// trace is found and checked as a restore does.
[[nodiscard]] NetworkScenarioConfig read_network_inputs(
    const SnapshotFile& file, NetworkScenarioConfig config);

/// Resumable whole-fabric run.  Owns the network, traffic source, fault
/// model, auditors and trace sink for one (config, seed) scenario and
/// advances them in segments; run_network_scenario() is the single-segment
/// special case.
class NetworkRun {
 public:
  /// Fresh run of `config` with `seed` (the exact wiring
  /// run_network_scenario has always done).
  NetworkRun(const NetworkScenarioConfig& config, std::uint64_t seed);

  /// Restored run.  Sim-defining inputs (traffic law and seed, fault
  /// spec, injection horizon, drain factor, trace) come from the
  /// checkpoint; `config` supplies the fabric geometry (checked against
  /// the snapshot), the run-local wiring — audit mode, trace request,
  /// shards and threads — and optionally the trace's file (`trace_in`).
  /// Throws SnapshotError on any mismatch or corruption.  With `map`, the
  /// restore also records every field it reads (describe_checkpoint).
  NetworkRun(const NetworkScenarioConfig& config, const SnapshotFile& file,
             FieldMap* map = nullptr);

  ~NetworkRun();
  NetworkRun(const NetworkRun&) = delete;
  NetworkRun& operator=(const NetworkRun&) = delete;

  [[nodiscard]] Cycle now() const { return now_; }
  [[nodiscard]] bool done() const;

  /// Advances the run to cycle `target` (or to completion, whichever is
  /// first).  Segmentation is invisible: advance_to(k) then
  /// advance_to(N) computes the identical run as advance_to(N) alone.
  void advance_to(Cycle target);
  void run_to_completion();

  /// Serializes the full run as a checkpoint payload; `extra`, when set,
  /// appends caller-owned trailing sections (the soak harness stores its
  /// steady-state tracker this way).
  using ExtraSections = std::function<void(SnapshotWriter&)>;
  [[nodiscard]] std::vector<std::uint8_t> checkpoint_payload(
      const ExtraSections& extra = {}) const;
  /// Writes the checkpoint container (payload + wormsched-manifest-v1
  /// provenance JSON) to `path`.  Throws std::runtime_error on I/O error.
  void save_checkpoint(const std::string& path,
                       const ExtraSections& extra = {}) const;
  /// In-memory container (tests and soak chaining).
  [[nodiscard]] SnapshotFile make_snapshot_file(
      const ExtraSections& extra = {}) const;

  /// Finalizes auditors/trace exports and collects the result.  Call once,
  /// after the run is done (or after the last segment of interest).
  [[nodiscard]] NetworkScenarioResult finish();

  [[nodiscard]] wormhole::Network& network() { return *net_; }
  [[nodiscard]] const wormhole::Network& network() const { return *net_; }
  /// The law-driven source; a trace-driven run has none.
  [[nodiscard]] const wormhole::NetworkTrafficSource& source() const {
    WS_CHECK_MSG(source_ != nullptr, "a trace-driven run has no law source");
    return *source_;
  }
  [[nodiscard]] const NetworkScenarioConfig& config() const { return config_; }
  [[nodiscard]] validate::AuditLog& audit_log() { return *audit_log_; }
  /// Whether this run was restored from a checkpoint, and from where.
  [[nodiscard]] bool restored() const { return restored_; }
  [[nodiscard]] const obs::TraceProvenance& trace_provenance() const {
    return trace_provenance_;
  }
  [[nodiscard]] std::uint64_t original_seed() const { return original_seed_; }
  [[nodiscard]] std::uint32_t restore_count() const { return restore_count_; }

 private:
  void build();
  void wire_observers();
  /// The payload's one declaration: META, NCFG, NTRC, NNET and NSRC.
  void fields(Archive& a);

  NetworkScenarioConfig config_;  // effective (faults resolved, seed applied)
  std::optional<validate::ScheduledFaults> faults_;
  std::unique_ptr<wormhole::Network> net_;
  // The law's source, or a replay of config_.trace_in (or faulted_trace_).
  std::unique_ptr<wormhole::NetworkTrafficSource> source_;
  traffic::Trace faulted_trace_;
  std::unique_ptr<wormhole::TraceTrafficSource> trace_source_;
  std::optional<obs::TraceSink> trace_sink_;
  validate::AuditLog private_log_;
  validate::AuditLog* audit_log_ = nullptr;
  std::optional<validate::NetworkAuditor> net_auditor_;
  std::vector<std::unique_ptr<validate::ErrAuditor>> err_auditors_;
  bool violation_window_dumped_ = false;
  Cycle now_ = 0;  // the next cycle to run
  Cycle end_cycle_ = 0;
  bool finished_ = false;

  std::uint64_t original_seed_ = 0;
  std::uint32_t restore_count_ = 0;
  bool restored_ = false;
  obs::TraceProvenance trace_provenance_;
};

/// --- Scenario runs --------------------------------------------------------

/// Everything that defines a standalone-scheduler run generatively: the
/// discipline, the workload grammar text it was launched with, the
/// ScenarioConfig, and the trace-fault spec.  All of it travels in the
/// checkpoint so a restore rebuilds the identical arrival trace.
struct ScenarioSpec {
  std::string scheduler = "err";
  std::string workload_text;
  ScenarioConfig config;
  validate::FaultSpec faults;
};

class ScenarioCore;

/// Resumable standalone-scheduler run: the shared scenario core
/// (harness/scenario_core.hpp) plus workload expansion and checkpointing.
/// run_scenario() drives the same core for trace-supplied callers.
class ScenarioRun {
 public:
  /// Fresh run: expands `spec.workload_text`, generates the trace with
  /// `spec.config.seed`, applies trace faults.
  explicit ScenarioRun(const ScenarioSpec& spec);

  /// Restored run: the sim-defining parts of the spec (scheduler,
  /// workload, horizon, drain, seed, weights, faults) are read from the
  /// checkpoint; `wiring` contributes only audit/trace attachments.  With
  /// `map`, the restore also records every field it reads.
  ScenarioRun(const ScenarioSpec& wiring, const SnapshotFile& file,
              FieldMap* map = nullptr);

  ~ScenarioRun();
  ScenarioRun(const ScenarioRun&) = delete;
  ScenarioRun& operator=(const ScenarioRun&) = delete;

  [[nodiscard]] Cycle now() const;
  [[nodiscard]] bool done() const;
  void advance_to(Cycle target);
  void run_to_completion();

  [[nodiscard]] std::vector<std::uint8_t> checkpoint_payload() const;
  void save_checkpoint(const std::string& path) const;
  [[nodiscard]] SnapshotFile make_snapshot_file() const;

  /// Finalizes the run (activity windows, audit counters) and yields the
  /// result.  Call once, when done.
  [[nodiscard]] ScenarioResult finish();

  [[nodiscard]] const ScenarioSpec& spec() const { return spec_; }
  [[nodiscard]] bool restored() const { return restored_; }
  [[nodiscard]] const obs::TraceProvenance& trace_provenance() const {
    return trace_provenance_;
  }

 private:
  void build();
  /// The payload's one declaration: META, SCFG and SSTA.
  void fields(Archive& a);

  ScenarioSpec spec_;
  traffic::Trace trace_;
  std::unique_ptr<ScenarioCore> core_;  // references spec_.config, trace_

  std::uint64_t original_seed_ = 0;
  std::uint32_t restore_count_ = 0;
  bool restored_ = false;
  obs::TraceProvenance trace_provenance_;
};

/// The field map of a network or scenario checkpoint: `file` restored
/// into a run built from `geometry` (network checkpoints; a scenario
/// checkpoint carries all it needs) with recording on, then any trailing
/// SOAK section into a steady-state tracker.  Throws what the restore
/// throws.
[[nodiscard]] FieldMap describe_checkpoint(
    const SnapshotFile& file, const NetworkScenarioConfig& geometry = {});

}  // namespace wormsched::harness
