// Deterministic, seed-driven fault injection.
//
// ScheduledFaults implements the wormhole::FaultModel hooks from a
// FaultSpec: time is cut into fixed `window`-cycle epochs and every
// decision — is the fabric stalled, is this node's credit return starved,
// is this source muted or bursting — is a pure hash of
// (seed, fault kind, epoch, node).  Nothing depends on call order or call
// count, so the serial and the sharded network tick (which interleave
// their queries differently) observe the *identical* fault schedule; that
// property is what the flit-for-flit ShardedFuzzTest relies on.
//
// Faults perturb timing and traffic only.  No flit or credit is ever
// dropped, so every conservation invariant the network auditor checks
// must keep holding with faults enabled — which is exactly what makes
// fault runs a stress test of the invariants rather than of the checker.
//
// apply_trace_faults() is the standalone-scheduler analogue: it perturbs
// an arrival trace (jitter, drops, duplicate bursts) deterministically.
// Any trace is a valid scheduler input, so the ERR bounds must survive
// every such perturbation.
#pragma once

#include <cstdint>
#include <string>

#include "common/types.hpp"
#include "traffic/workload.hpp"
#include "wormhole/fault_hooks.hpp"

namespace wormsched::validate {

struct FaultSpec {
  bool enabled = false;
  std::uint64_t seed = 1;
  /// Epoch length in cycles; every fault decision is per-epoch.
  Cycle window = 64;

  /// P(an epoch opens with a fabric-wide link stall) and its length.
  double link_stall_rate = 0.0;
  Cycle link_stall_cycles = 4;

  /// P(a node's credit returns are starved for the start of an epoch).
  /// Affected credits are quarantined until the stall window closes.
  double credit_stall_rate = 0.0;
  Cycle credit_stall_cycles = 16;

  /// P(a traffic source is muted for an epoch) — activate/deactivate churn.
  double churn_rate = 0.0;

  /// P(a source bursts for an epoch): its injection rate is multiplied and
  /// its packets are redirected to an epoch-chosen hotspot node.
  double burst_rate = 0.0;
  double burst_multiplier = 4.0;

  /// Fabric size for burst-destination choice (0 disables redirection).
  /// Filled in by the harness from the topology.
  std::uint32_t num_nodes = 0;

  /// Trace-fault analogue knobs (apply_trace_faults): max per-arrival
  /// cycle jitter; churn_rate drops arrivals, burst_rate duplicates them.
  Cycle trace_jitter_max = 8;

  /// All fault classes on at moderate rates — the fuzz-suite default.
  [[nodiscard]] static FaultSpec chaos(std::uint64_t seed);

  [[nodiscard]] std::string describe() const;
};

/// The FaultModel the wormhole substrate consults.  Stateless after
/// construction; safe to share across threads.
class ScheduledFaults final : public wormhole::FaultModel {
 public:
  explicit ScheduledFaults(const FaultSpec& spec);

  [[nodiscard]] bool link_stalled(Cycle now) const override;
  [[nodiscard]] Cycle credit_hold_cycles(Cycle now,
                                         NodeId node) const override;
  /// now / window: every injection decision is per window.
  [[nodiscard]] std::uint64_t injection_epoch(Cycle now) const override;
  [[nodiscard]] double injection_multiplier(Cycle now,
                                            NodeId node) const override;
  [[nodiscard]] std::optional<NodeId> burst_destination(
      Cycle now, NodeId src) const override;

  [[nodiscard]] const FaultSpec& spec() const { return spec_; }

 private:
  enum Kind : std::uint64_t {
    kLink = 1,
    kCredit = 2,
    kChurn = 3,
    kBurst = 4,
    kBurstDest = 5,
  };

  /// Uniform [0,1) hash of (seed, kind, epoch, node).
  [[nodiscard]] double u01(Kind kind, std::uint64_t epoch,
                           std::uint64_t node) const;

  FaultSpec spec_;
};

/// Applies `spec`'s trace faults to an arrival trace: per-arrival cycle
/// jitter in [0, trace_jitter_max], epoch-hashed drops (churn_rate) and
/// duplications (burst_rate).  Deterministic in (spec, input); the result
/// is re-sorted by cycle with arrival order preserved within a cycle.
/// Returns the input unchanged when spec.enabled is false.
[[nodiscard]] traffic::Trace apply_trace_faults(const FaultSpec& spec,
                                                const traffic::Trace& trace);

}  // namespace wormsched::validate
