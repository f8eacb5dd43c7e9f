// Fault-injection hook interface for the wormhole substrate.
//
// The network and its traffic source consult an optional FaultModel at
// well-defined points (wire delivery, credit return, injection).  The
// interface lives here, below the concrete implementation: the substrate
// knows only the questions it may ask, while the deterministic schedule
// that answers them (validate::ScheduledFaults) plugs in from above.
//
// Contract: every answer must be a pure function of (cycle, node) and the
// model's own configuration — never of call order or call count.  The
// serial and the sharded network tick interleave queries differently,
// and the flit-for-flit ShardedFuzzTest requires both to see the
// identical fault schedule.
//
// The injection answers (injection_multiplier, burst_destination) are
// further grouped into epochs: injection_epoch(now) names the group a
// cycle belongs to, and all cycles of one epoch must get identical
// injection answers for every node.  The traffic source relies on this
// to ask once per node per epoch instead of once per node per cycle.
// The default makes every cycle its own epoch, which is always sound.
#pragma once

#include <cstdint>
#include <optional>

#include "common/types.hpp"

namespace wormsched::wormhole {

class FaultModel {
 public:
  virtual ~FaultModel() = default;

  /// Fabric-wide link stall: when true, flit-wire delivery pauses for this
  /// cycle (in-flight flits keep their order and arrive late).
  [[nodiscard]] virtual bool link_stalled(Cycle now) const {
    (void)now;
    return false;
  }

  /// Credit starvation: cycles to quarantine a credit arriving at `node`
  /// this cycle (0 = deliver normally).  Release cycles must be
  /// non-decreasing in arrival order so the quarantine stays a FIFO.
  [[nodiscard]] virtual Cycle credit_hold_cycles(Cycle now,
                                                 NodeId node) const {
    (void)now;
    (void)node;
    return 0;
  }

  /// Epoch of cycle `now` for the injection answers below: two cycles
  /// with the same epoch get the same injection_multiplier and
  /// burst_destination for every node.  Default: each cycle is its own
  /// epoch.
  [[nodiscard]] virtual std::uint64_t injection_epoch(Cycle now) const {
    return now;
  }

  /// Injection-rate multiplier for `node`'s traffic source: 0 churns the
  /// source off for the cycle, > 1 models a burst.  The effective rate is
  /// clamped to 1 packet/node/cycle by the source.
  [[nodiscard]] virtual double injection_multiplier(Cycle now,
                                                    NodeId node) const {
    (void)now;
    (void)node;
    return 1.0;
  }

  /// Destination override during hotspot bursts; nullopt = pattern's
  /// choice.  Returning `src` itself is ignored by the source.
  [[nodiscard]] virtual std::optional<NodeId> burst_destination(
      Cycle now, NodeId src) const {
    (void)now;
    (void)src;
    return std::nullopt;
  }
};

}  // namespace wormsched::wormhole
