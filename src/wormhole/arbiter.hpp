// Packet-granular output arbitration for wormhole switches.
//
// A PortArbiter decides which requester (input queue / input VC) owns an
// output resource next.  Ownership is packet-granular — wormhole switching
// forbids interleaving flits of different packets in one output queue —
// and the arbiter is never told packet lengths: it learns a packet's cost
// only through charge_cycles()/charge_flit() calls while the packet drains.
//
// This is exactly the environment the paper designs ERR for: under
// downstream congestion a granted packet can hold the output far longer
// than its length (Sec. 1), and the ERR arbiter charges that *occupancy*,
// in cycles, against the flow's allowance.  A flit-charging mode is
// provided for the A4 ablation (occupancy- vs volume-fairness).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "common/ring_buffer.hpp"
#include "common/types.hpp"
#include "core/err.hpp"
#include "core/round_robin.hpp"

namespace wormsched::wormhole {

class PortArbiter {
 public:
  /// What the owner is charged for while it holds the output.  Stored in
  /// the base so the charge calls are non-virtual and inline, and so the
  /// router can skip them altogether for disciplines that ignore them.
  enum class Charging : std::uint8_t {
    kNone,    // discipline ignores cost (RR, FCFS)
    kCycles,  // charge output-occupancy time (the paper's wormhole mode)
    kFlits,   // charge transmitted flits (the paper's abstract model)
  };

  explicit PortArbiter(std::size_t num_requesters,
                       Charging charging = Charging::kNone)
      : pending_(num_requesters, 0), charging_(charging) {}
  virtual ~PortArbiter() = default;
  PortArbiter(const PortArbiter&) = delete;
  PortArbiter& operator=(const PortArbiter&) = delete;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// A new packet head from `requester` is waiting for this output.
  void request(FlowId requester);

  /// The output is free: pick the next owner (nullopt if nobody waits).
  /// The chosen requester's pending head is consumed.
  [[nodiscard]] std::optional<FlowId> grant(Cycle now);

  /// The current owner occupied the output for `cycles` more cycles
  /// (moving or stalled).  Between grant and release the owner must be
  /// charged every cycle it held the output; the router does it in one
  /// call when the tail leaves.  Adding n at once equals n additions of
  /// 1.0: held_ stays an exact integer far below 2^53.
  void charge_cycles(std::uint64_t cycles) {
    if (charging_ == Charging::kCycles) held_ += static_cast<double>(cycles);
  }

  /// The current owner forwarded one flit.
  void charge_flit() {
    if (charging_ == Charging::kFlits) held_ += 1.0;
  }

  /// The owner's tail flit has left the output.
  void release();

  [[nodiscard]] Charging charging() const { return charging_; }
  [[nodiscard]] bool bound() const { return owner_.is_valid(); }
  [[nodiscard]] FlowId owner() const { return owner_; }
  [[nodiscard]] std::uint32_t pending(FlowId f) const {
    return pending_[f.index()];
  }
  /// Heads waiting across all requesters.  O(1); the router skips the
  /// whole grant path for outputs where this is zero (lazy arbitration),
  /// which is sound because every discipline's pick() is a no-op with no
  /// pending heads.
  [[nodiscard]] std::uint32_t pending_total() const { return pending_total_; }

  /// Checkpoint state: pending counts (requester count checked), the
  /// current owner and its accumulated cost (finite, >= 0), then the
  /// discipline's state via discipline_fields().  pending_total_ is
  /// recomputed from the restored counts.  Restore into a freshly
  /// constructed arbiter of the same discipline.  `uncharged_cycles` is
  /// occupancy the caller has accrued but not yet passed to
  /// charge_cycles(); the saved cost includes it, so the bytes match a
  /// save taken with every cycle already charged and the restored arbiter
  /// starts with those cycles charged.
  void fields(Archive& a, std::uint64_t uncharged_cycles = 0);

 protected:
  virtual void discipline_fields(Archive& a) { (void)a; }

  /// Discipline hooks, called with pending_ already updated.
  virtual void on_new_request(FlowId requester) = 0;
  virtual std::optional<FlowId> pick(Cycle now) = 0;
  virtual void on_release(FlowId owner) = 0;

  std::vector<std::uint32_t> pending_;
  FlowId owner_ = FlowId::invalid();
  /// Cost accumulated by the current owner; consumed by on_release.
  double held_ = 0.0;

 private:
  Charging charging_;
  std::uint32_t pending_total_ = 0;
};

/// ERR arbitration (the paper's algorithm in its native habitat).
class ErrArbiter final : public PortArbiter {
 public:
  /// `charging` is kCycles or kFlits: ERR needs a cost to charge.
  ErrArbiter(std::size_t num_requesters, Charging charging,
             bool reset_on_idle = false);

  [[nodiscard]] std::string_view name() const override {
    return charging() == Charging::kCycles ? "ERR-cycles" : "ERR-flits";
  }

  [[nodiscard]] core::ErrPolicy& policy() { return policy_; }
  [[nodiscard]] const core::ErrPolicy& policy() const { return policy_; }

 protected:
  void on_new_request(FlowId requester) override;
  std::optional<FlowId> pick(Cycle now) override;
  void on_release(FlowId owner) override;
  void discipline_fields(Archive& a) override;

 private:
  core::ErrPolicy policy_;
};

/// Packet-based round-robin arbitration (what many real switches do).
class RrArbiter final : public PortArbiter {
 public:
  explicit RrArbiter(std::size_t num_requesters);

  [[nodiscard]] std::string_view name() const override { return "RR"; }

 protected:
  void on_new_request(FlowId requester) override;
  std::optional<FlowId> pick(Cycle now) override;
  void on_release(FlowId owner) override;
  void discipline_fields(Archive& a) override;

 private:
  core::ActiveFlowRing ring_;
};

/// First-come-first-served arbitration by head-arrival order.
class FcfsArbiter final : public PortArbiter {
 public:
  explicit FcfsArbiter(std::size_t num_requesters);

  [[nodiscard]] std::string_view name() const override { return "FCFS"; }

 protected:
  void on_new_request(FlowId requester) override;
  std::optional<FlowId> pick(Cycle now) override;
  void on_release(FlowId owner) override;
  void discipline_fields(Archive& a) override;

 private:
  RingBuffer<FlowId> order_;
};

/// Creates an arbiter by name: "err" / "err-cycles", "err-flits", "rr",
/// "fcfs".  Returns nullptr for unknown names.
[[nodiscard]] std::unique_ptr<PortArbiter> make_arbiter(
    std::string_view name, std::size_t num_requesters);

}  // namespace wormsched::wormhole
