// Packet-granular output arbitration for wormhole switches.
//
// A PortArbiter decides which requester (input queue / input VC) owns an
// output resource next.  Ownership is packet-granular — wormhole switching
// forbids interleaving flits of different packets in one output queue —
// and the arbiter is never told packet lengths: it learns a packet's cost
// only through charge_cycle()/charge_flit() calls while the packet drains.
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
  void charge_cycle() { charge_cycles(1); }

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

  /// Checkpoint/restore: pending counts, the current owner and its
  /// accumulated cost, then the discipline's state via the
  /// save_discipline/restore_discipline hooks.  pending_total_ is
  /// recomputed from the restored counts.  Must be called on a freshly
  /// constructed arbiter of the same discipline and requester count.
  /// `uncharged_cycles` is occupancy the caller has accrued but not yet
  /// passed to charge_cycles(); the saved cost includes it, so the bytes
  /// match a save taken with every cycle already charged and the
  /// restored arbiter starts with those cycles charged.
  void save_state(SnapshotWriter& w, std::uint64_t uncharged_cycles = 0) const;
  void restore_state(SnapshotReader& r);

 protected:
  virtual void save_discipline(SnapshotWriter& w) const { (void)w; }
  virtual void restore_discipline(SnapshotReader& r) { (void)r; }

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
  enum class Accounting {
    kCycles,  // charge output-occupancy time (the paper's wormhole mode)
    kFlits,   // charge transmitted flits (the paper's abstract model)
  };

  ErrArbiter(std::size_t num_requesters, Accounting accounting,
             bool reset_on_idle = false);

  [[nodiscard]] std::string_view name() const override {
    return accounting_ == Accounting::kCycles ? "ERR-cycles" : "ERR-flits";
  }

  [[nodiscard]] core::ErrPolicy& policy() { return policy_; }

 protected:
  void on_new_request(FlowId requester) override;
  std::optional<FlowId> pick(Cycle now) override;
  void on_release(FlowId owner) override;
  void save_discipline(SnapshotWriter& w) const override;
  void restore_discipline(SnapshotReader& r) override;

 private:
  core::ErrPolicy policy_;
  Accounting accounting_;
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
  void save_discipline(SnapshotWriter& w) const override;
  void restore_discipline(SnapshotReader& r) override;

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
  void save_discipline(SnapshotWriter& w) const override;
  void restore_discipline(SnapshotReader& r) override;

 private:
  RingBuffer<FlowId> order_;
};

/// Creates an arbiter by name: "err" / "err-cycles", "err-flits", "rr",
/// "fcfs".  Returns nullptr for unknown names.
[[nodiscard]] std::unique_ptr<PortArbiter> make_arbiter(
    std::string_view name, std::size_t num_requesters);

}  // namespace wormsched::wormhole
